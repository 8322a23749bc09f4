"""Each attractor's descent memo checks a lattice state at most once.

``cover._Descent`` keeps every state its walks have checked, with its
squared navigation value or its collision, and ``greedy_step`` reads
that table. On the 3-link arm, with ``cspace.is_valid`` recording its
arguments, one ``_cover_entry`` and one ``load_library`` check no state
twice toward one attractor, and a lone ``greedy_step`` runs on a fresh
memo: it checks each neighbour of its state once.
"""

import collections

import pytest

from conftest import arm3_s16
from coverplan import cover, cspace


@pytest.fixture(scope="module")
def arm():
    scenario = arm3_s16()
    return scenario, cover.preprocess(scenario, seed=0)


@pytest.fixture
def checks(monkeypatch):
    """Every ``is_valid`` call as (memo number, state): a memo is numbered
    when it is made, and a check belongs to the last memo made."""
    log, memo = [], [-1]
    is_valid, init = cspace.is_valid, cover._Descent.__init__

    def recording(scenario, q):
        log.append((memo[0], q))
        return is_valid(scenario, q)

    def numbering(self, *args, **kwargs):
        memo[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cspace, "is_valid", recording)
    monkeypatch.setattr(cover._Descent, "__init__", numbering)
    return log


def repeated(log):
    return sorted(key for key, n in collections.Counter(log).items() if n > 1)


def test_a_cover_entry_checks_each_state_once(arm, checks):
    scenario, library = arm
    region, rc = scenario.regions[0], library.regions[0]
    covered = scenario.region_reach[region][0]
    for entry in rc.entries:
        checks.clear()
        built = cover._cover_entry(cover._home_descent(scenario, entry.attractor), covered)
        assert built == entry
        assert checks and repeated(checks) == []


def test_a_load_checks_each_state_once_per_attractor(arm, checks, tmp_path):
    scenario, library = arm
    path = tmp_path / "arm3_s16.json"
    cover.save_library(library, path)
    assert cover.load_library(path, scenario) == library
    assert len({memo for memo, _ in checks}) == sum(len(rc.entries) for rc in library.regions)
    assert repeated(checks) == []


def test_greedy_step_checks_each_neighbour_once_on_a_fresh_memo(arm, checks):
    scenario, library = arm
    attractor = library.regions[1].entries[0].attractor
    for q in list(scenario.state_table)[::97]:
        for _ in range(2):
            checks.clear()
            cover.greedy_step(scenario, q, attractor)
            assert sorted(state for _, state in checks) == sorted(scenario.neighbor_table[q])
