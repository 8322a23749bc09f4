"""The potential-state index against the first-match oracle.

``PotentialStateIndex`` keeps rep-path positions only and serves covered
goals from the library's goal index, so it must skip a rep-path state that
an earlier region covers as a goal. The oracle walks the regions literally,
so any change to that priority rule shows up here as a different home path.
"""

import pytest

import oracles
from coverplan import corpus, cspace
from coverplan import cover as pre
from coverplan import online as onl
from coverplan.search import Path
from conftest import arm3_s16


def oracle_path(library, q, why):
    """The home path the oracle's reason for q gives."""
    kind, entry, position = why
    if kind == "home":
        return Path((q,))
    if kind == "rep_path":
        return Path(entry.rep_path.configs[: position + 1])
    return onl.connect(library.goal_index[q].entry, q)


@pytest.mark.parametrize("seed", [0, 1])
def test_index_matches_the_provenance_oracle(seed):
    """Every corpus scenario and arm3_s16: the same potential states and the
    same home paths as the oracle, before and after registering a path."""
    scenarios = dict(corpus.corpus())
    scenarios["arm3_s16"] = arm3_s16()
    for name, sc in scenarios.items():
        lib = pre.preprocess(sc, seed=seed)
        index = onl.PotentialStateIndex(sc, lib)
        provenance = oracles.potential_provenance(lib)
        expected = {q: oracle_path(lib, q, why) for q, why in provenance.items()}
        potentials = {q for q in cspace.lattice_configs(sc) if q in index}
        assert potentials == set(expected), name
        for q, path in expected.items():
            assert onl.path_home_to(index, q) == path, (name, q)

        goal = max(lib.goal_index)
        executed = onl.query(sc, lib, onl.QueryRequest(sc.s_home, goal, refine=False)).path
        onl.update_potential_index(index, executed)
        potentials = {q for q in cspace.lattice_configs(sc) if q in index}
        assert potentials == set(expected) | set(executed.configs), name
        for q, path in expected.items():
            assert onl.path_home_to(index, q) == path, (name, q)

