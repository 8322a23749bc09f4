"""What a refine query reads instead of rebuilding: the one-loop seeding
of the search, and the slotted records a query returns.

``search._seeded_search`` must give what the oracle seed
(``oracles.seed_from_path``) and ``search._max_ratio`` give: g, parents,
the open set and the first inflation, on every covered goal's seed and on
chained seeds that run through home. ``Path``, ``QueryResult`` and
``RefineIteration`` are slotted dataclasses that copy, pickle and compare
as before.
"""

import copy
import dataclasses
import functools
import pickle

import pytest

from coverplan import CoverPlanner, corpus, search
from oracles import seed_from_path

SCENARIOS = dict(corpus.corpus())


# ---------------------------------------------------------------------------
# one-loop seeding


def assert_seeded_like_the_oracle(sc, path):
    goal = path.configs[-1]
    h = search._HeuristicMemo(sc, goal, sc.home_distance)
    seeded, eps = search._seeded_search(h, path)
    g, parent = seed_from_path(path)
    assert list(seeded.g.items()) == list(g.items()), path
    assert list(seeded.parent.items()) == list(parent.items()), path
    assert seeded.open_set == set(path.configs) and not seeded.incons
    assert seeded.h is h
    # the same float operations, so the inflations are equal, not close
    assert eps == max(1.0, search._max_ratio(path.configs, g, h, path.cost)), path


@pytest.mark.parametrize("name", ["grid21_ladder", "arm32_o2"])
def test_seeding_matches_the_oracle(name):
    """Every covered goal's seed from home, and a chained seed from each
    covered goal to the next one in order, which runs back to home and out
    again: such a V through home revisits states, and the first visit wins."""
    sc = SCENARIOS[name]
    planner = CoverPlanner(seed=0).fit(sc)
    goals = sorted(set().union(*(rc.covered for rc in planner.library_.regions)))
    revisits = 0
    for goal in goals:
        assert_seeded_like_the_oracle(sc, planner.plan(goal, refine=False).path)
    for start, goal in zip(goals, goals[1:] + goals[:1]):
        path = planner.plan(goal, start, refine=False).path
        revisits += len(set(path.configs)) < len(path.configs)
        assert_seeded_like_the_oracle(sc, path)
    assert revisits > 0


def test_seeding_a_path_that_doubles_back():
    """A hand-made seed that steps away and back twice, and so meets two
    states a second time, one of them the start."""
    sc = SCENARIOS["grid12_d00"]
    configs = ((0, 0), (1, 0), (0, 0), (0, 1), (1, 1), (1, 0), (2, 0), (3, 0))
    path = search.Path(configs)
    assert_seeded_like_the_oracle(sc, path)
    seeded, _ = search._seeded_search(search._HeuristicMemo(sc, (3, 0)), path)
    assert seeded.g[(0, 0)] == 0.0 and seeded.parent[(0, 0)] is None
    assert seeded.g[(1, 0)] == 1.0 and seeded.parent[(1, 0)] == (0, 0)
    assert seeded.parent[(2, 0)] == (1, 0) and seeded.g[(2, 0)] == 6.0


# ---------------------------------------------------------------------------
# slotted records


@functools.cache
def records():
    """A refined home query on grid21_ladder whose first pass expands a
    state: its path, its result and that pass."""
    sc = SCENARIOS["grid21_ladder"]
    planner = CoverPlanner(seed=0).fit(sc)
    goals = sorted(planner.library_.regions[0].covered)
    result = next(
        r for r in map(planner.plan, goals) if r.refine_report.iterations[0].expansions
    )
    return result.path, result, result.refine_report.iterations[0]


KINDS = ("Path", "QueryResult", "RefineIteration")


@pytest.mark.parametrize("kind", KINDS)
def test_records_are_slotted_and_round_trip(kind):
    record = records()[KINDS.index(kind)]
    assert type(record).__name__ == kind
    assert not hasattr(record, "__dict__") and "__slots__" in vars(type(record))
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(2, 6)]
    copies += [copy.deepcopy(record), copy.copy(record), dataclasses.replace(record)]
    for other in copies:
        assert other == record and other is not record
        assert dataclasses.astuple(other) == dataclasses.astuple(record)
    if kind == "Path":
        assert {hash(other) for other in copies} == {hash(record)}
        assert dataclasses.replace(record, configs=record.configs[:1]).cost == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.configs = ()
    else:
        name = "elapsed_ms" if kind == "RefineIteration" else "refine_ms"
        assert dataclasses.replace(record, **{name: -1.0}) != record
        with pytest.raises(AttributeError):  # no __dict__ to take a new name
            record.extra = 1


def test_a_path_refuses_every_assignment_as_frozen():
    """Assigning or deleting a field, and assigning a name that is not a
    field, each raise FrozenInstanceError; with ``slots=True`` the new name
    raised TypeError on CPython 3.10-3.13, from the generated
    ``__setattr__`` naming the class that the slotted copy replaced."""
    path = search.Path(((0, 0), (0, 1)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.configs = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.foo = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del path.configs
    assert path.configs == ((0, 0), (0, 1)) and not hasattr(path, "foo")
