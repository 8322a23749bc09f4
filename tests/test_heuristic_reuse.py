"""A planner's heuristic memos, kept per goal from plan to plan.

``CoverPlanner`` keeps one heuristic memo per goal it has refined to
(``heuristics_``) and hands it to every later refinement to that goal. A
memo holds values of h alone, a function of the scenario and the goal, so
a warm memo may change nothing that a plan returns or counts, and binding
another scenario must start again with none.
"""

import pytest

import oracles
from conftest import cell_rect, grid
from coverplan import CoverPlanner, RegionSpec, corpus, search

SCENARIOS = dict(corpus.corpus())


def observed(planner, goal, start=None):
    """One refined plan, and what it shows: the path, the refine records
    (epsilon, cost, expansions), the optimal flag and the counter deltas
    (checks, expansions, steps). The clock stands still, so every
    refinement runs to its end."""
    counters = planner.scenario_.counters
    before = counters.snapshot()
    result = planner.plan(goal, start, clock=lambda: 0.0)
    deltas = tuple(b - a for a, b in zip(before, counters.snapshot()))
    report = result.refine_report
    records = report and [(it.epsilon, it.cost, it.expansions) for it in report.iterations]
    return result, (result.path.configs, records, result.optimal_flag, deltas)


@pytest.mark.parametrize("name", ["grid21_ladder", "grid24_d30", "arm32_o2"])
def test_a_warm_memo_changes_no_plan(name):
    """One planner runs every covered goal from home twice, then a chained
    pick -> place sweep that registers each plan. Each query gives what a
    fresh ``from_library`` planner gives for it (with the same registered
    path, for a chained start): the same path, refine records, optimal
    flag and counter deltas. The second sweep from home reads the memos
    the first one built, and every value a memo holds is the landmark
    oracle's."""
    sc = SCENARIOS[name]
    planner = CoverPlanner(seed=0).fit(sc)
    library = planner.library_
    goals = sorted(library.goal_index)
    picks, places = (sorted(region.covered) for region in library.regions)
    chain = [goal for pair in zip(picks, places) for goal in pair]

    def fresh(registered=None):
        other = CoverPlanner.from_library(sc, library)
        if registered is not None:
            other.register_executed(registered)
        return other

    for sweep in range(2):
        memos = dict(planner.heuristics_)
        for goal in goals:
            assert observed(planner, goal)[1] == observed(fresh(), goal)[1], (sweep, goal)
        if sweep:  # every goal refined to kept its memo, the same object
            assert planner.heuristics_.keys() == memos.keys()
            assert all(planner.heuristics_[goal] is memo for goal, memo in memos.items())
    start = executed = None
    for goal in chain:
        result, seen = observed(planner, goal, start)
        assert seen == observed(fresh(executed), goal, start)[1], (start, goal)
        planner.register_executed(result.path)
        start, executed = goal, result.path

    # one memo per covered goal refined to, at most, each holding h's values
    assert planner.heuristics_ and planner.heuristics_.keys() <= set(goals)
    distances = oracles.bfs_distances(sc, sc.s_home, oracles.valid_states(sc))
    for goal, memo in planner.heuristics_.items():
        h = oracles.landmark_heuristic(sc, goal, distances)
        assert memo and all(type(v) is float and v == h(q) for q, v in memo.items()), goal


def test_rebinding_drops_the_memos():
    """A planner fitted on an open grid refines to a goal, is fitted again
    on the same lattice with a wall between home and that goal, and
    refines to it again. The second answer is that scenario's A* optimum,
    a valid path flagged optimal: a memo kept from the open grid would
    bound the goal below the wall's detour and search the open grid's
    lattice."""
    goal = (10, 1)
    regions = (RegionSpec("goal", (9.0, 0.0, 12.0, 3.0)),)
    open_grid = grid(12, regions=regions)
    walled = grid(12, obstacles=[cell_rect(5, j) for j in range(10)], regions=regions)
    assert open_grid.dims == walled.dims and open_grid.s_home == walled.s_home
    assert walled.home_distance[goal] > open_grid.home_distance[goal]

    planner = CoverPlanner(seed=0).fit(open_grid)
    first = planner.plan(goal, clock=lambda: 0.0)
    assert first.optimal_flag and first.path.cost == open_grid.home_distance[goal]
    planner.fit(walled)
    assert goal in planner.library_.goal_index
    second = planner.plan(goal, clock=lambda: 0.0)
    assert second.optimal_flag
    assert search.path_is_valid(walled, second.path)
    assert second.path.cost == search.astar(walled, walled.s_home, goal).cost
