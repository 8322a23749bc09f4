"""End-to-end flows over domain variants the unit tests touch only in part."""

import math

import pytest

from coverplan import (
    ArmModel,
    Circle,
    CoverPlanner,
    RegionSpec,
    Scenario,
    corpus,
    cspace,
)
from coverplan import cover as pre
from coverplan.search import astar, path_is_valid
from oracles import bfs_distances


@pytest.fixture(scope="module")
def limited_arm():
    """2-link arm whose first joint sweeps only the upper half plane."""
    return Scenario(
        kind="arm",
        arm=ArmModel(
            link_lengths=(1.0, 0.8),
            joints_per_rev=16,
            joint_limits=((0.0, math.pi), None),
        ),
        s_home=(0, 0),
        regions=(
            RegionSpec("pick", (0.9, 0.3, 1.7, 1.1)),
            RegionSpec("place", (-1.7, 0.3, -0.9, 1.1)),
        ),
        obstacles=(Circle(center=(0.0, -1.2), radius=0.3),),
    )


def test_limited_arm_pipeline(limited_arm):
    sc = limited_arm
    assert sc.dims == (8, 16)
    assert sc.wraps == (False, True)
    lib = pre.preprocess(sc, seed=0)
    reach = set(bfs_distances(sc, sc.s_home))
    for region, rc in zip(sc.regions, lib.regions):
        states = cspace.region_configs(sc, region)
        assert states, region.id
        assert rc.covered == frozenset(q for q in states if q in reach)
    start = sorted(lib.regions[0].covered)[0]
    goal = sorted(lib.regions[1].covered)[-1]
    res = CoverPlanner.from_library(sc, lib).plan(goal, start, budget_ms=2000.0)
    assert res.optimal_flag
    assert res.final_cost == astar(sc, start, goal).cost
    assert path_is_valid(sc, res.path)


def test_make_arm_three_links():
    sc = corpus.make_arm(16, 2, seed=3, link_lengths=(1.0, 0.8, 0.6))
    assert sc.s_home == (0, 0, 0)
    assert sc.dims == (16, 16, 16)
    assert cspace.is_valid(sc, sc.s_home)


def test_limited_arm_scenario_round_trip(tmp_path, limited_arm):
    path = tmp_path / "limited_arm.json"
    cspace.save_scenario(limited_arm, path)
    again = cspace.load_scenario(path)
    assert cspace.scenario_to_payload(again) == cspace.scenario_to_payload(limited_arm)
    assert again.arm.dims() == limited_arm.arm.dims()


def test_rectangular_grid_pipeline():
    sc = Scenario(
        kind="grid",
        grid_dims=(6, 14),
        s_home=(0, 7),
        regions=(RegionSpec("goal", (4.0, 10.0, 6.0, 14.0)),),
    )
    lib = pre.preprocess(sc, seed=1)
    covered = sorted(lib.regions[0].covered)
    assert covered
    planner = CoverPlanner.from_library(sc, lib)
    for goal in covered:
        res = planner.plan(goal, sc.s_home, budget_ms=500.0)
        assert res.final_cost == astar(sc, sc.s_home, goal).cost


def test_chained_executed_anchors(two_region_grid12):
    """A third query may start mid-path of the second executed path, whose
    own anchor was resolved through the first executed path."""
    planner = CoverPlanner(seed=0).fit(two_region_grid12)
    lib = planner.library_
    sc = two_region_grid12
    pick = sorted(lib.regions[0].covered)
    place = sorted(lib.regions[1].covered)

    res1 = planner.plan(pick[0], budget_ms=1000.0)
    planner.register_executed(res1.path)
    mid1 = res1.path.configs[len(res1.path.configs) // 2]

    res2 = planner.plan(place[0], start=mid1, budget_ms=1000.0)
    planner.register_executed(res2.path)
    mid2 = res2.path.configs[len(res2.path.configs) // 2]

    res3 = planner.plan(pick[-1], start=mid2, budget_ms=1000.0)
    assert res3.path.configs[0] == mid2
    assert res3.path.configs[-1] == pick[-1]
    assert path_is_valid(sc, res3.path)
    assert res3.final_cost == astar(sc, mid2, pick[-1]).cost

    # states of the dropped first path are no longer potential (bounded memory)
    dropped = [q for q in res1.path.configs if q not in planner.index_]
    if dropped:
        from coverplan import errors

        with pytest.raises(errors.StartNotPotential):
            planner.plan(place[0], start=dropped[0])


def test_home_inside_region_is_covered():
    """A home state that sits in a goal region is itself a covered goal."""
    sc = Scenario(
        kind="grid",
        grid_dims=(8, 8),
        s_home=(6, 6),
        regions=(RegionSpec("zone", (5.0, 5.0, 8.0, 8.0)),),
    )
    lib = pre.preprocess(sc, seed=0)
    assert sc.s_home in lib.regions[0].covered
    res = CoverPlanner.from_library(sc, lib).plan(sc.s_home, sc.s_home)
    assert res.final_cost == 0.0
    assert res.optimal_flag


def test_six_dof_arm_keeps_the_online_contract():
    """The paper's robot has 6 DoF: a 6-link arm at 6 steps per joint
    (46,656 states). Each no-refine plan, from home to every covered goal
    and along one registered pick -> place sweep, makes no collision check
    and no expansion, and is a valid path from its start to its goal."""
    sc = corpus.make_arm(6, 2, seed=6 * 7 + 2, link_lengths=(1.0, 0.8, 0.7, 0.6, 0.5, 0.4))
    assert len(sc.state_table) == 6**6
    planner = CoverPlanner(seed=0).fit(sc)
    pick, place = (sorted(rc.covered) for rc in planner.library_.regions)
    assert pick and place

    def plan(goal, start):
        before = sc.counters.snapshot()
        path = planner.plan(goal, start=start, refine=False).path
        assert sc.counters.snapshot()[:2] == before[:2], (start, goal)
        assert (path.configs[0], path.configs[-1]) == (start, goal)
        assert path_is_valid(sc, path), (start, goal)
        return path

    for goal in pick + place:
        plan(goal, sc.s_home)
    start = sc.s_home
    for pair in zip(pick, place):
        for goal in pair:
            planner.register_executed(plan(goal, start))
            start = goal
