import re

import pytest

import oracles
from coverplan import CoverPlanner, corpus, errors, online, search


def test_get_set_params_round_trip():
    p = CoverPlanner(seed=3)
    params = p.get_params()
    assert params == {"seed": 3}
    clone = CoverPlanner(**params)  # the sklearn clone recipe
    assert clone.get_params() == params
    p.set_params(seed=11)
    assert p.get_params() == {"seed": 11}


def test_set_params_rejects_unknown():
    with pytest.raises(ValueError):
        CoverPlanner().set_params(gamma=1.0)
    with pytest.raises(ValueError):
        CoverPlanner().set_params(delta=1e-5)  # the refinement guard is not a parameter
    with pytest.raises(TypeError):
        CoverPlanner(delta=1e-5)
    with pytest.raises(ValueError):
        CoverPlanner().set_params(rep_path_weight=2.0)  # a fixed constant, not a parameter
    with pytest.raises(TypeError):
        CoverPlanner(rep_path_weight=2.0)


def test_plan_requires_fit():
    with pytest.raises(errors.NotFittedError):
        CoverPlanner().plan((1, 1))


def test_fit_then_plan(two_region_grid12):
    planner = CoverPlanner(seed=0).fit(two_region_grid12)
    goal = sorted(planner.library_.regions[0].covered)[0]
    res = planner.plan(goal, budget_ms=300.0)
    assert res.path.configs[0] == two_region_grid12.s_home
    assert res.path.configs[-1] == goal
    assert res.final_cost <= res.initial_cost


def test_fit_validates_scenario(two_region_grid12):
    from conftest import cell_rect, grid

    bad = grid(12, home=(0, 6), regions=two_region_grid12.regions, obstacles=[cell_rect(0, 6)])
    with pytest.raises(errors.HomeInvalid):
        CoverPlanner().fit(bad)


def test_plan_validates_configs(two_region_grid12):
    planner = CoverPlanner().fit(two_region_grid12)
    with pytest.raises(ValueError):
        planner.plan((1, 2, 3))
    goal = sorted(planner.library_.regions[0].covered)[0]
    for q in [(9.7, 0), ("9", 0), (True, 0)]:  # once read as (9, 0) or (1, 0)
        with pytest.raises(ValueError):
            planner.plan(q)
        with pytest.raises(ValueError):
            planner.plan(goal, start=q)


def test_sequential_flow_via_register(two_region_grid12):
    planner = CoverPlanner(seed=0).fit(two_region_grid12)
    lib = planner.library_
    goal_a = sorted(lib.regions[0].covered)[0]
    goal_b = sorted(lib.regions[1].covered)[0]
    res = planner.plan(goal_a, budget_ms=300.0)
    planner.register_executed(res.path)
    res2 = planner.plan(goal_b, start=goal_a, budget_ms=300.0)
    assert res2.path.configs[0] == goal_a
    mid = res.path.configs[len(res.path.configs) // 2]
    res3 = planner.plan(goal_b, start=mid, budget_ms=300.0)
    assert res3.path.configs[0] == mid


def test_register_refuses_a_path_that_jumps():
    """grid12_d20 (seed 0): registering g0 -> (0, 0) -> g0, a jump there and
    back, once made a later plan from (0, 0) start (0, 0), (9, 0), which is
    no lattice move. Now the path is refused and nothing is registered."""
    planner = CoverPlanner(seed=0).fit(dict(corpus.corpus())["grid12_d20"])
    g0 = sorted(planner.library_.regions[0].covered)[0]
    assert g0 == (9, 0)
    with pytest.raises(errors.InvalidPath, match=r"\(9, 0\) -> \(0, 0\) is not one lattice move"):
        planner.register_executed(search.Path((g0, (0, 0), g0)))
    assert planner.index_.executed_path is None
    with pytest.raises(errors.StartNotPotential):
        planner.plan(g0, start=(0, 0), refine=False)


def test_register_a_path_that_leaves_the_potential_set():
    """grid8_d00 (seed 0): after home -> (5, 0), the walk (5, 0), (4, 0),
    (4, 1) ends at a state with no home path of its own, and registering it
    once raised StartNotPotential for (4, 1). Its anchor is now the home
    path of its start followed by the walk. A walk with neither end
    potential is refused, naming both, and nothing is registered."""
    planner = CoverPlanner(seed=0).fit(dict(corpus.corpus())["grid8_d00"])
    index = planner.index_
    first = planner.plan((5, 0), refine=False).path
    planner.register_executed(first)
    walk = search.Path(((5, 0), (4, 0), (4, 1)))
    assert (4, 1) not in index
    planner.register_executed(walk)
    assert index.executed_path is walk
    assert index.anchor.configs == first.configs + walk.configs[1:]
    assert online.path_home_to(index, (4, 1)) is index.anchor
    goal = sorted(planner.library_.regions[1].covered)[0]
    res = planner.plan(goal, start=(4, 1), refine=False)
    assert res.path.start == (4, 1) and res.path.goal == goal
    assert search.path_is_valid(planner.scenario_, res.path)

    outside = search.Path(((4, 3), (4, 4)))
    assert not any(q in index for q in outside.configs)
    before = (index.executed_path, index.anchor)
    with pytest.raises(errors.StartNotPotential, match=re.escape("(4, 3) or (4, 4)")):
        planner.register_executed(outside)
    assert (index.executed_path, index.anchor) == before


def test_register_checks_every_path_but_the_last_planned(two_region_grid12, monkeypatch):
    """The path object the last plan returned registers with no check; an
    equal copy of it, or an earlier plan's path, is checked first."""
    planner = CoverPlanner(seed=0).fit(two_region_grid12)
    goal_a, goal_b = (sorted(rc.covered)[0] for rc in planner.library_.regions)
    first = planner.plan(goal_a, refine=False).path
    checked = []
    path_is_valid = search.path_is_valid

    def counted(scenario, path):
        checked.append(path)
        return path_is_valid(scenario, path)

    monkeypatch.setattr(search, "path_is_valid", counted)
    last = planner.plan(goal_b, refine=False).path
    planner.register_executed(last)
    assert checked == []
    copy = search.Path(last.configs)
    planner.register_executed(copy)
    planner.register_executed(first)
    assert checked == [copy, first] and checked[0] is copy
    assert planner.index_.executed_path is first


def test_registering_the_last_plan_chases_and_checks_nothing(two_region_grid12, monkeypatch):
    """Registering the path the last plan returned calls neither connect
    nor path_is_valid, whether that plan started at home, at the end of the
    last executed path, or was refined: the end's home path is the one
    that the plan stored in ``index.goal_path``. The goals are on no rep
    path, so without it the end would be chased again."""
    planner = CoverPlanner(seed=0).fit(two_region_grid12)
    index = planner.index_
    pick, place = (
        [q for q in sorted(rc.covered) if q not in index.rep_states]
        for rc in planner.library_.regions
    )
    calls = []
    connect, path_is_valid = online.connect, search.path_is_valid

    def counted_connect(entry, q):
        calls.append("connect")
        return connect(entry, q)

    def counted_path_is_valid(scenario, path):
        calls.append("path_is_valid")
        return path_is_valid(scenario, path)

    monkeypatch.setattr(online, "connect", counted_connect)
    monkeypatch.setattr(search, "path_is_valid", counted_path_is_valid)
    plans = {
        "home": lambda: planner.plan(pick[0], refine=False),
        "chained": lambda: planner.plan(place[0], start=pick[0], refine=False),
        "refined": lambda: planner.plan(pick[1], start=place[0], budget_ms=1e4),
    }
    for kind, plan in plans.items():
        calls.clear()
        res = plan()
        assert "connect" in calls, kind  # the plan chases its goal
        calls.clear()
        planner.register_executed(res.path)
        assert calls == [], kind
        assert index.executed_path is res.path
    assert res.refine_report is not None and res.final_cost < res.initial_cost


def test_a_state_visited_twice_is_served_from_its_last_visit():
    """grid8_d00 (seed 0): the walk (5, 0), (4, 0), (4, 1), (4, 2), (4, 1),
    (3, 1) visits (4, 1) twice. Its home path is the anchor followed by the
    walk back from the end to the last visit, as the oracle's last position
    gives, not to the first."""
    planner = CoverPlanner(seed=0).fit(dict(corpus.corpus())["grid8_d00"])
    index = planner.index_
    planner.register_executed(planner.plan((5, 0), refine=False).path)
    walk = search.Path(((5, 0), (4, 0), (4, 1), (4, 2), (4, 1), (3, 1)))
    assert not any(q in index for q in walk.configs[2:])
    planner.register_executed(walk)
    assert all(q in index for q in walk.configs)
    assert (4, 3) not in index
    got = online.path_home_to(index, (4, 1))
    assert got.configs == index.anchor.configs + ((4, 1),)
    assert got.configs == oracles.home_path_by_lookup(index, (4, 1))
    assert online.path_home_to(index, (4, 2)).configs == index.anchor.configs + ((4, 1), (4, 2))


def test_update_potential_index_refuses_an_invalid_path(two_region_grid12):
    """The public entry has the same rule: a path off the lattice, through an
    obstacle or with a jump raises InvalidPath and leaves the index as it was."""
    from conftest import cell_rect, grid

    sc = grid(12, home=(0, 6), regions=two_region_grid12.regions, obstacles=[cell_rect(1, 6)])
    planner = CoverPlanner(seed=0).fit(sc)
    index = planner.index_
    goal = sorted(planner.library_.regions[0].covered)[0]
    online.update_potential_index(index, planner.plan(goal, refine=False).path)
    before = (index.executed_path, index.anchor)
    faults = {
        "(-1, 6) leaves the lattice": ((0, 6), (-1, 6)),
        "(1, 6) is in collision": ((0, 6), (1, 6)),
        "(0, 6) -> (0, 8) is not one lattice move": ((0, 6), (0, 7), (0, 6), (0, 8)),
    }
    for fault, configs in faults.items():
        with pytest.raises(errors.InvalidPath, match=re.escape(fault)):
            online.update_potential_index(index, search.Path(configs))
    assert (index.executed_path, index.anchor) == before


def test_refit_resets_state(two_region_grid12):
    planner = CoverPlanner(seed=1).fit(two_region_grid12)
    first = planner.library_
    planner.fit(two_region_grid12)
    assert planner.library_ == first  # same seed, same scenario: same cover


def test_sklearn_clone_compatibility(two_region_grid12):
    sklearn_base = pytest.importorskip("sklearn.base")
    planner = CoverPlanner(seed=6)
    cloned = sklearn_base.clone(planner)
    assert cloned is not planner
    assert cloned.get_params() == planner.get_params()
    cloned.fit(two_region_grid12)
    assert hasattr(cloned, "library_") and not hasattr(planner, "library_")
