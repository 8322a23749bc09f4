import re

import pytest

import oracles
from conftest import record_start_reads
from coverplan import CoverPlanner, corpus, cspace, errors, online, search
from coverplan import load_library, save_library


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
    path_defect = search._path_defect  # the one walk of path_is_valid and check_path

    def counted(scenario, path):
        checked.append(path)
        return path_defect(scenario, path)

    monkeypatch.setattr(search, "_path_defect", counted)
    last = planner.plan(goal_b, refine=False).path
    planner.register_executed(last)
    assert checked == []
    copy = search.Path(last.configs)
    planner.register_executed(copy)
    planner.register_executed(first)
    assert checked == [copy, first] and checked[0] is copy
    assert planner.index_.executed_path is first


def test_registering_the_last_plan_chases_and_checks_nothing(two_region_grid12, monkeypatch):
    """Registering the path the last plan returned runs no path walk (the
    one walk of path_is_valid and check_path) and no connect, whether that
    plan started at home, at the end of the last executed path, or was
    refined: the end is a goal on no rep path, whose home path is one
    lookup in the library's start index. Each plan reads its goal's home
    path there once, and its start, home or the executed end, not at
    all."""
    planner = CoverPlanner(seed=0).fit(two_region_grid12)
    index, lib = planner.index_, planner.library_
    on_rep = {q for rc in lib.regions for e in rc.entries for q in e.rep_path.configs}
    pick, place = ([q for q in sorted(rc.covered) if q not in on_rep] for rc in lib.regions)
    calls = []
    connect, path_defect = online.connect, search._path_defect

    def counted_connect(entry, q):
        calls.append("connect")
        return connect(entry, q)

    def counted_path_defect(scenario, path):
        calls.append("_path_defect")
        return path_defect(scenario, path)

    reads = record_start_reads(lib)
    monkeypatch.setattr(online, "connect", counted_connect)
    monkeypatch.setattr(search, "_path_defect", counted_path_defect)
    plans = {
        "home": (pick[0], lambda: planner.plan(pick[0], refine=False)),
        "chained": (place[0], lambda: planner.plan(place[0], start=pick[0], refine=False)),
        "refined": (pick[1], lambda: planner.plan(pick[1], start=place[0], budget_ms=1e4)),
    }
    for kind, (goal, plan) in plans.items():
        reads.clear()
        res = plan()
        assert reads == [goal], kind  # the plan reads its goal's home path
        calls.clear()
        planner.register_executed(res.path)
        assert calls == [], kind
        assert index.executed_path is res.path
    assert res.refine_report is not None and res.final_cost < res.initial_cost


def _walk_off_the_start_index(sc, lib, start, moves=3):
    """A walk of ``moves`` moves from start through valid states that the
    library's start index does not hold, or None when there is none."""
    walk = [start]
    while len(walk) <= moves:
        free = [
            q
            for q in oracles.lattice_neighbors(sc, walk[-1])
            if cspace.collision_free(sc, q) and q not in lib.start_index and q not in walk
        ]
        if not free:
            return None
        walk.append(free[0])
    return walk


def _planner_with_a_history(name):
    """A fitted planner on a corpus scenario, a second planner bound to its
    library by ``from_library`` that replays the same registrations, and
    one start of each kind: home,
    a rep-path state, the end of the executed path and a state in its
    middle. The executed path is a walk of three moves off the library's
    start index, from the largest covered goal that has one, registered
    after the plan that reached that goal, so both executed starts are
    served from the robot's history."""
    sc = dict(corpus.corpus())[name]
    planner = CoverPlanner(seed=0).fit(sc)
    lib = planner.library_
    walks = (_walk_off_the_start_index(sc, lib, q) for q in sorted(lib.goal_index, reverse=True))
    walk = next(w for w in walks if w is not None)
    goal = walk[0]
    replay = CoverPlanner.from_library(sc, lib)
    for path in (planner.plan(goal, refine=False).path, search.Path(tuple(walk))):
        planner.register_executed(path)
        replay.register_executed(path)
    rep = lib.regions[-1].entries[-1].rep_path.configs
    starts = {
        "home": sc.s_home,
        "rep path": rep[len(rep) // 2],
        "executed end": walk[-1],
        "mid executed": walk[1],
    }
    return planner, replay, starts


@pytest.mark.parametrize("name", ["grid16_d20", "arm32_o2"])  # a grid; a wrapping arm
def test_fit_and_from_library_plan_alike(name):
    """A fitted planner against one bound to its library by
    ``from_library`` that replays the same registrations: for every
    covered goal, from each kind of start, with and without refinement,
    the same path, initial cost, optimal flag and counter deltas; the same
    for a None start (home) and a list start; and the same error type for
    each bad input."""
    planner, replay, starts = _planner_with_a_history(name)
    sc, lib = planner.scenario_, planner.library_
    counters = sc.counters

    def clock():
        return 0.0  # the budget never runs out, so refinement runs to its end

    def answer(call):
        before = counters.snapshot()
        res = call()
        deltas = tuple(b - a for a, b in zip(before, counters.snapshot()))
        return res.path.configs, res.initial_cost, res.optimal_flag, deltas

    for goal in sorted(lib.goal_index):
        for kind, start in starts.items():
            for refine in (False, True):
                planned = answer(lambda: planner.plan(goal, start, refine=refine, clock=clock))
                replayed = answer(lambda: replay.plan(goal, start, refine=refine, clock=clock))
                assert planned == replayed, (goal, kind, refine)
                assert planned[0][0] == start and planned[0][-1] == goal

    # a start of None is home, and a list start is read as its tuple
    goal = max(lib.goal_index)
    for start in (None, list(starts["rep path"])):
        planned = answer(lambda: planner.plan(goal, start, refine=False))
        replayed = answer(lambda: replay.plan(goal, start, refine=False))
        assert planned == replayed, start
    assert planned[0][0] == starts["rep path"]
    fresh = CoverPlanner.from_library(sc, lib)  # no history
    assert fresh.plan(goal, refine=False).path == planner.plan(goal, refine=False).path

    uncovered = next(q for q in cspace.lattice_configs(sc) if q not in lib.goal_index)
    stranger = next(
        q
        for q in cspace.lattice_configs(sc)
        if cspace.collision_free(sc, q) and q not in replay.index_
    )
    goal = min(lib.goal_index)
    bad = [(errors.GoalUncovered, uncovered, sc.s_home, 100.0, True)]
    bad.append((errors.StartNotPotential, goal, stranger, 100.0, True))
    for budget in (0, -1, float("nan")):
        bad += [(ValueError, goal, sc.s_home, budget, refine) for refine in (True, False)]
    assert sc.s_home[0] == 0  # so a False coordinate equals home's
    bad += [
        (errors.StartNotPotential, goal, list(stranger), 100.0, True),  # checked as its tuple
        (ValueError, tuple(map(float, goal)), sc.s_home, 100.0, True),
        (ValueError, goal, (False, *sc.s_home[1:]), 100.0, True),
        (ValueError, goal[:1], sc.s_home, 100.0, True),
        (ValueError, tuple(sc.dims), sc.s_home, 100.0, True),  # one past the lattice's end
    ]
    for error, goal, start, budget, refine in bad:
        with pytest.raises(error) as planned:
            planner.plan(goal, start, budget_ms=budget, refine=refine)
        with pytest.raises(error) as replayed:
            replay.plan(goal, start, budget_ms=budget, refine=refine)
        assert type(planned.value) is type(replayed.value), (goal, start, budget, refine)


def test_a_no_refine_plan_builds_one_path(monkeypatch):
    """A no-refine plan builds exactly one Path, the one it returns, from
    every kind of start."""
    planner, _, starts = _planner_with_a_history("grid16_d20")
    goal = min(planner.library_.goal_index)
    built = []
    post_init = search.Path.__post_init__

    def counted_post_init(self):
        built.append("Path")
        post_init(self)

    monkeypatch.setattr(search.Path, "__post_init__", counted_post_init)
    for kind, start in starts.items():
        built.clear()
        planner.plan(goal, start, refine=False)
        assert built == ["Path"], kind


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
    obstacle or with a jump, or with a float or bool state that equals a
    valid one, raises InvalidPath and leaves the index as it was."""
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
        "(0.0, 7) leaves the lattice": ((0, 6), (0.0, 7)),
        "(True, 8) leaves the lattice": ((0, 6), (0, 7), (0, 8), (True, 8)),
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


def test_a_loaded_library_plans_as_the_fitted_one(tmp_path):
    """A planner bound by ``from_library`` to a saved and reloaded library
    returns the paths of the planner that built it with ``fit``: on
    grid21_ladder, for every covered goal, without and with refinement,
    from home and chained from the previous goal after registering the
    last plan. The clock stands still, so every refinement runs to its
    end."""
    sc = dict(corpus.corpus())["grid21_ladder"]
    fitted = CoverPlanner(seed=0).fit(sc)
    save_library(fitted.library_, tmp_path / "ladder.json")
    loaded = CoverPlanner.from_library(sc, load_library(tmp_path / "ladder.json", sc))
    assert loaded.library_ == fitted.library_ and loaded.library_ is not fitted.library_
    goals = sorted(fitted.library_.goal_index)
    assert len(goals) == 18
    starts = [None]  # home, then also the previous goal
    for goal in goals:
        for start in starts:
            for refine in (False, True):
                answers = [
                    planner.plan(goal, start, refine=refine, clock=lambda: 0.0)
                    for planner in (fitted, loaded)
                ]
                paths = [answer.path.configs for answer in answers]
                assert paths[0] == paths[1], (goal, start, refine)
        for planner, answer in zip((fitted, loaded), answers):
            planner.register_executed(answer.path)
        starts = [None, goal]
