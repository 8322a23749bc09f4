import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arm3_s16, cell_rect, drawn_arms, grid
from coverplan import ArmModel, Circle, RegionSpec, Scenario, corpus, cspace, errors, search
from oracles import bfs_distances, landmark_heuristic, valid_states


def wall_grid(size=8, col=4, gap=7):
    """Vertical wall at x=col with one opening at y=gap."""
    return grid(size, obstacles=[cell_rect(col, j) for j in range(size) if j != gap])


def random_grid(size, density, seed):
    rng = random.Random(seed)
    cells = [
        (i, j)
        for i in range(size)
        for j in range(size)
        if (i, j) != (0, 0) and rng.random() < density
    ]
    return grid(size, obstacles=[cell_rect(i, j) for i, j in cells])


# ---------------------------------------------------------------------------
# astar


def test_astar_manhattan_lower_bound(empty8):
    path = search.astar(empty8, (0, 0), (3, 4))
    assert path.cost == 7.0
    assert path.configs[0] == (0, 0) and path.configs[-1] == (3, 4)


def test_astar_detour_matches_bfs_oracle():
    sc = wall_grid()
    dist = bfs_distances(sc, (0, 0))
    path = search.astar(sc, (0, 0), (7, 0))
    assert path.cost == dist[(7, 0)]
    assert search.path_is_valid(sc, path)


def test_astar_unreachable_predicate():
    """A valid goal inside a walled-off 3x3 pocket empties the frontier."""
    wall = [cell_rect(4, j) for j in range(4, 8)] + [cell_rect(i, 4) for i in range(5, 8)]
    sc = grid(8, obstacles=wall)
    assert cspace.is_valid(sc, (7, 7))
    with pytest.raises(errors.NoPath):
        search.astar(sc, (0, 0), (7, 7))


def test_astar_timeout(empty8):
    with pytest.raises(errors.Timeout):
        search.astar(empty8, (0, 0), (7, 7), deadline=0.0, clock=lambda: 1.0)


def test_astar_weighted_bound():
    sc = wall_grid()
    opt = search.astar(sc, (0, 0), (7, 0)).cost
    for w in (1.5, 3.0, 10.0):
        assert search.astar(sc, (0, 0), (7, 0), weight=w).cost <= w * opt


def test_search_weights_must_be_finite_and_at_least_one():
    """An infinite weight makes inf * h(goal) = inf * 0 NaN, which used to
    report NoPath for a goal ten steps away; NaN passed every comparison.
    ARA*'s schedule is fixed, so it takes no weight."""
    sc = dict(corpus.corpus())["grid8_d10"]
    home, goal = sc.s_home, (7, 7)
    assert search.astar(sc, home, goal).cost == 10.0
    for weight in (math.inf, math.nan, 0.5):
        with pytest.raises(ValueError):
            search.astar(sc, home, goal, weight=weight)
    with pytest.raises(TypeError):
        search.ara_star(sc, home, goal, w0=50.0)


def test_astar_optimal_on_random_grids():
    for seed in range(8):
        sc = random_grid(10, 0.25, seed)
        dist = bfs_distances(sc, (0, 0))
        targets = sorted(dist)[:: max(1, len(dist) // 7)]
        for goal in targets:
            assert search.astar(sc, (0, 0), goal).cost == dist[goal]


def test_astar_deterministic(empty8):
    a = search.astar(empty8, (0, 0), (5, 6))
    b = search.astar(empty8, (0, 0), (5, 6))
    assert a.configs == b.configs


@pytest.mark.parametrize("goal", [(-1, 0), (12, 0), (0,)])
def test_searches_find_no_path_to_a_goal_off_the_lattice(goal):
    """A goal off the lattice has no heuristic row to read: NoPath, not an
    IndexError or a row sliced to the wrong length."""
    sc = corpus.make_grid(12, 0.2, seed=12 * 31 + 20)
    with pytest.raises(errors.NoPath):
        search.astar(sc, sc.s_home, goal)
    with pytest.raises(errors.NoPath):
        search.ara_star(sc, sc.s_home, goal)


@pytest.mark.parametrize("off", [(-1, 0), (8, 0), (0, 0, 0)])
def test_refine_refuses_a_seed_state_off_the_lattice(empty8, off):
    """The heuristic has no row entry for a state off the lattice, so a
    seed path through one is refused, not read at a wrapped-around or
    missing index."""
    with pytest.raises(ValueError, match="leaves the lattice"):
        search.anytime_refine(empty8, (0, 0), (1, 0), search.Path(((0, 0), off, (1, 0))))


def test_refine_refuses_a_seed_that_jumps(empty8):
    """An empty 8x8 grid: the seed (0, 0) -> (3, 0) once came back as the
    result, flagged optimal; so did a seed through a blocked cell."""
    with pytest.raises(errors.InvalidPath, match=r"\(0, 0\) -> \(3, 0\) is not one lattice move"):
        search.anytime_refine(empty8, (0, 0), (3, 0), search.Path(((0, 0), (3, 0))))
    blocked = grid(8, obstacles=[cell_rect(1, 0)])
    with pytest.raises(errors.InvalidPath, match=r"\(1, 0\) is in collision"):
        search.anytime_refine(blocked, (0, 0), (2, 0), search.Path(((0, 0), (1, 0), (2, 0))))


# ---------------------------------------------------------------------------
# the heuristic memo


def two_link_arm(limits=None):
    return Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0, 0.8), joints_per_rev=16, joint_limits=limits),
        s_home=(0, 0),
        regions=(RegionSpec("r", (0.5, 0.5, 1.8, 1.8)),),
        obstacles=(Circle((-1.2, -0.6), 0.3), Circle((0.4, -1.4), 0.25)),
    )


# name -> (scenario, goals beyond the spread over the lattice): every
# corpus scenario, the benchmark's 3-link arm, and the cases below
MEMO_SCENARIOS = {
    **{name: (lambda sc=sc: (sc, [])) for name, sc in corpus.corpus()},
    "arm3_s16": lambda: (arm3_s16(), []),
    # goals on both sides of the seam between indices 15 and 0
    "arm16 wrapping": lambda: (two_link_arm(), [(0, 15), (15, 0), (1, 15), (15, 1), (8, 15)]),
    # the first joint is limited to [0, pi), 8 indices; the second wraps
    "arm16 joint-limited": lambda: (two_link_arm(((0.0, math.pi), None)), [(7, 15), (0, 8)]),
    # home collides, so the home-distance table is empty
    "grid8 home collides": lambda: (grid(8, obstacles=[cell_rect(0, 0), cell_rect(3, 3)]), []),
}


def assert_memo_matches_its_definitions(sc, goals):
    """Every lattice state toward each goal: with the home table, the memo
    equals the landmark oracle (the wrapped Manhattan distance raised to
    the landmark bound); without it, ``cspace.heuristic``. Every value is a float, so
    heap keys and inflations do not change."""
    states = list(cspace.lattice_configs(sc))
    free = valid_states(sc)
    distances = bfs_distances(sc, sc.s_home, free) if sc.s_home in free else {}
    for goal in goals:
        oracle = landmark_heuristic(sc, goal, distances)
        with_landmark = search._HeuristicMemo(sc, goal, sc.home_distance)
        manhattan = search._HeuristicMemo(sc, goal)
        for q in states:
            h = with_landmark[q]
            assert type(h) is float and h == oracle(q), (goal, q)
            h = manhattan[q]
            assert type(h) is float and h == cspace.heuristic(sc, q, goal), (goal, q)


@pytest.mark.parametrize("name", MEMO_SCENARIOS)
def test_heuristic_memo_matches_its_definitions(name):
    """A spread of goals over the lattice, its last state, home and the
    case's own goals."""
    sc, extra = MEMO_SCENARIOS[name]()
    states = list(cspace.lattice_configs(sc))
    goals = states[:: len(states) // 9] + [states[-1], sc.s_home] + extra
    assert all(cspace.in_bounds(sc, goal) for goal in goals)
    assert (sc.home_distance == {}) == (name == "grid8 home collides")
    assert_memo_matches_its_definitions(sc, goals)


@settings(max_examples=40, deadline=None)
@given(drawn_arms(), st.data())
def test_heuristic_memo_matches_its_definitions_on_drawn_arms(sc, data):
    """Arms with wrapping and limited joints, toward home and drawn goals."""
    goals = data.draw(st.lists(st.sampled_from(list(cspace.lattice_configs(sc))), max_size=4))
    assert_memo_matches_its_definitions(sc, goals + [sc.s_home])


# ---------------------------------------------------------------------------
# inflation schedule


def max_ratio(g, h, cost, delta=search.DEFAULT_DELTA):
    """``search._max_ratio`` over states given as parallel g and h lists."""
    return search._max_ratio(range(len(g)), g, h, cost, delta)


def test_initial_epsilon_formula():
    eps = max(1.0, max_ratio([0.0, 4.0, 10.0], [6.0, 2.0, 0.0], 10.0, delta=1e-6))
    assert eps == pytest.approx(6.0 / 2.000001)
    assert eps == pytest.approx(3.0, abs=1e-5)


def test_initial_epsilon_goal_never_maximizes():
    # goal term is (C - C) / delta = 0, so a tiny delta cannot blow it up
    eps = max(1.0, max_ratio([0.0, 10.0], [20.0, 0.0], 10.0, delta=1e-9))
    assert eps == 1.0


def test_initial_epsilon_clamped_at_one():
    assert max(1.0, max_ratio([0.0, 5.0, 10.0], [10.0, 5.0, 0.0], 10.0)) == 1.0


def test_next_epsilon_min_of_maxima():
    # path maximum 2.5, open maximum 5.0
    path_ratio = max_ratio([0.0, 5.0], [2.0 - 1e-6, 0.0], 5.0)
    open_ratio = max_ratio([0.0], [1.0 - 1e-6], 5.0)
    assert max(1.0, min(path_ratio, open_ratio)) == pytest.approx(2.5)


def test_next_epsilon_clamp_and_empty_open():
    empty_open = max_ratio([], [], 10.0)
    assert empty_open == math.inf
    assert max(1.0, min(max_ratio([0.0, 10.0], [20.0, 0.0], 10.0), empty_open)) == 1.0  # clamp
    # empty open falls back to the path maximum
    assert max(1.0, min(max_ratio([0.0, 10.0], [2.0, 0.0], 10.0), empty_open)) == pytest.approx(
        10.0 / 2.000001
    )


def test_epsilon_sequence_strictly_decreases():
    """Numeric replay of the strict-decrease argument on a fixed fixture.

    Every open state at the end of an iteration run at eps satisfies
    g + eps*h >= C; feeding those states into the update must produce a
    strictly smaller eps until the clamp at 1.
    """
    rng = random.Random(5)
    states = [(rng.uniform(0.0, 9.0), rng.uniform(0.5, 8.0)) for _ in range(40)]
    path = [(0.0, 6.0), (4.0, 2.0), (10.0, 0.0)]
    cost = 10.0
    path_ratio = max_ratio([g for g, _ in path], [h for _, h in path], cost)
    eps = max(1.0, path_ratio)
    seen = [eps]
    while eps > 1.0:
        open_states = [(g, h) for g, h in states if g + eps * h >= cost]
        open_ratio = max_ratio([g for g, _ in open_states], [h for _, h in open_states], cost)
        eps_next = max(1.0, min(path_ratio, open_ratio))
        assert eps_next < eps or eps_next == 1.0
        assert eps_next < eps
        eps = eps_next
        seen.append(eps)
        assert len(seen) < 500
    assert seen[-1] == 1.0
    assert all(b < a for a, b in zip(seen, seen[1:]))


def test_update_rule_breaks_stalls():
    """After an unimproved iteration (C and path unchanged), re-running the
    initialization rule would repeat the same inflation; taking the min
    with the open-list maximum is what forces progress."""
    path_g, path_h = [0.0, 4.0, 10.0], [6.0, 2.0, 0.0]
    cost = 10.0
    eps = max(1.0, max_ratio(path_g, path_h, cost))
    again = max(1.0, max_ratio(path_g, path_h, cost))
    assert again == eps  # the stall the update rule must avoid
    open_g, open_h = [1.0, 3.0], [5.0, 4.0]
    assert all(g + eps * h >= cost for g, h in zip(open_g, open_h))
    nxt = max(1.0, min(max_ratio(path_g, path_h, cost), max_ratio(open_g, open_h, cost)))
    assert nxt < eps


def test_refine_mid_iteration_interruption_is_safe(empty8):
    """A deadline landing inside an iteration keeps a valid incumbent."""
    init = detour_path(empty8, (7, 0), (0, 7), via=(0, 0))
    calls = [0]

    def choppy_clock():
        calls[0] += 1
        return float(calls[0])

    for cutoff in (3, 5, 9, 14, 20):
        calls[0] = 0
        refined, report = search.anytime_refine(
            empty8, (7, 0), (0, 7), init, deadline=float(cutoff), clock=choppy_clock
        )
        assert refined.configs[0] == (7, 0) and refined.configs[-1] == (0, 7)
        assert refined.cost <= init.cost
        assert search.path_is_valid(empty8, refined)
        eh = report.epsilon_history
        assert all(b < a for a, b in zip(eh, eh[1:]))


def test_expansion_guarantee_at_maximizer():
    """When the update yields eps > 1, the maximizing state beats C."""
    rng = random.Random(11)
    for _ in range(200):
        pairs = [(rng.uniform(0, 20), rng.uniform(0.1, 10)) for _ in range(6)]
        cost = rng.uniform(5, 40)
        eps = max(1.0, max_ratio([g for g, _ in pairs], [h for _, h in pairs], cost))
        if eps <= 1.0:
            continue
        best = max(pairs, key=lambda gh: (cost - gh[0]) / (gh[1] + search.DEFAULT_DELTA))
        g, h = best
        assert g + eps * h < cost


# ---------------------------------------------------------------------------
# anytime refinement


def detour_path(sc, start, goal, via):
    """Initial path start -> via -> goal built from two optimal legs."""
    a = search.astar(sc, start, via)
    b = search.astar(sc, via, goal)
    return search.concat_paths(a, b)


def test_refine_converges_to_astar_cost(empty8):
    init = detour_path(empty8, (7, 0), (0, 7), via=(0, 0))
    refined, report = search.anytime_refine(empty8, (7, 0), (0, 7), init)
    assert refined.cost == search.astar(empty8, (7, 0), (0, 7)).cost
    assert report.optimal_flag
    assert report.epsilon_history[-1] == 1.0


def test_refine_zero_budget_returns_initial(empty8):
    init = detour_path(empty8, (7, 0), (0, 7), via=(0, 0))
    t = [0.0]
    refined, report = search.anytime_refine(
        empty8, (7, 0), (0, 7), init, deadline=0.0, clock=lambda: 1.0
    )
    assert refined.configs == init.configs
    assert report.iterations == []
    assert not report.optimal_flag


def test_refine_certifies_a_seed_at_the_lower_bound(empty8):
    """A seed that costs h(start) is optimal: the run records the inflation-1
    pass, with no expansion and no collision check, but only if the
    deadline, checked once more as that pass would, has not passed."""
    init = search.astar(empty8, (7, 0), (0, 7))  # 14 steps, the Manhattan distance
    empty8.counters.reset()
    refined, report = search.anytime_refine(empty8, (7, 0), (0, 7), init)
    assert refined.configs == init.configs and report.optimal_flag
    assert [(it.epsilon, it.cost, it.expansions) for it in report.iterations] == [(1.0, 14.0, 0)]
    assert [p.configs for p in report.incumbents] == [init.configs]
    assert (empty8.counters.expansions, empty8.counters.collision_checks) == (0, 0)

    reads = iter([0.0])  # the deadline passes after the first clock read
    refined, report = search.anytime_refine(
        empty8, (7, 0), (0, 7), init, deadline=1.0, clock=lambda: next(reads, 1.0)
    )
    assert refined.configs == init.configs
    assert report.iterations == [] and not report.optimal_flag


def test_refine_detour_strictly_improves(empty8):
    init = detour_path(empty8, (7, 0), (0, 7), via=(0, 0))  # L through the corner
    assert init.cost == 14.0
    refined, report = search.anytime_refine(empty8, (7, 0), (0, 7), init)
    assert refined.cost == 14.0  # Manhattan (7,0)->(0,7) is already 14
    init2 = detour_path(empty8, (7, 7), (5, 5), via=(0, 0))
    refined2, report2 = search.anytime_refine(empty8, (7, 7), (5, 5), init2)
    assert refined2.cost == 4.0
    assert refined2.cost < init2.cost
    assert search.path_is_valid(empty8, refined2)


def test_refine_monotone_schedule_and_costs():
    for seed in range(20):
        sc = random_grid(12, 0.25, seed + 100)
        dist = bfs_distances(sc, (0, 0))
        reach = sorted(dist)
        goal = reach[len(reach) // 2]
        via = reach[-1]
        if goal == (0, 0) or via in ((0, 0), goal):
            continue
        try:
            init = detour_path(sc, (0, 0), goal, via=via)
        except errors.NoPath:
            continue
        refined, report = search.anytime_refine(sc, (0, 0), goal, init)
        eh = report.epsilon_history
        assert all(b < a for a, b in zip(eh, eh[1:]))
        assert eh[-1] == 1.0
        costs = [it.cost for it in report.iterations]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert refined.cost == dist[goal]
        assert report.optimal_flag
        # above inflation 1 at least one sub-incumbent state is selected
        # before the goal can come off the open list
        for it in report.iterations:
            if it.epsilon > 1.0:
                assert it.selections >= 1
            assert it.selections == it.expansions  # no selection skips its scan


def test_refine_never_worse_than_initial():
    for seed in range(10):
        sc = random_grid(10, 0.3, seed + 40)
        dist = bfs_distances(sc, (0, 0))
        goals = sorted(dist)[-3:]
        for goal in goals:
            init = search.astar(sc, (0, 0), goal, weight=8.0)
            refined, _ = search.anytime_refine(sc, (0, 0), goal, init)
            assert refined.cost <= init.cost


def test_refine_single_state_path(empty8):
    p = search.Path(((3, 3),))
    refined, report = search.anytime_refine(empty8, (3, 3), (3, 3), p)
    assert refined.configs == ((3, 3),)
    assert report.optimal_flag
    assert report.epsilon_history == []


def test_refine_matches_literal_reference():
    """Differential check: the engine (lazy heaps, memoized heuristic,
    incumbent kept between passes) must reproduce the plain reference
    loop's records, incumbents and path exactly, under the same landmark
    heuristic."""
    from coverplan import ArmModel, RegionSpec, Scenario
    from oracles import landmark_heuristic, reference_refine

    cases = []
    for seed in range(10):
        sc = random_grid(10, 0.22, seed + 300)
        dist = bfs_distances(sc, (0, 0))
        reach = sorted(dist)
        rng = random.Random(seed)
        goal = reach[rng.randrange(1, len(reach))]
        via = reach[rng.randrange(1, len(reach))]
        if via in ((0, 0), goal):
            continue
        cases.append((sc, (0, 0), goal, via))
    arm = Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0, 0.8), joints_per_rev=12),
        s_home=(0, 0),
        regions=(RegionSpec("r", (-1.8, -1.8, 1.8, 1.8)),),
        obstacles=(),
    )
    cases.append((arm, (0, 0), (6, 6), (9, 2)))

    compared = 0
    for sc, start, goal, via in cases:
        try:
            init = detour_path(sc, start, goal, via=via)
        except errors.NoPath:
            continue
        refined, report = search.anytime_refine(sc, start, goal, init)
        records = [(it.epsilon, it.cost, it.expansions, it.selections) for it in report.iterations]
        incumbents = [p.configs for p in report.incumbents]
        ref = reference_refine(sc, start, goal, init, landmark_heuristic(sc, goal))
        assert (refined.configs, records, incumbents, report.optimal_flag) == ref, (goal, via)
        compared += 1
    assert compared >= 8


def test_refine_deadline_compliance():
    """Returns within deadline plus one expansion's worth of slack."""
    sc = random_grid(24, 0.2, 9)
    dist = bfs_distances(sc, (0, 0))
    goal = sorted(dist)[-1]
    via = sorted(dist)[len(dist) // 2]
    init = detour_path(sc, (0, 0), goal, via=via)
    budget = 0.02
    t0 = time.monotonic()
    search.anytime_refine(sc, (0, 0), goal, init, deadline=t0 + budget)
    elapsed = time.monotonic() - t0
    assert elapsed < budget + 0.005


# ---------------------------------------------------------------------------
# baselines


def test_ara_star_first_iteration_bound():
    sc = wall_grid()
    opt = search.astar(sc, (0, 0), (7, 0)).cost
    path, profile, optimal = search.ara_star(sc, (0, 0), (7, 0))
    assert profile[0].weight == search.ARA_W0
    assert profile[0].cost <= search.ARA_W0 * opt
    assert path.cost == opt
    assert optimal


def test_ara_star_unlimited_matches_oracle():
    for seed in range(5):
        sc = random_grid(10, 0.25, seed + 7)
        dist = bfs_distances(sc, (0, 0))
        goal = sorted(dist)[-1]
        path, profile, optimal = search.ara_star(sc, (0, 0), goal)
        assert path.cost == dist[goal]
        assert optimal
        costs = [it.cost for it in profile]
        assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_ara_star_zero_deadline_times_out(empty8):
    with pytest.raises(errors.Timeout):
        search.ara_star(empty8, (0, 0), (7, 7), deadline=0.0, clock=lambda: 1.0)


def test_shortcut_flattens_detour(empty8):
    init = detour_path(empty8, (5, 0), (0, 5), via=(0, 0))
    out = search.shortcut_path(empty8, init, seed=3)
    assert out.cost == 10.0  # lattice distance between the endpoints
    assert out.configs[0] == (5, 0) and out.configs[-1] == (0, 5)
    assert search.path_is_valid(empty8, out)


def test_shortcut_keeps_optimal_path(empty8):
    init = search.astar(empty8, (0, 0), (7, 7))
    out = search.shortcut_path(empty8, init, seed=1)
    assert out.cost == init.cost


def test_shortcut_deterministic(empty8):
    init = detour_path(empty8, (7, 0), (0, 7), via=(0, 0))
    a = search.shortcut_path(empty8, init, seed=42)
    b = search.shortcut_path(empty8, init, seed=42)
    assert a.configs == b.configs


def test_shortcut_across_wrap_boundary():
    """Shortcutting on a wrapped joint lattice may cross index 0."""
    from coverplan import ArmModel, RegionSpec, Scenario

    sc = Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0,), joints_per_rev=16),
        s_home=(0,),
        regions=(RegionSpec("r", (-2.0, -2.0, 2.0, 2.0)),),
    )
    # the long way around from index 2 to index 14 (12 steps vs 4 wrapped)
    the_long_way = search.Path(tuple((i,) for i in range(2, 15)))
    out = search.shortcut_path(sc, the_long_way, seed=5)
    assert out.cost == 4.0
    assert out.configs[0] == (2,) and out.configs[-1] == (14,)
    assert search.path_is_valid(sc, out)


def test_shortcut_drops_loops_through_a_repeated_state(empty8):
    """A span whose endpoints are one state is spliced out, not kept as a self-edge.

    A counting clock reads 0, 1, 2, ... at the checks before each trial, so
    deadline k stops the run after k trials; None runs to the patience."""
    looped = search.Path(((0, 0), (1, 0), (1, 1), (1, 0), (2, 0)))
    for deadline in (1, 2, 3, 5, None):
        for seed in range(200):
            clock = itertools.count().__next__
            out = search.shortcut_path(empty8, looped, seed=seed, deadline=deadline, clock=clock)
            assert search.path_is_valid(empty8, out), (seed, deadline)
            assert out.configs[0] == (0, 0) and out.configs[-1] == (2, 0)


def test_shortcut_respects_obstacles():
    sc = wall_grid()
    init = search.astar(sc, (0, 0), (7, 0), weight=5.0)
    out = search.shortcut_path(sc, init, seed=0)
    assert search.path_is_valid(sc, out)
    assert out.cost >= bfs_distances(sc, (0, 0))[(7, 0)]


@pytest.mark.parametrize(
    "configs",
    [
        ((0, 0), (3, 0)),
        ((0, 0), (3, 0), (3, 1), (3, 2)),
        ((0, 0), (0, 1), (9, 9)),
    ],
)
def test_shortcut_refuses_an_invalid_path(empty8, configs):
    """Each of these paths is too short or too straight for a trial to
    change it, so it once came back unchanged and still invalid."""
    with pytest.raises(errors.InvalidPath):
        search.shortcut_path(empty8, search.Path(configs), seed=0)


# ---------------------------------------------------------------------------
# path helpers


def test_concat_requires_junction(empty8):
    a = search.astar(empty8, (0, 0), (2, 0))
    b = search.astar(empty8, (3, 0), (5, 0))
    with pytest.raises(ValueError):
        search.concat_paths(a, b)


def test_reverse_round_trip(empty8):
    p = search.astar(empty8, (0, 0), (3, 4))
    assert p.reverse().reverse().configs == p.configs
    assert search.path_is_valid(empty8, p.reverse())


def test_path_is_valid_rejects_jumps(empty8):
    assert not search.path_is_valid(empty8, search.Path(((0, 0), (2, 0))))


def test_path_is_valid_makes_no_counted_check(empty8):
    """Re-validation reads the tables: no collision check reaches a SimClock."""
    path = search.astar(empty8, (0, 0), (3, 4))
    before = empty8.counters.snapshot()
    assert search.path_is_valid(empty8, path)
    assert not search.path_is_valid(empty8, search.Path(((0, 0), (-1, 0))))
    assert empty8.counters.snapshot() == before


def test_path_defect_calls_in_bounds_only_off_the_typed_path(empty8, monkeypatch):
    """A path of tuples of ints passes the type pass and calls
    ``in_bounds`` on no state; a path with one float state calls it on
    each state up to and including that one, where the walk stops."""
    calls = []
    in_bounds = cspace.in_bounds

    def counting(scenario, q):
        calls.append(q)
        return in_bounds(scenario, q)

    monkeypatch.setattr(cspace, "in_bounds", counting)
    typed = ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
    assert search._path_defect(empty8, search.Path(typed)) is None
    assert calls == []
    for k in range(len(typed)):
        calls.clear()
        configs = typed[:k] + (tuple(map(float, typed[k])),) + typed[k + 1 :]
        defect = search._path_defect(empty8, search.Path(configs))
        assert defect == f"path state {configs[k]} leaves the lattice"
        assert calls == list(configs[: k + 1])
