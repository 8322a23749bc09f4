import dataclasses
import time

import pytest

from conftest import cell_rect, grid
from coverplan import Circle, RegionSpec, corpus, cspace, errors
from coverplan import cover as pre
from coverplan import online as onl
from coverplan.search import astar, path_is_valid


@pytest.fixture
def fitted12(two_region_grid12):
    sc = two_region_grid12
    return sc, pre.preprocess(sc, seed=0)


def test_find_rep_path_attractor(fitted12):
    sc, lib = fitted12
    entry = lib.regions[0].entries[0]
    hit = onl.find_rep_path(lib, entry.attractor)
    assert hit is not None
    assert hit.entry is entry
    assert hit.entry.rep_path is entry.rep_path


def test_find_rep_path_uncovered_and_excluded():
    region = RegionSpec("locked", (6.0, 6.0, 8.0, 8.0))
    sc = grid(8, regions=(region,), obstacles=[cell_rect(5, j) for j in range(8)])
    lib = pre.preprocess(sc)
    assert onl.find_rep_path(lib, (6, 6)) is None  # excluded
    assert onl.find_rep_path(lib, (2, 2)) is None  # outside every region


def test_find_rep_path_overlap_prefers_lowest_entry(fitted12):
    sc, lib = fitted12
    rc = lib.regions[0]
    # Duplicate the first entry behind itself: overlap resolves to index 0.
    doubled = pre.RegionCover(
        region_id=rc.region_id,
        entries=(rc.entries[0],) + rc.entries,
        covered=rc.covered,
        excluded=rc.excluded,
    )
    lib2 = pre.Library(fingerprint=lib.fingerprint, s_home=lib.s_home, regions=(doubled,))
    hit = onl.find_rep_path(lib2, rc.entries[0].attractor)
    assert hit.entry_index == 0


def test_connect_at_attractor_returns_rep_path(fitted12):
    sc, lib = fitted12
    entry = lib.regions[0].entries[0]
    path = onl.connect(entry, entry.attractor)
    assert path.configs == entry.rep_path.configs


def test_connect_one_step_neighbor(fitted12):
    sc, lib = fitted12
    entry = lib.regions[0].entries[0]
    att = entry.attractor
    neighbors = [
        q for q in cspace.lattice_neighbors(sc, att)
        if q in entry.members and q not in entry.rep_path.configs
    ]
    if not neighbors:
        pytest.skip("attractor has no off-path member neighbor in this fixture")
    q = neighbors[0]
    path = onl.connect(entry, q)
    assert path.configs == entry.rep_path.configs + (q,)


def test_connect_zero_collision_checks(fitted12):
    sc, lib = fitted12
    entry = lib.regions[0].entries[0]
    goals = sorted(lib.regions[0].covered)
    before = sc.counters.collision_checks
    for q in goals:
        if q in entry.members:
            onl.connect(entry, q)
    assert sc.counters.collision_checks == before


def tampered(entry, edits):
    """The entry with its descent pointers edited: q -> target, or removed for None."""
    pointers = dict(entry.next_member)
    for q, target in edits.items():
        if target is None:
            del pointers[q]
        else:
            pointers[q] = target
    return dataclasses.replace(entry, next_member=pointers)


def two_step_goal(rc, entry):
    """A covered member whose descent takes at least two moves, and its next state."""
    pointers = entry.next_member
    for q in sorted(entry.members & rc.covered, reverse=True):
        if q != entry.attractor and pointers[q] != entry.attractor:
            return q, pointers[q]
    raise AssertionError("no covered member two moves from its attractor")


def test_connect_stalled_on_tampered_members(fitted12):
    """Tampered descent pointers signal a stale library: a missing pointer
    stalls the chase, and a pointer cycle, like any chase longer than
    max_descent_steps, is cut off at that bound."""
    sc, lib = fitted12
    rc = lib.regions[0]
    entry = rc.entries[0]
    q, nxt = two_step_goal(rc, entry)
    assert onl.connect(entry, q).configs[-1] == q
    for edits in ({nxt: None}, {nxt: q}):
        with pytest.raises(errors.DescentStalled):
            onl.connect(tampered(entry, edits), q)
    # the chase may take exactly the recorded bound, and no more
    steps, cur = 0, q
    while cur != entry.attractor:
        cur = entry.next_member[cur]
        steps += 1
    exact = dataclasses.replace(entry, max_descent_steps=steps)
    assert onl.connect(exact, q) == onl.connect(entry, q)
    short = dataclasses.replace(entry, max_descent_steps=steps - 1)
    with pytest.raises(errors.DescentStalled):
        onl.connect(short, q)


def test_descend_detects_post_hoc_obstacle(fitted12):
    """Validity-mode descent sees an obstacle added after preprocessing: the
    walk stalls, or runs longer than the entry's step bound."""
    sc, lib = fitted12
    entry = lib.regions[0].entries[0]
    goals = [q for q in sorted(entry.members & lib.regions[0].covered) if q != entry.attractor]
    q = goals[-1]
    down = pre.descend(sc, q, entry.attractor)
    block = down.configs[1]
    changed = grid(
        12,
        home=sc.s_home,
        regions=sc.regions,
        obstacles=list(sc.obstacles) + [cell_rect(*block)],
    )
    try:
        walk = pre.descend(changed, q, entry.attractor)
    except errors.DescentStalled:
        return
    assert len(walk.configs) - 1 > entry.max_descent_steps


# ---------------------------------------------------------------------------
# query


def test_query_home_to_attractor_is_rep_path(fitted12):
    sc, lib = fitted12
    entry = lib.regions[0].entries[0]
    res = onl.query(
        sc, lib, onl.QueryRequest(start=sc.s_home, goal=entry.attractor, refine=False)
    )
    assert res.path.configs == entry.rep_path.configs
    assert res.initial_cost == entry.rep_path.cost


def test_query_concatenation_arithmetic(fitted12):
    """Unrefined pick->place queries pass through home: cost is the sum of
    the two half-paths."""
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    start = sorted(lib.regions[0].covered)[0]
    goal = sorted(lib.regions[1].covered)[0]
    res = onl.query(sc, lib, onl.QueryRequest(start=start, goal=goal, refine=False), index=index)
    half_start = onl.path_home_to(index, start)
    half_goal = onl.connect(onl.find_rep_path(lib, goal).entry, goal)
    assert res.initial_cost == half_start.cost + half_goal.cost
    assert sc.s_home in res.path.configs
    assert res.path.configs[0] == start and res.path.configs[-1] == goal


def test_query_refine_reaches_oracle(fitted12):
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    start = sorted(lib.regions[0].covered)[0]
    goal = sorted(lib.regions[1].covered)[0]
    res = onl.query(
        sc, lib, onl.QueryRequest(start=start, goal=goal, budget_ms=2000.0), index=index
    )
    oracle = astar(sc, start, goal).cost
    assert res.final_cost == oracle
    assert res.final_cost < res.initial_cost
    assert res.optimal_flag


def test_home_start_without_an_index_builds_none(fitted12, monkeypatch):
    """The CLI's query, from home with no index, builds no
    PotentialStateIndex; a start elsewhere builds one to look it up."""
    sc, lib = fitted12
    built = []

    class Counted(onl.PotentialStateIndex):
        def __init__(self, scenario, library):
            built.append(library)
            super().__init__(scenario, library)

    monkeypatch.setattr(onl, "PotentialStateIndex", Counted)
    goal = sorted(lib.regions[1].covered)[0]
    onl.query(sc, lib, onl.QueryRequest(start=sc.s_home, goal=goal, refine=False))
    assert built == []
    start = sorted(lib.regions[0].covered)[0]
    onl.query(sc, lib, onl.QueryRequest(start=start, goal=goal, refine=False))
    assert built == [lib]


def test_query_refuses_an_index_of_another_library():
    """grid8_d00 and grid8_d10 share their lattice and home and both cover
    (5, 2) and (5, 6). With an index of the first that has registered a
    plan to (5, 2), a query on the second from there to (5, 6) went back
    along the first's path, which crosses an obstacle of the second; an
    index of another library is now refused."""
    scenarios = dict(corpus.corpus())
    sc_a, sc_b = scenarios["grid8_d00"], scenarios["grid8_d10"]
    lib_a, lib_b = pre.preprocess(sc_a, seed=0), pre.preprocess(sc_b, seed=0)
    index = onl.PotentialStateIndex(sc_a, lib_a)
    first = onl.query(sc_a, lib_a, onl.QueryRequest(sc_a.s_home, (5, 2), refine=False), index=index)
    onl.update_potential_index(index, first.path)
    assert not path_is_valid(sc_b, first.path)
    request = onl.QueryRequest(start=(5, 2), goal=(5, 6), refine=False)
    with pytest.raises(ValueError, match="another library"):
        onl.query(sc_b, lib_b, request, index=index)
    with pytest.raises(ValueError, match="another library"):
        onl.query(sc_a, pre.preprocess(sc_a, seed=0), request, index=index)
    assert path_is_valid(sc_b, onl.query(sc_b, lib_b, request).path)


def test_query_goal_uncovered(fitted12):
    sc, lib = fitted12
    with pytest.raises(errors.GoalUncovered):
        onl.query(sc, lib, onl.QueryRequest(start=sc.s_home, goal=(5, 5)))


def test_query_request_rejects_bad_budget():
    for budget in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            onl.QueryRequest(start=(0, 0), goal=(1, 1), budget_ms=budget)


def test_query_start_not_potential(fitted12):
    sc, lib = fitted12
    goal = sorted(lib.regions[0].covered)[0]
    with pytest.raises(errors.StartNotPotential):
        onl.query(sc, lib, onl.QueryRequest(start=(5, 5), goal=goal))


def test_query_stale_library_propagation(fitted12):
    sc, lib = fitted12
    rc = lib.regions[0]
    entry = rc.entries[0]
    q, nxt = two_step_goal(rc, entry)
    for edits in ({nxt: None}, {nxt: q}):
        lib2 = pre.Library(
            fingerprint=lib.fingerprint,
            s_home=lib.s_home,
            regions=(
                pre.RegionCover(
                    rc.region_id,
                    (tampered(entry, edits),) + rc.entries[1:],
                    rc.covered,
                    rc.excluded,
                ),
            )
            + lib.regions[1:],
        )
        with pytest.raises(errors.StaleLibrary):
            onl.query(sc, lib2, onl.QueryRequest(start=sc.s_home, goal=q))


# ---------------------------------------------------------------------------
# potential-state index


def test_path_home_to_home(fitted12):
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    path = onl.path_home_to(index, sc.s_home)
    assert path.configs == (sc.s_home,) and path.cost == 0.0


def test_path_home_to_rep_path_prefix(fitted12):
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    rep = lib.regions[0].entries[0].rep_path
    s = rep.configs[2]
    path = onl.path_home_to(index, s)
    assert path.configs == rep.configs[:3]


def test_path_home_to_goal_region_matches_connect(fitted12):
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    rc = lib.regions[1]
    on_rep = set()
    for reg in lib.regions:
        for e in reg.entries:
            on_rep |= set(e.rep_path.configs)
    candidates = sorted(rc.covered - on_rep)
    if not candidates:
        pytest.skip("every covered state lies on a representative path")
    s = candidates[0]
    via_index = onl.path_home_to(index, s)
    via_connect = onl.connect(onl.find_rep_path(lib, s).entry, s)
    assert via_index.configs == via_connect.configs


def test_update_potential_index_enables_sequential_starts(fitted12):
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    goal_a = sorted(lib.regions[0].covered)[0]
    res = onl.query(sc, lib, onl.QueryRequest(start=sc.s_home, goal=goal_a), index=index)
    onl.update_potential_index(index, res.path)

    # next query may start at the previous goal
    goal_b = sorted(lib.regions[1].covered)[0]
    res2 = onl.query(sc, lib, onl.QueryRequest(start=goal_a, goal=goal_b), index=index)
    assert res2.path.configs[0] == goal_a

    # and at any mid-path state of the executed path
    mid = res.path.configs[len(res.path.configs) // 2]
    res3 = onl.query(sc, lib, onl.QueryRequest(start=mid, goal=goal_b), index=index)
    assert res3.path.configs[0] == mid

    # but never from an unvisited config
    never_visited = [q for q in cspace.lattice_configs(sc) if q not in index]
    assert never_visited
    with pytest.raises(errors.StartNotPotential):
        onl.query(sc, lib, onl.QueryRequest(start=never_visited[0], goal=goal_b), index=index)


def test_chained_start_reads_the_anchor(two_region_grid12, monkeypatch):
    """A no-refine query from the end of the last executed path takes its
    home path from the stored anchor: ``connect`` runs once, for the goal,
    though the start is a covered goal off every rep path, which the
    lookup order would chase again."""
    from coverplan import CoverPlanner

    planner = CoverPlanner(seed=0).fit(two_region_grid12)
    rep_states = planner.index_.rep_states
    pick, place = (min(rc.covered - rep_states.keys()) for rc in planner.library_.regions)
    planner.register_executed(planner.plan(pick, refine=False).path)
    calls = []
    connect = onl.connect

    def counted(entry, q):
        calls.append(q)
        return connect(entry, q)

    monkeypatch.setattr(onl, "connect", counted)
    res = planner.plan(place, start=pick, refine=False)
    assert calls == [place]
    assert res.path.start == pick and res.path.goal == place


def test_executed_mid_path_home_route_is_valid(fitted12):
    from coverplan.search import path_is_valid

    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    goal_a = sorted(lib.regions[0].covered)[-1]
    res = onl.query(sc, lib, onl.QueryRequest(start=sc.s_home, goal=goal_a), index=index)
    onl.update_potential_index(index, res.path)
    for k in range(0, len(res.path.configs), 3):
        s = res.path.configs[k]
        path = onl.path_home_to(index, s)
        assert path.configs[0] == sc.s_home and path.configs[-1] == s
        assert path_is_valid(sc, path)


# ---------------------------------------------------------------------------
# constant-time contract


def obstacle_flooded_variant(sc, extra: int):
    """Same lattice validity, many more obstacles (all far outside)."""
    far = [Circle(center=(1000.0 + 3.0 * k, -500.0), radius=1.0) for k in range(extra)]
    return grid(12, home=sc.s_home, regions=sc.regions, obstacles=list(sc.obstacles) + far)


def test_query_zero_checks_zero_expansions(fitted12):
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    start = sorted(lib.regions[0].covered)[0]
    goal = sorted(lib.regions[1].covered)[0]
    sc.counters.reset()
    res = onl.query(sc, lib, onl.QueryRequest(start=start, goal=goal, refine=False), index=index)
    checks, expansions, steps = sc.counters.snapshot()
    assert checks == 0
    assert expansions == 0
    assert steps == len(res.path.configs)


def test_query_elementary_bound(fitted12):
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    hit_goal = onl.find_rep_path(lib, sorted(lib.regions[1].covered)[0])
    hit_start = onl.find_rep_path(lib, sorted(lib.regions[0].covered)[0])
    bound = (
        len(hit_start.entry.rep_path.configs)
        + len(hit_goal.entry.rep_path.configs)
        + hit_start.entry.max_descent_steps
        + hit_goal.entry.max_descent_steps
    )
    sc.counters.reset()
    onl.query(
        sc,
        lib,
        onl.QueryRequest(
            start=sorted(lib.regions[0].covered)[0],
            goal=sorted(lib.regions[1].covered)[0],
            refine=False,
        ),
        index=index,
    )
    assert sc.counters.elementary_steps <= bound


def test_query_step_count_independent_of_obstacles(fitted12):
    sc, lib = fitted12
    counts = {}
    for extra in (0, 499):
        variant = obstacle_flooded_variant(sc, extra)
        vlib = pre.preprocess(variant, seed=0)
        index = onl.PotentialStateIndex(variant, vlib)
        start = sorted(vlib.regions[0].covered)[0]
        goal = sorted(vlib.regions[1].covered)[0]
        variant.counters.reset()
        onl.query(
            variant, vlib, onl.QueryRequest(start=start, goal=goal, refine=False), index=index
        )
        counts[extra] = variant.counters.snapshot()
    assert counts[0] == counts[499]
    assert counts[0][0] == 0 and counts[0][1] == 0


def test_query_wall_time_under_10ms(fitted12):
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    start = sorted(lib.regions[0].covered)[0]
    goal = sorted(lib.regions[1].covered)[0]
    request = onl.QueryRequest(start=start, goal=goal, refine=False)
    onl.query(sc, lib, request, index=index)  # warm caches
    t0 = time.perf_counter()
    onl.query(sc, lib, request, index=index)
    assert time.perf_counter() - t0 < 0.010


def test_all_potential_to_all_covered_succeed():
    """Any covered goal is reachable in constant time from any potential state."""
    sc = grid(
        8,
        home=(0, 4),
        regions=(
            RegionSpec("pick", (6.0, 0.0, 8.0, 2.0)),
            RegionSpec("place", (6.0, 6.0, 8.0, 8.0)),
        ),
        obstacles=[cell_rect(3, 3), cell_rect(3, 4)],
    )
    lib = pre.preprocess(sc, seed=0)
    index = onl.PotentialStateIndex(sc, lib)
    potentials = [q for q in cspace.lattice_configs(sc) if q in index]
    goals = sorted(set().union(*(rc.covered for rc in lib.regions)))
    for s in potentials:
        for goal in goals:
            res = onl.query(sc, lib, onl.QueryRequest(start=s, goal=goal, refine=False), index=index)
            assert res.path.configs[0] == s and res.path.configs[-1] == goal


def test_constant_time_contract_randomized_sweep():
    """Counters stay at zero checks/expansions across random scenarios,
    potential starts and covered goals."""
    import random

    from coverplan import corpus

    rng = random.Random(17)
    for name in ("grid16_d20", "arm24_o2", "grid24_d30"):
        sc = dict(corpus.corpus())[name]
        lib = pre.preprocess(sc, seed=0)
        index = onl.PotentialStateIndex(sc, lib)
        potentials = sorted(q for q in cspace.lattice_configs(sc) if q in index)
        goals = sorted(set().union(*(rc.covered for rc in lib.regions)))
        for _ in range(25):
            s = potentials[rng.randrange(len(potentials))]
            g = goals[rng.randrange(len(goals))]
            sc.counters.reset()
            res = onl.query(sc, lib, onl.QueryRequest(start=s, goal=g, refine=False), index=index)
            checks, expansions, steps = sc.counters.snapshot()
            assert checks == 0 and expansions == 0, (name, s, g)
            assert steps == len(res.path.configs)


def test_refinement_never_worsens(fitted12):
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    goals = sorted(lib.regions[1].covered)
    starts = sorted(lib.regions[0].covered)
    for s, g in zip(starts[:5], goals[:5]):
        res = onl.query(sc, lib, onl.QueryRequest(start=s, goal=g, budget_ms=500.0), index=index)
        assert res.final_cost <= res.initial_cost
