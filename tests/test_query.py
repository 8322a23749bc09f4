import dataclasses
import re
import sys
import threading
import time

import pytest

from conftest import cell_rect, grid, record_start_reads
from coverplan import Circle, CoverPlanner, RegionSpec, corpus, cspace, errors
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
    assert onl.find_rep_path(lib, entry.attractor) is entry


def test_find_rep_path_uncovered_and_excluded():
    region = RegionSpec("locked", (6.0, 6.0, 8.0, 8.0))
    sc = grid(8, regions=(region,), obstacles=[cell_rect(5, j) for j in range(8)])
    lib = pre.preprocess(sc)
    assert onl.find_rep_path(lib, (6, 6)) is None  # excluded
    assert onl.find_rep_path(lib, (2, 2)) is None  # outside every region


def test_find_rep_path_overlap_prefers_lowest_entry(fitted12):
    sc, lib = fitted12
    rc = lib.regions[0]
    # Put a copy of the first entry in front of it: overlap resolves to the copy.
    copy = dataclasses.replace(rc.entries[0])
    assert copy == rc.entries[0] and copy is not rc.entries[0]
    doubled = pre.RegionCover(
        region_id=rc.region_id,
        entries=(copy,) + rc.entries,
        covered=rc.covered,
        excluded=rc.excluded,
    )
    lib2 = pre.Library(fingerprint=lib.fingerprint, s_home=lib.s_home, regions=(doubled,))
    assert onl.find_rep_path(lib2, rc.entries[0].attractor) is copy


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
    """The entry with its home paths edited: q -> path, or removed for None."""
    paths = dict(entry.home_paths)
    for q, path in edits.items():
        if path is None:
            del paths[q]
        else:
            paths[q] = path
    return dataclasses.replace(entry, home_paths=paths)


def two_step_goal(rc, entry):
    """A covered member whose descent takes at least two moves, and its next state."""
    rep = entry.rep_path.configs
    for q in sorted(entry.members & rc.covered, reverse=True):
        path = entry.home_paths[q]
        if len(path) >= len(rep) + 2:
            return q, path[-2]
    raise AssertionError("no covered member two moves from its attractor")


def stale_edits(entry, q, nxt):
    """Home paths of q that a stale entry might hold: its next state's, as
    if its last move were lost, and its own run one state past q."""
    return ({q: entry.home_paths[q][:-1]}, {q: entry.home_paths[q] + (nxt,)})


def test_connect_stalled_on_tampered_members(fitted12):
    """Tampered home paths signal a stale library: an entry whose stored
    path of a member ends elsewhere is refused with StaleLibrary when it
    is built, by the constructor and by ``dataclasses.replace`` alike, so
    connect never sees one; a state with no stored path is no member."""
    sc, lib = fitted12
    rc = lib.regions[0]
    entry = rc.entries[0]
    q, nxt = two_step_goal(rc, entry)
    assert onl.connect(entry, q).configs[-1] == q
    for edits in stale_edits(entry, q, nxt):
        paths = {**entry.home_paths, **edits}
        with pytest.raises(errors.StaleLibrary, match=re.escape(f"home path of {q} ends at")):
            pre.CoverEntry(paths, entry.max_descent_steps, entry.rep_path)
        with pytest.raises(errors.StaleLibrary, match=re.escape(f"home path of {q} ends at")):
            tampered(entry, edits)
    with pytest.raises(ValueError, match="not a member"):
        onl.connect(tampered(entry, {q: None}), q)


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
# plan on a bound library


def test_query_home_to_attractor_is_rep_path(fitted12):
    sc, lib = fitted12
    entry = lib.regions[0].entries[0]
    res = CoverPlanner.from_library(sc, lib).plan(entry.attractor, sc.s_home, refine=False)
    assert res.path.configs == entry.rep_path.configs
    assert res.initial_cost == entry.rep_path.cost


def test_query_concatenation_arithmetic(fitted12):
    """Unrefined pick->place queries pass through home: cost is the sum of
    the two half-paths."""
    sc, lib = fitted12
    planner = CoverPlanner.from_library(sc, lib)
    start = sorted(lib.regions[0].covered)[0]
    goal = sorted(lib.regions[1].covered)[0]
    res = planner.plan(goal, start, refine=False)
    half_start = onl.path_home_to(planner.index_, start)
    half_goal = onl.connect(onl.find_rep_path(lib, goal), goal)
    assert res.initial_cost == half_start.cost + half_goal.cost
    assert sc.s_home in res.path.configs
    assert res.path.configs[0] == start and res.path.configs[-1] == goal


def test_query_refine_reaches_oracle(fitted12):
    sc, lib = fitted12
    start = sorted(lib.regions[0].covered)[0]
    goal = sorted(lib.regions[1].covered)[0]
    res = CoverPlanner.from_library(sc, lib).plan(goal, start, budget_ms=2000.0)
    oracle = astar(sc, start, goal).cost
    assert res.final_cost == oracle
    assert res.final_cost < res.initial_cost
    assert res.optimal_flag


def test_an_index_holds_only_the_robots_history(fitted12, monkeypatch):
    """An index holds its scenario, its library and three history slots, and
    builds no table: the library answers the home, rep-path and goal
    lookups. ``from_library`` builds one fresh index on the library it is
    given, and the planner plans through it, from home and from any other
    potential start alike."""
    sc, lib = fitted12
    index = onl.PotentialStateIndex(sc, lib)
    assert vars(index).keys() == {"scenario", "library", "executed_path", "anchor", "planned"}
    assert index.scenario is sc and index.library is lib
    assert [index.executed_path, index.anchor, index.planned] == [None] * 3
    built = []

    class Counted(onl.PotentialStateIndex):
        def __init__(self, scenario, library):
            super().__init__(scenario, library)
            built.append(self)

    monkeypatch.setattr(onl, "PotentialStateIndex", Counted)
    planner = CoverPlanner.from_library(sc, lib)
    assert built == [planner.index_] and planner.library_ is lib and planner.scenario_ is sc
    goal = sorted(lib.regions[1].covered)[0]
    for start in (sc.s_home, sorted(lib.regions[0].covered)[0]):
        result = planner.plan(goal, start, refine=False)
        assert planner.index_.planned is result.path
    assert len(built) == 1


def test_a_library_of_another_scenario_is_refused():
    """grid8_d00 and grid8_d10 share their lattice and home, so a library of
    the first answered queries on the second: every home query returned a
    path through the second's obstacles, and refinement flagged it
    optimal. The library's fingerprint is now checked against the
    scenario's when a planner is bound to it, by ``from_library`` and by
    the index it builds."""
    scenarios = dict(corpus.corpus())
    sc_a, sc_b = scenarios["grid8_d00"], scenarios["grid8_d10"]
    lib_a = pre.preprocess(sc_a, seed=0)
    goals = sorted(lib_a.goal_index)
    assert len(goals) == 18
    planner = CoverPlanner.from_library(sc_a, lib_a)
    plans = [planner.plan(q, refine=False) for q in goals]
    assert not any(path_is_valid(sc_b, plan.path) for plan in plans)
    with pytest.raises(errors.FingerprintMismatch):
        CoverPlanner.from_library(sc_b, lib_a)
    with pytest.raises(errors.FingerprintMismatch):
        onl.PotentialStateIndex(sc_b, lib_a)


def test_query_goal_uncovered(fitted12):
    sc, lib = fitted12
    with pytest.raises(errors.GoalUncovered):
        CoverPlanner.from_library(sc, lib).plan((5, 5), sc.s_home)


def test_query_request_rejects_bad_budget(fitted12):
    sc, lib = fitted12
    planner = CoverPlanner.from_library(sc, lib)
    goal = sorted(lib.regions[0].covered)[0]
    for budget in (0.0, -1.0, float("nan")):
        for refine in (True, False):
            with pytest.raises(ValueError, match="budget_ms must be positive"):
                planner.plan(goal, budget_ms=budget, refine=refine)
    assert planner.index_.planned is None


def test_query_start_not_potential(fitted12):
    sc, lib = fitted12
    goal = sorted(lib.regions[0].covered)[0]
    with pytest.raises(errors.StartNotPotential):
        CoverPlanner.from_library(sc, lib).plan(goal, (5, 5))


def stale_libraries(lib):
    """(q, build) pairs: ``build()`` makes the library whose first entry's
    stored home path of the covered goal q ends elsewhere (``stale_edits``),
    and is refused with StaleLibrary when it builds that entry."""
    rc = lib.regions[0]
    entry = rc.entries[0]
    q, nxt = two_step_goal(rc, entry)
    for edits in stale_edits(entry, q, nxt):

        def build(edits=edits):
            stale = pre.RegionCover(
                rc.region_id, (tampered(entry, edits),) + rc.entries[1:], rc.covered, rc.excluded
            )
            return pre.Library(lib.fingerprint, lib.s_home, (stale,) + lib.regions[1:])

        yield q, build


def test_query_stale_library_propagation(fitted12):
    """A stale entry is refused when it is built, so no stale library is
    made and no query can be served from one."""
    sc, lib = fitted12
    for q, build in stale_libraries(lib):
        stale = None
        with pytest.raises(errors.StaleLibrary, match=re.escape(f"home path of {q} ends at")):
            stale = build()
            CoverPlanner.from_library(sc, stale).plan(q, sc.s_home)
        assert stale is None


def test_registration_raises_stale_library(fitted12):
    """A stale entry is refused when it is built, so no library and no
    index are made, and no registration can read its stored path."""
    sc, lib = fitted12
    for q, build in stale_libraries(lib):
        index = None
        with pytest.raises(errors.StaleLibrary, match=re.escape(f"home path of {q} ends at")):
            index = onl.PotentialStateIndex(sc, build())
            onl.update_potential_index(index, astar(sc, sc.s_home, q))
        assert index is None


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
    via_connect = onl.connect(onl.find_rep_path(lib, s), s)
    assert via_index.configs == via_connect.configs


def test_update_potential_index_enables_sequential_starts(fitted12):
    sc, lib = fitted12
    planner = CoverPlanner.from_library(sc, lib)
    index = planner.index_
    goal_a = sorted(lib.regions[0].covered)[0]
    res = planner.plan(goal_a, sc.s_home)
    onl.update_potential_index(index, res.path)

    # next query may start at the previous goal
    goal_b = sorted(lib.regions[1].covered)[0]
    res2 = planner.plan(goal_b, goal_a)
    assert res2.path.configs[0] == goal_a

    # and at any mid-path state of the executed path
    mid = res.path.configs[len(res.path.configs) // 2]
    res3 = planner.plan(goal_b, mid)
    assert res3.path.configs[0] == mid

    # but never from an unvisited config
    never_visited = [q for q in cspace.lattice_configs(sc) if q not in index]
    assert never_visited
    with pytest.raises(errors.StartNotPotential):
        planner.plan(goal_b, never_visited[0])


def test_chained_start_reads_the_anchor(two_region_grid12):
    """A no-refine query from the end of the last executed path takes its
    home path from the stored anchor: the start is a covered goal off every
    rep path, yet the query reads no start-index entry for it, and reads
    the goal's entry once."""
    planner = CoverPlanner(seed=0).fit(two_region_grid12)
    lib = planner.library_
    on_rep = {q for rc in lib.regions for e in rc.entries for q in e.rep_path.configs}
    pick, place = (min(rc.covered - on_rep) for rc in lib.regions)
    planner.register_executed(planner.plan(pick, refine=False).path)
    reads = record_start_reads(lib)
    res = planner.plan(place, start=pick, refine=False)
    assert pick not in reads and reads == [place]
    assert res.path.start == pick and res.path.goal == place


def test_executed_mid_path_home_route_is_valid(fitted12):
    from coverplan.search import path_is_valid

    sc, lib = fitted12
    planner = CoverPlanner.from_library(sc, lib)
    index = planner.index_
    goal_a = sorted(lib.regions[0].covered)[-1]
    res = planner.plan(goal_a, sc.s_home)
    onl.update_potential_index(index, res.path)
    for k in range(0, len(res.path.configs), 3):
        s = res.path.configs[k]
        path = onl.path_home_to(index, s)
        assert path.configs[0] == sc.s_home and path.configs[-1] == s
        assert path_is_valid(sc, path)


def test_concurrent_robots_share_one_library():
    """Four threads, each with its own planner on one shared library and
    scenario (grid24_d30), run the same chained pick -> place sweep with
    refinement and registration, and each gets the paths and refine
    records of a serial run. The counters mix by design and are left out;
    the clock stands still, so every refinement runs to convergence."""
    sc = dict(corpus.corpus())["grid24_d30"]
    lib = pre.preprocess(sc, seed=0)
    picks, places = (sorted(rc.covered) for rc in lib.regions)

    def sweep():
        planner = CoverPlanner.from_library(sc, lib)
        start, outputs = sc.s_home, []
        for goal in (g for pair in zip(picks, places) for g in pair):
            result = planner.plan(goal, start, budget_ms=1.0, clock=lambda: 0.0)
            planner.register_executed(result.path)
            report = result.refine_report
            records = [(it.epsilon, it.cost, it.expansions) for it in report.iterations]
            outputs.append((result.path.configs, records, result.optimal_flag))
            start = goal
        return outputs

    serial = sweep()
    assert len(serial) == 2 * min(len(picks), len(places)) > 2
    assert all(optimal for _, _, optimal in serial)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def run(k):
        barrier.wait()
        results[k] = sweep()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to interleave more
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4


# ---------------------------------------------------------------------------
# constant-time contract


def obstacle_flooded_variant(sc, extra: int):
    """Same lattice validity, many more obstacles (all far outside)."""
    far = [Circle(center=(1000.0 + 3.0 * k, -500.0), radius=1.0) for k in range(extra)]
    return grid(12, home=sc.s_home, regions=sc.regions, obstacles=list(sc.obstacles) + far)


def test_query_zero_checks_zero_expansions(fitted12):
    sc, lib = fitted12
    planner = CoverPlanner.from_library(sc, lib)
    start = sorted(lib.regions[0].covered)[0]
    goal = sorted(lib.regions[1].covered)[0]
    sc.counters.reset()
    res = planner.plan(goal, start, refine=False)
    checks, expansions, steps = sc.counters.snapshot()
    assert checks == 0
    assert expansions == 0
    assert steps == len(res.path.configs)


def test_query_elementary_bound(fitted12):
    sc, lib = fitted12
    planner = CoverPlanner.from_library(sc, lib)
    start = sorted(lib.regions[0].covered)[0]
    goal = sorted(lib.regions[1].covered)[0]
    entry_goal = onl.find_rep_path(lib, goal)
    entry_start = onl.find_rep_path(lib, start)
    bound = (
        len(entry_start.rep_path.configs)
        + len(entry_goal.rep_path.configs)
        + entry_start.max_descent_steps
        + entry_goal.max_descent_steps
    )
    sc.counters.reset()
    planner.plan(goal, start, refine=False)
    assert sc.counters.elementary_steps <= bound


def test_query_step_count_independent_of_obstacles(fitted12):
    sc, lib = fitted12
    counts = {}
    for extra in (0, 499):
        variant = obstacle_flooded_variant(sc, extra)
        vlib = pre.preprocess(variant, seed=0)
        planner = CoverPlanner.from_library(variant, vlib)
        start = sorted(vlib.regions[0].covered)[0]
        goal = sorted(vlib.regions[1].covered)[0]
        variant.counters.reset()
        planner.plan(goal, start, refine=False)
        counts[extra] = variant.counters.snapshot()
    assert counts[0] == counts[499]
    assert counts[0][0] == 0 and counts[0][1] == 0


def test_query_wall_time_under_10ms(fitted12):
    sc, lib = fitted12
    planner = CoverPlanner.from_library(sc, lib)
    start = sorted(lib.regions[0].covered)[0]
    goal = sorted(lib.regions[1].covered)[0]
    planner.plan(goal, start, refine=False)  # warm caches
    t0 = time.perf_counter()
    planner.plan(goal, start, refine=False)
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
    planner = CoverPlanner.from_library(sc, lib)
    potentials = [q for q in cspace.lattice_configs(sc) if q in planner.index_]
    goals = sorted(set().union(*(rc.covered for rc in lib.regions)))
    for s in potentials:
        for goal in goals:
            res = planner.plan(goal, s, refine=False)
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
        planner = CoverPlanner.from_library(sc, lib)
        potentials = sorted(q for q in cspace.lattice_configs(sc) if q in planner.index_)
        goals = sorted(set().union(*(rc.covered for rc in lib.regions)))
        for _ in range(25):
            s = potentials[rng.randrange(len(potentials))]
            g = goals[rng.randrange(len(goals))]
            sc.counters.reset()
            res = planner.plan(g, s, refine=False)
            checks, expansions, steps = sc.counters.snapshot()
            assert checks == 0 and expansions == 0, (name, s, g)
            assert steps == len(res.path.configs)


def test_refinement_never_worsens(fitted12):
    sc, lib = fitted12
    planner = CoverPlanner.from_library(sc, lib)
    goals = sorted(lib.regions[1].covered)
    starts = sorted(lib.regions[0].covered)
    for s, g in zip(starts[:5], goals[:5]):
        res = planner.plan(g, s, budget_ms=500.0)
        assert res.final_cost <= res.initial_cost
