"""The potential-state index against the first-match oracle.

The library's ``start_index`` serves home, rep-path states and covered
goals as starts, and must keep a state's first reason: a rep-path state
that an earlier region covers as a goal is served as that goal. The oracle
walks the regions literally, so any change to that priority rule shows up
here as a different home path. As a goal, a covered state takes the same
``start_index`` path, so a goal that is also a rep-path state is reached
along its rep path, a shortest path.
Random chains of plans and registered walks then check ``path_home_to``,
which answers the end of the executed path from its stored anchor, against
``oracles.home_path_by_lookup``, which always runs the lookup order.
"""

import pytest

import oracles
from coverplan import CoverPlanner, corpus, cspace, errors
from coverplan import cover as pre
from coverplan import online as onl
from coverplan.search import Path, path_is_valid
from conftest import arm3_s16

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def oracle_path(library, q, why):
    """The home path the oracle's reason for q gives."""
    kind, entry, position = why
    if kind == "home":
        return Path((q,))
    if kind == "rep_path":
        return Path(entry.rep_path.configs[: position + 1])
    return onl.connect(library.goal_index[q], q)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_index_matches_the_provenance_oracle(seed):
    """Every corpus scenario and arm3_s16: the same potential states and the
    same home paths as the oracle, before and after registering a path, and
    a no-refine query from home to each covered goal returns the goal's
    ``start_index`` path, which costs its home distance when the goal's
    first reason is a rep path."""
    scenarios = dict(corpus.corpus())
    scenarios["arm3_s16"] = arm3_s16()
    for name, sc in scenarios.items():
        lib = pre.preprocess(sc, seed=seed)
        planner = CoverPlanner.from_library(sc, lib)
        index = planner.index_
        provenance = oracles.potential_provenance(lib)
        expected = {q: oracle_path(lib, q, why) for q, why in provenance.items()}
        potentials = {q for q in cspace.lattice_configs(sc) if q in index}
        assert potentials == set(expected), name
        for q, path in expected.items():
            assert onl.path_home_to(index, q) == path, (name, q)
        for q in lib.goal_index:
            path, k = lib.start_index[q]
            got = planner.plan(q, sc.s_home, refine=False).path
            assert got.configs == path[: k + 1], (name, q)
            if provenance[q][0] == "rep_path":
                assert got.cost == sc.home_distance[q], (name, q)

        goal = max(lib.goal_index)
        executed = planner.plan(goal, sc.s_home, refine=False).path
        onl.update_potential_index(index, executed)
        potentials = {q for q in cspace.lattice_configs(sc) if q in index}
        assert potentials == set(expected) | set(executed.configs), name
        for q, path in expected.items():
            assert onl.path_home_to(index, q) == path, (name, q)


# ---------------------------------------------------------------------------
# chains of registrations against the lookup-order oracle

CHAIN_SCENARIOS = ("grid16_d20", "arm32_o2")  # a grid with obstacles; a wrapping arm


def random_walk(sc, start, choices):
    """A valid lattice walk from start: each choice picks one of the oracle's
    collision-free neighbours of the state before."""
    configs = [start]
    for c in choices:
        moves = oracles.lattice_neighbors(sc, configs[-1])
        free = [q for q in moves if cspace.collision_free(sc, q)]
        if not free:
            break
        configs.append(free[c % len(free)])
    return Path(tuple(configs))


# Each step plans a no-refine query and registers the planned path, or
# registers a walk that was never planned. A start is picked from home, the
# end of the last executed path, any state of it, the potential states or
# any valid state, in that order, by its first number; the walk's moves
# come from the list.
steps = st.one_of(
    st.tuples(st.just("plan"), st.integers(0, 4), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(
        st.just("walk"),
        st.integers(0, 4),
        st.integers(0, 10**6),
        st.lists(st.integers(0, 3), min_size=0, max_size=8),
    ),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CHAIN_SCENARIOS), chain=st.lists(steps, min_size=1, max_size=6))
def test_chained_registrations_match_the_lookup_oracle(name, chain):
    """After each registration, ``path_home_to`` gives the home path of the
    lookup order, with no shortcut, for home, sampled rep-path states and
    covered goals, and every executed state; each is a valid walk from home;
    and at the executed path's end it is the stored anchor itself. A walk
    whose end is not a potential state takes the home path of its start
    followed by the walk; one with neither end potential is refused and the
    index is left as it was."""
    sc = dict(corpus.corpus())[name]
    planner = CoverPlanner(seed=0).fit(sc)
    lib, index = planner.library_, planner.index_
    provenance = oracles.potential_provenance(lib)
    potential = sorted(provenance)
    sampled = potential[:: max(1, len(potential) // 12)]
    valid = [q for q in cspace.lattice_configs(sc) if cspace.collision_free(sc, q)]
    goals = sorted(lib.goal_index)

    def lookup(q):
        return oracles.home_path_by_lookup(index, q, provenance)

    for kind, pick, draw, extra in chain:
        executed = index.executed_path.configs if index.executed_path else (sc.s_home,)
        pools = [(sc.s_home,), executed[-1:], executed, potential, valid]
        start = pools[pick][draw % len(pools[pick])]
        if kind == "plan":
            if lookup(start) is None:
                continue
            path = planner.plan(goals[extra % len(goals)], start, refine=False).path
        else:
            path = random_walk(sc, start, extra)
        head, tail = lookup(path.configs[0]), lookup(path.configs[-1])
        if tail is None and head is None:
            before = (index.executed_path, index.anchor)
            with pytest.raises(errors.StartNotPotential, match="neither end"):
                planner.register_executed(path)
            assert (index.executed_path, index.anchor) == before
            continue
        planner.register_executed(path)
        assert index.anchor.configs == (tail if tail is not None else head + path.configs[1:])

        for q in {sc.s_home, *sampled, *path.configs}:
            got = onl.path_home_to(index, q)
            assert got.configs == lookup(q), (name, q)
            assert got.start == sc.s_home and got.goal == q
            assert path_is_valid(sc, got), (name, q)
        if path.goal != sc.s_home:
            assert onl.path_home_to(index, path.goal) is index.anchor


# ---------------------------------------------------------------------------
# plans against an index that has not seen the earlier plans


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CHAIN_SCENARIOS), chain=st.lists(steps, min_size=1, max_size=8))
def test_plans_depend_only_on_registrations(name, chain):
    """Plans and registrations on one index, with goals drawn from a few so
    that later starts and ends meet earlier goals: each plan equals the
    same request on a fresh index that has seen only the same
    registrations, so no plan leaves state behind that a later one reads."""
    sc = dict(corpus.corpus())[name]
    planner = CoverPlanner(seed=0).fit(sc)
    lib, index = planner.library_, planner.index_
    goals = sorted(lib.goal_index)
    few = goals[:: max(1, len(goals) // 4)]
    potential = sorted(oracles.potential_provenance(lib))
    valid = [q for q in cspace.lattice_configs(sc) if cspace.collision_free(sc, q)]
    registered = []

    for kind, pick, draw, extra in chain:
        executed = index.executed_path.configs if index.executed_path else (sc.s_home,)
        pools = [(sc.s_home,), executed[-1:], executed, few, potential if kind == "plan" else valid]
        start = pools[pick][draw % len(pools[pick])]
        if kind == "plan":
            if start not in index:
                continue
            goal = few[extra % len(few)]
            path = planner.plan(goal, start, refine=False).path
            fresh = CoverPlanner.from_library(sc, lib)
            for executed_path in registered:
                fresh.register_executed(executed_path)
            assert fresh.plan(goal, start, refine=False).path.configs == path.configs
        else:
            path = random_walk(sc, start, extra)
        try:
            planner.register_executed(path)
        except errors.StartNotPotential:
            continue
        registered.append(path)
