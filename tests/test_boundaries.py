"""One lattice-state rule at every boundary where a state enters.

``cspace.in_bounds`` says what a lattice state is: a tuple of one int per
DOF, each in range. Each row is a state that is not one, on ``grid8_d00``
(8 x 8, no obstacles, home (0, 4)), and each boundary must refuse it with
its typed error and its message. The path boundaries take a walk from
home that is valid but for its last state, the row's, so only that
state's type or range is at fault. ``plan`` converts its goal and start
with ``operator.index``, so it answers a list as the tuple of its items;
that row checks the conversion instead.
"""

import dataclasses

import pytest

from coverplan import CoverPlanner, corpus, cover, errors, search


@pytest.fixture(scope="module")
def sc():
    scenario = dict(corpus.corpus())["grid8_d00"]
    assert scenario.s_home == (0, 4) and not scenario.obstacles
    return scenario


def scenario_home(sc, state, path):
    return dataclasses.replace(sc, s_home=state)


def plan_goal(sc, state, path):
    return CoverPlanner().fit(sc).plan(state, refine=False).path


def plan_start(sc, state, path):
    planner = CoverPlanner().fit(sc)
    goal = min(planner.library_.regions[0].covered)
    return planner.plan(goal, start=state, refine=False).path


def astar_goal(sc, state, path):
    return search.astar(sc, sc.s_home, state)


def astar_start(sc, state, path):
    return search.astar(sc, state, (7, 7))


def ara_star_goal(sc, state, path):
    return search.ara_star(sc, sc.s_home, state)


def ara_star_start(sc, state, path):
    return search.ara_star(sc, state, (7, 7))


def descend_start(sc, state, path):
    return cover.descend(sc, state, (7, 7))


def descend_attractor(sc, state, path):
    return cover.descend(sc, (7, 7), state)


def greedy_step_attractor(sc, state, path):
    return cover.greedy_step(sc, (7, 7), state)


def library_attractor(sc, state, path):
    payload = cover.library_to_payload(cover.preprocess(sc))
    payload["regions"][0]["attractors"][0] = list(state)  # a file's form of a state
    return cover.library_from_payload(payload, sc)


def check_path(sc, state, path):
    return search.check_path(sc, path)


def register_executed(sc, state, path):
    planner = CoverPlanner().fit(sc)
    try:
        planner.register_executed(path)
    finally:
        assert planner.index_.executed_path is None, "the path was registered"


def anytime_refine(sc, state, path):
    return search.anytime_refine(sc, sc.s_home, state, path)


# boundary -> (its call, its error, what its message says)
BOUNDARIES = {
    "Scenario home": (scenario_home, ValueError, "is not a state of a lattice"),
    "plan goal": (plan_goal, ValueError, "configuration"),
    "plan start": (plan_start, ValueError, "configuration"),
    "astar goal": (astar_goal, errors.NoPath, "is not a lattice state"),
    "astar start": (astar_start, errors.NoPath, "is invalid"),
    "ara_star goal": (ara_star_goal, errors.NoPath, "is not a lattice state"),
    "ara_star start": (ara_star_start, errors.NoPath, "is invalid"),
    "descend start": (descend_start, ValueError, "is not a lattice state"),
    "descend attractor": (descend_attractor, ValueError, "is not a lattice state"),
    "greedy_step attractor": (greedy_step_attractor, ValueError, "is not a lattice state"),
    "library attractor": (library_attractor, errors.CorruptLibrary, "is not a covered state"),
    "check_path": (check_path, errors.InvalidPath, "leaves the lattice"),
    "register_executed": (register_executed, errors.InvalidPath, "leaves the lattice"),
    "anytime_refine": (anytime_refine, errors.InvalidPath, "leaves the lattice"),
}

# (state, the cell the row's path visits just before it)
STATES = {
    "bool": ((True, 4), (0, 4)),
    "float": ((4.0, 4), (3, 4)),
    "string": (("4", 4), (3, 4)),
    "list": ([4, 4], (3, 4)),
    "one coordinate": ((4,), (3, 4)),
    "past the end": ((8, 4), (3, 4)),
    "before the start": ((-1, 4), (3, 4)),
}


def outcome(call, sc, state, path):
    """A call's path, or the type of the PlanningError it raised."""
    try:
        return call(sc, state, path).configs
    except errors.PlanningError as exc:
        return type(exc)


@pytest.mark.parametrize("boundary", list(BOUNDARIES))
@pytest.mark.parametrize("row", list(STATES))
def test_every_boundary_refuses_a_state_off_the_rule(sc, row, boundary):
    state, before = STATES[row]
    call, error, message = BOUNDARIES[boundary]
    path = search.Path(search.astar(sc, sc.s_home, before).configs + (state,))
    if type(state) is list and boundary.startswith("plan "):
        assert outcome(call, sc, state, path) == outcome(call, sc, tuple(state), path)
        return
    with pytest.raises(error, match=message):
        call(sc, state, path)
