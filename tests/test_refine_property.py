"""Property test: ``search.anytime_refine`` against the plain reference loop.

The reference runs under ``oracles.landmark_heuristic``, the planner's
heuristic rebuilt from the breadth-first oracle, so the two compare like
with like. On random small grids and on 2- and 3-link arms whose joints
wrap, the seed path is a shortest path from home, which costs h(home),
the lower bound at which the refinement certifies it at once, or leaves
home on a random walk, which revisits states, and then heads for the
goal; a chained start first runs back home. From either start the run
must give ``oracles.reference_refine``'s records, incumbents and path,
and reach the breadth-first distance. Under a
``bench.SimClock`` deadline drawn inside the full run, both stop in the
same pass with the same truncated records.
"""

import pytest

from oracles import bfs_distances, landmark_heuristic, lattice_move, reference_refine
from coverplan import RegionSpec, Rect, Scenario, bench, cspace, search
from test_astar_property import wrapping_arms

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def grids(draw):
    """Up to 16 x 16 cells: walls on odd rows, each with one gap, which
    make the heuristic weak and the schedule long, plus scattered cells."""
    nx, ny = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    cells = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), max_size=30))
    for j in range(1, ny, 2):
        if draw(st.booleans()):
            gap = draw(st.integers(0, nx - 1))
            cells += [(i, j) for i in range(nx) if i != gap]
    return Scenario(
        kind="grid",
        grid_dims=(nx, ny),
        s_home=(0, 0),
        regions=(RegionSpec("r", (0.0, 0.0, float(nx), float(ny))),),
        obstacles=tuple(Rect((i + 0.2, j + 0.2, i + 0.8, j + 0.8)) for i, j in cells),
    )


@st.composite
def refine_cases(draw):
    """(scenario, start, goal, seed path, deadline as a fraction of the full run)."""
    scenario = draw(st.one_of(grids(), wrapping_arms()))
    home = scenario.s_home
    assume(cspace.collision_free(scenario, home))
    reach = sorted(bfs_distances(scenario, home))
    assume(len(reach) > 1)
    goal = draw(st.sampled_from(reach[1:]))
    if draw(st.booleans()):  # a shortest path: from home it costs h(home), the lower bound
        seed = search.astar(scenario, home, goal)
    else:
        walk = [home]  # a random walk from home, which revisits states
        for move in draw(st.lists(st.integers(0, 2 * len(home) - 1), max_size=60)):
            nb = lattice_move(scenario, walk[-1], move // 2, (-1, +1)[move % 2])
            if nb is not None and cspace.collision_free(scenario, nb):
                walk.append(nb)
        seed = search.Path(tuple(walk))
        seed = search.concat_paths(seed, search.astar(scenario, walk[-1], goal, weight=4.0))
    if draw(st.booleans()):  # chained: from the previous goal, back home, then on
        seed = search.concat_paths(search.astar(scenario, draw(st.sampled_from(reach)), home), seed)
    return scenario, seed.start, goal, seed, draw(st.floats(0.02, 0.98))


def _run(scenario, start, goal, seed, **kwargs):
    scenario.counters.reset()
    path, report = search.anytime_refine(scenario, start, goal, seed, **kwargs)
    records = [(it.epsilon, it.cost, it.expansions, it.selections) for it in report.iterations]
    return path.configs, records, [p.configs for p in report.incumbents], report.optimal_flag


def _assert_bounded(records, optimum):
    """The ARA* bound of each completed pass: cost <= epsilon * optimum (up
    to float rounding of the product), with epsilon strictly falling and
    the cost never rising from one pass to the next."""
    epsilons, costs = [r[0] for r in records], [r[1] for r in records]
    assert all(c <= e * optimum + 1e-9 for e, c in zip(epsilons, costs)), (records, optimum)
    assert all(a > b for a, b in zip(epsilons, epsilons[1:])), records
    assert all(a >= b for a, b in zip(costs, costs[1:])), records


@PROPERTY
@given(refine_cases())
def test_refine_matches_reference_and_bfs(case):
    scenario, start, goal, seed, fraction = case
    h = landmark_heuristic(scenario, goal)
    clock = bench.SimClock(scenario.counters)
    scenario.counters.reset()
    reference = reference_refine(scenario, start, goal, seed, h, clock=clock)
    run_time = clock()
    full = _run(scenario, start, goal, seed, clock=clock)
    assert full == reference
    assert clock() == run_time  # the same expansions and collision checks
    path, records, _, optimal = full
    assert optimal and records[-1][0] == 1.0
    optimum = bfs_distances(scenario, start)[goal]
    assert len(path) - 1 == optimum
    _assert_bounded(records, optimum)
    assert search.path_is_valid(scenario, search.Path(path))

    deadline = fraction * run_time
    cut = _run(scenario, start, goal, seed, deadline=deadline, clock=clock)
    scenario.counters.reset()
    assert cut == reference_refine(scenario, start, goal, seed, h, deadline=deadline, clock=clock)
    assert cut[1] == records[: len(cut[1])] and cut[2] == full[2][: len(cut[2])]
    assert not cut[3] and len(cut[1]) < len(records)
    _assert_bounded(cut[1], optimum)
