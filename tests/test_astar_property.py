"""Property test: ``search.astar`` against the breadth-first oracle.

``astar`` is one pass of the weighted-A* loop the anytime searches share.
On random small grids and on 2- and 3-link arms whose joints wrap, a
search from a collision-free start to any lattice state, at weights 1,
1.5, 3 and 8, is checked against ``oracles.bfs_distances``: it raises
NoPath exactly when the goal is unreachable; otherwise it returns a valid
lattice walk between the two, as short as the BFS distance at weight 1
and at most w times it above 1; and it expands no more states than the
start reaches.
"""

import itertools

import pytest

from oracles import bfs_distances
from coverplan import ArmModel, Circle, RegionSpec, Rect, Scenario, corpus, cspace, errors, search

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

WEIGHTS = (1.0, 1.5, 3.0, 8.0)


@st.composite
def grids(draw):
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), max_size=30))
    return Scenario(
        kind="grid",
        grid_dims=(nx, ny),
        s_home=(0, 0),
        regions=(RegionSpec("r", (0.0, 0.0, float(nx), float(ny))),),
        obstacles=tuple(Rect((i + 0.2, j + 0.2, i + 0.8, j + 0.8)) for i, j in cells),
    )


@st.composite
def wrapping_arms(draw):
    links = tuple(draw(st.lists(st.floats(0.2, 1.0), min_size=2, max_size=3)))
    coord = st.floats(-sum(links), sum(links))
    obstacles = draw(
        st.lists(st.builds(Circle, st.tuples(coord, coord), st.floats(0.05, 0.5)), max_size=3)
    )
    return Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=links, joints_per_rev=draw(st.integers(4, 10))),
        s_home=(0,) * len(links),
        regions=(RegionSpec("r", (-2.0, -2.0, 2.0, 2.0)),),
        obstacles=tuple(obstacles),
    )


@st.composite
def queries(draw):
    scenario = draw(st.one_of(grids(), wrapping_arms()))
    every = list(itertools.product(*map(range, scenario.dims)))
    free = [q for q in every if cspace.collision_free(scenario, q)]
    assume(free)
    return scenario, draw(st.sampled_from(free)), draw(st.sampled_from(every))


@PROPERTY
@given(queries())
def test_astar_matches_bfs_oracle(query):
    scenario, start, goal = query
    if scenario.kind == "arm":
        assert all(scenario.wraps)
    dist = bfs_distances(scenario, start)
    for w in WEIGHTS:
        scenario.counters.reset()
        if goal not in dist:
            with pytest.raises(errors.NoPath):
                search.astar(scenario, start, goal, weight=w)
        else:
            path = search.astar(scenario, start, goal, weight=w)
            assert path.start == start and path.goal == goal
            assert search.path_is_valid(scenario, path)
            if w == 1.0:
                assert path.cost == dist[goal]
            else:
                assert dist[goal] <= path.cost <= w * dist[goal]
        assert scenario.counters.expansions <= len(dist)


def test_weighted_astar_reads_the_improved_parent_chain():
    """A closed state improved during a weighted pass keeps its cheaper
    parent, so the path read back is shorter than the g the goal was
    selected at; the work spent is the same as without the update."""
    scenario = dict(corpus.corpus())["grid8_d30"]
    assert bfs_distances(scenario, (7, 7))[(1, 0)] == 13.0
    scenario.counters.reset()
    path = search.astar(scenario, (7, 7), (1, 0), weight=3.0)
    assert scenario.counters.snapshot()[:2] == (78, 21)  # collision checks, expansions
    assert path.cost == 15.0
    assert search.path_is_valid(scenario, path)
