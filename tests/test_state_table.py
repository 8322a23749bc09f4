"""``Scenario.state_table`` against the per-state geometry.

The table is built with geometry work in proportion to the distinct
geometry: an arm's link segments once per joint prefix, a grid's obstacles
over the cells of their bounding boxes. The reference computes each state
on its own: ``cspace.collision_free`` for the flag, and the last point of
``forward_kinematics`` (an arm) or the cell centre (a grid). The two must
agree in key order, flags and points, compared bit for bit.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arm3_s16, grid
from coverplan import ArmModel, Circle, Rect, RegionSpec, Scenario, corpus, cspace
from test_cspace import mixed_limit_arm


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def bits(items):
    """(state, flag, point) rows with each coordinate as its exact hex form,
    so that 0.0 and -0.0, or two floats one ulp apart, differ."""
    return [(q, free, tuple(map(float.hex, p))) for q, (free, p) in items]


def reference(sc):
    """The table recomputed state by state, in lexicographic order."""
    rows = []
    for q in cspace.lattice_configs(sc):
        if sc.kind == "grid":
            p = cspace.cell_center(q)
        else:
            p = cspace.forward_kinematics(sc.arm, q)[-1]
        rows.append((q, (cspace.collision_free(sc, q), p)))
    return bits(rows)


def assert_matches_reference(sc):
    table = sc.state_table
    assert len(table) == math.prod(sc.dims)
    assert bits(table.items()) == reference(sc)


def arm(links, obstacles, jpr=16, limits=None, base=(0.0, 0.0)):
    return Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=links, base=base, joints_per_rev=jpr, joint_limits=limits),
        s_home=(0,) * len(links),
        regions=(RegionSpec("r", (-5.0, -5.0, 5.0, 5.0)),),
        obstacles=tuple(obstacles),
    )


NAMED = {
    **dict(corpus.corpus()),
    "arm3_s16": arm3_s16(),
    "mixed_limit_arm": mixed_limit_arm(),
    "grid_discs": grid(
        10,
        obstacles=[Circle((3.5, 3.5), 2.0), Circle((8.0, 1.0), 1.5), Circle((0.0, 9.7), 0.9)],
    ),
    "grid_outside": grid(
        9,
        obstacles=[
            Rect((-3.0, 2.5, 1.5, 4.5)),  # partly left of the lattice
            Rect((7.5, 7.5, 12.0, 30.0)),  # partly past the far corner
            Rect((-9.0, -9.0, -1.0, -1.0)),  # wholly outside
            Rect((20.0, 0.0, 25.0, 9.0)),  # wholly outside
            Circle((-1.0, 7.5), 1.5),  # centre outside, reaching in to (0, 7)
            Circle((30.0, 30.0), 2.0),  # wholly outside
            Rect((4.5, 6.5, 3.5, 7.5)),  # empty: xmin > xmax
        ],
    ),
    "arm_rects": arm(
        (1.0, 0.8, 0.5),
        [Rect((0.4, 0.6, 1.2, 1.4)), Rect((-2.0, -0.3, -1.1, 0.3)), Rect((3.0, 3.0, 9.0, 9.0))],
        jpr=12,
    ),
    # link tips that touch an obstacle exactly: the closed tests count it as
    # a hit, at the edge of the obstacle's box grown by the link length
    "arm_touching": arm(
        (1.0, 0.5),
        [Rect((1.5, -0.2, 2.0, 0.2)), Circle((0.0, -2.0), 0.5)],
        jpr=4,
    ),
    "arm4_s8": arm((1.0, 0.8, 0.6, 0.4), [Circle((0.0, 1.7), 0.25), Circle((0.3, -1.5), 0.3)], jpr=8),
    "arm_limits": arm(
        (1.2, 0.7, 0.4),
        [Circle((0.9, 0.9), 0.3), Rect((-1.5, -1.0, -0.8, -0.2))],
        jpr=10,
        limits=((-1.0, 1.5), None, (0.5, 2.0)),
        base=(0.25, -0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_state_table_equals_the_per_state_geometry(name):
    assert_matches_reference(NAMED[name])


def test_named_scenarios_cover_what_the_build_prunes():
    """The named arms include invalid states under a colliding prefix, under
    a valid one and at an exact touch, and the grids blocked cells at the
    lattice edge."""
    sc = NAMED["arm3_s16"]
    table = sc.state_table
    dead_prefixes = {q[:2] for q, (free, _) in table.items() if not free}
    assert any(all(not table[p + (k,)][0] for k in range(16)) for p in dead_prefixes)
    assert any(any(table[p + (k,)][0] for k in range(16)) for p in dead_prefixes)
    touching = NAMED["arm_touching"].state_table
    assert not touching[0, 0][0] and not touching[3, 0][0] and touching[0, 1][0]
    outside = NAMED["grid_outside"].state_table
    assert not outside[0, 3][0] and not outside[8, 8][0] and not outside[0, 7][0]
    assert outside[1, 7][0] and outside[0, 6][0]


def centres(n):
    """Coordinates on a cell centre, or on a cell edge, in and around 0..n."""
    return st.integers(-2 * n - 4, 4 * n + 8).map(lambda k: k / 2.0 - 1.0)


@st.composite
def rastered_grids(draw):
    """Small grids with rects and discs whose edges land exactly on cell
    centres (half-integer bounds, centres and integer radii), some reaching
    past the lattice, plus an occasional obstacle at arbitrary floats."""
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    n = max(nx, ny)
    coord = centres(n)
    anywhere = st.floats(-3.0, n + 3.0, allow_nan=False)
    rect = st.tuples(coord, coord, coord, coord).map(Rect)
    disc = st.builds(
        Circle,
        st.tuples(coord, coord),
        st.one_of(st.integers(0, 6).map(float), st.sampled_from([0.5, 1.5, 2.5, 3.5])),
    )
    loose = st.one_of(
        st.tuples(anywhere, anywhere, anywhere, anywhere).map(Rect),
        st.builds(Circle, st.tuples(anywhere, anywhere), st.floats(0.0, 3.0)),
    )
    obstacles = draw(st.lists(st.one_of(rect, disc, rect, disc, loose), max_size=6))
    return Scenario(
        kind="grid",
        grid_dims=(nx, ny),
        s_home=(0, 0),
        regions=(RegionSpec("r", (0.0, 0.0, float(nx), float(ny))),),
        obstacles=tuple(obstacles),
    )


@PROPERTY
@given(rastered_grids())
def test_grid_raster_equals_the_per_state_test(sc):
    assert_matches_reference(sc)


@st.composite
def prefix_arms(draw):
    """Arms of 1 to 3 links, some joints limited, with discs and rects."""
    k = draw(st.integers(1, 3))
    jpr = draw(st.integers(4, 9))
    links = tuple(draw(st.lists(st.floats(0.2, 1.5), min_size=k, max_size=k)))
    limit = st.tuples(st.floats(-3.0, 0.0), st.floats(0.5, 3.0))
    limits = tuple(draw(st.lists(st.none() | limit, min_size=k, max_size=k)))
    coord = st.floats(-3.0, 3.0)
    obstacle = st.one_of(
        st.builds(Circle, st.tuples(coord, coord), st.floats(0.0, 1.0)),
        st.tuples(coord, coord, coord, coord).map(
            lambda b: Rect((min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]), max(b[1], b[3])))
        ),
    )
    return arm(links, draw(st.lists(obstacle, max_size=4)), jpr=jpr, limits=limits)


@PROPERTY
@given(prefix_arms())
def test_arm_prefix_walk_equals_the_per_state_test(sc):
    assert_matches_reference(sc)
