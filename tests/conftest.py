import math
import operator

import pytest
from hypothesis import strategies as st

from coverplan import ArmModel, Circle, RegionSpec, Rect, Scenario
from coverplan import cover


def cell_rect(i, j):
    """A rectangle obstacle occupying exactly grid cell (i, j)."""
    return Rect((float(i), float(j), float(i + 1), float(j + 1)))


def grid(size, obstacles=(), home=(0, 0), regions=None):
    if regions is None:
        regions = (RegionSpec("goal", (size - 2.0, size - 2.0, float(size), float(size))),)
    return Scenario(
        kind="grid",
        grid_dims=(size, size),
        s_home=home,
        regions=tuple(regions),
        obstacles=tuple(obstacles),
    )


def arm3_s16():
    """The benchmark's 3-link arm: 16 joint steps per revolution, two discs."""
    reach = 2.4
    return Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0, 0.8, 0.6), joints_per_rev=16),
        s_home=(0, 0, 0),
        regions=(
            RegionSpec("pick", (0.55 * reach, 0.15 * reach, 1.0 * reach, 0.65 * reach)),
            RegionSpec("place", (-1.0 * reach, 0.15 * reach, -0.55 * reach, 0.65 * reach)),
        ),
        obstacles=(Circle((0.0, 1.7), 0.25), Circle((0.3, -1.5), 0.3)),
    )


@st.composite
def drawn_arms(draw):
    """1-3 unit links at 4-12 steps per revolution, each joint wrapping or
    limited to an interval of at least half a step, up to two discs, home
    at index 0 of every joint and one region over the whole workspace."""
    dof = draw(st.integers(1, 3))
    steps = draw(st.integers(4, 12))
    step = 2.0 * math.pi / steps
    limits = []
    for _ in range(dof):
        if draw(st.booleans()):
            limits.append(None)
        else:
            lo = draw(st.floats(-math.pi, math.pi))
            limits.append((lo, lo + draw(st.floats(0.5 * step, 2.0 * math.pi))))
    centers = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    obstacles = draw(st.lists(st.builds(Circle, centers, st.floats(0.05, 0.5)), max_size=2))
    return Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0,) * dof, joints_per_rev=steps, joint_limits=tuple(limits)),
        s_home=(0,) * dof,
        regions=(RegionSpec("r", (-3.0, -3.0, 3.0, 3.0)),),
        obstacles=tuple(obstacles),
    )


@pytest.fixture
def empty8():
    return grid(8)


@pytest.fixture
def two_region_grid12():
    return grid(
        12,
        home=(0, 6),
        regions=(
            RegionSpec("pick", (9.0, 0.0, 12.0, 3.0)),
            RegionSpec("place", (9.0, 9.0, 12.0, 12.0)),
        ),
    )


@pytest.fixture
def unit_arm():
    return Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0, 1.0), joints_per_rev=16),
        s_home=(0, 0),
        regions=(RegionSpec("reach", (1.9, -0.1, 2.1, 0.1)),),
    )


def record_start_reads(library):
    """Swap the library's ``start_index`` for a copy that records the key of
    every read, by ``get`` or by subscript, and return the list it fills."""
    reads = []

    class RecordedStarts(dict):
        def get(self, q, default=None):
            reads.append(q)
            return super().get(q, default)

        def __getitem__(self, q):
            reads.append(q)
            return super().__getitem__(q)

    object.__setattr__(library, "start_index", RecordedStarts(library.start_index))
    return reads


def v1_projection(payload):
    """A library payload in format 1: no descent moves, ``rep_paths`` a list.

    Format 2 added one descent move per member and stored the single
    representative path as ``rep_path``; everything else is unchanged, so
    the projection of a format-2 file serializes to the format-1 bytes.
    """
    regions = []
    for rc in payload["regions"]:
        entries = []
        for e in rc["entries"]:
            v1 = {k: v for k, v in e.items() if k not in ("moves", "rep_path")}
            entries.append(dict(v1, rep_paths=[e["rep_path"]]))
        regions.append(dict(rc, entries=entries))
    return dict(payload, format_version=1, regions=regions)


def lattice_ranks(configs, dims):
    """Row-major lattice rank of each configuration, in order."""
    strides = [math.prod(dims[d + 1 :]) for d in range(len(dims))]
    return [sum(map(operator.mul, q, strides)) for q in configs]


def rank_set(configs, dims):
    """Sorted lattice ranks, delta encoded: [first, diff, diff, ...]."""
    ranks = sorted(lattice_ranks(configs, dims))
    return list(map(operator.sub, ranks, [0] + ranks[:-1]))


# Format 3 wrote a descent move as its slot among a state's moves, axis * 2 +
# (1 if +1 else 0), in one base-36 digit, and the attractor's as "-".
MOVE_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
NO_MOVE = "-"


def move_of_step(dims):
    """Rank step -> format-3 move character, for a lattice of these dims.

    A move changes the rank by its axis stride, or, across a wrapping
    axis's seam, by n - 1 strides the other way.
    """
    move = {0: NO_MOVE}
    for axis, n in enumerate(dims):
        stride = math.prod(dims[axis + 1 :])
        down, up = MOVE_DIGITS[2 * axis], MOVE_DIGITS[2 * axis + 1]
        if n >= 4:
            move.update({(n - 1) * stride: down, -(n - 1) * stride: up})
        move.update({-stride: down, stride: up})
    return move


def v3_projection(payload, scenario):
    """A format-4 library payload in format 3: each attractor's basin put back.

    Format 4 stores per region its attractors alone. Format 3 stored per
    entry the attractor's whole descent basin (sorted lattice ranks, delta
    encoded), one descent move per member in rank order, and the longest
    member walk, with the lattice ``dims`` and ``s_home`` in the header.
    The projection grows each basin with ``construct_neighborhood`` and
    writes it as the format-3 writer did, so a library whose projection
    serializes to the format-3 bytes lost nothing but fields that the
    attractors and the scenario determine.
    """
    dims = scenario.dims
    move = move_of_step(dims)
    regions = []
    for rc in payload["regions"]:
        entries = []
        for attractor in rc["attractors"]:
            pointers, max_steps, _ = cover.construct_neighborhood(scenario, tuple(attractor))
            members = sorted(pointers)  # lexicographic order is rank order
            rank = dict(zip(members, lattice_ranks(members, dims)))
            steps = (rank[pointers[q]] - rank[q] for q in members)
            entry = {
                "attractor": attractor,
                "members": rank_set(members, dims),
                "moves": "".join(map(move.__getitem__, steps)),
                "max_descent_steps": max_steps,
            }
            entries.append(entry)
        regions.append({"id": rc["id"], "entries": entries})
    return {
        "format_version": 3,
        "scenario_fingerprint": payload["scenario_fingerprint"],
        "dims": list(dims),
        "s_home": list(scenario.s_home),
        "regions": regions,
    }


def v2_projection(payload, scenario):
    """A format-3 library payload in format 2: the derived fields put back.

    Format 3 stores the cover alone and derives each region's ``covered``
    and ``excluded`` sets and each entry's ``rep_path`` from the scenario
    at load. The projection writes those fields as format 2 did (sorted
    lattice ranks, delta encoded; the path's states), read off the
    scenario's ``region_reach`` table and ``cover._home_path``, so a
    library whose projection serializes to the format-2 bytes lost nothing
    but fields that the loader derives back unchanged.
    """
    dims = scenario.dims
    regions = []
    for region, rc in zip(scenario.regions, payload["regions"]):
        entries = []
        for e in rc["entries"]:
            rep_path = cover._home_path(scenario, tuple(e["attractor"]))
            entries.append(dict(e, rep_path=[list(q) for q in rep_path.configs]))
        covered, excluded = (rank_set(states, dims) for states in scenario.region_reach[region])
        regions.append(dict(rc, entries=entries, covered=covered, excluded=excluded))
    return dict(payload, format_version=2, regions=regions)
