"""Discrete configuration spaces: planar N-link arms and 2D grids.

A configuration is a tuple of integer lattice indices, one per degree of
freedom. Grid scenarios index workspace cells directly (1 m cells, cell
(i, j) spans [i, i+1) x [j, j+1)); arm scenarios index joint angles at a
fixed angular step of 2*pi / joints_per_rev. Continuous joints wrap;
joints with limits do not.

A ``Scenario`` is frozen: its lattice constants (``dims``, ``wraps``) are
derived once, at construction, from fields that cannot change
afterwards. Every result is a pure function of that data. ``counters``
is an ``OpCounters`` instrumentation block, which exists so callers can
prove how much work (collision checks, expansions, elementary steps) an
online query performed. It is the one mutable part, and it is shared:
queries and builds on a scenario add their counts to it (each
``is_valid`` adds a collision check), so concurrent queries or builds on
one scenario mix their counts. No result depends on the counters. Six
tables run lattice-only work once per scenario, each built whole on
first use. Two hold, per axis and per index, every index's wrapped
distance to that index: ``distance_rows`` as floats, for the search
heuristic, and ``square_rows`` squared, as ints, for the descent. So a
search or a descent toward one state picks its rows with one index per
axis and re-centres nothing. Two are keyed by exactly the prod(dims)
lattice states, in lexicographic order: ``state_table`` (each state's
collision-free flag and end-effector point, read by ``is_valid``,
``region_configs`` and ``region_reach``; an arm's is built by walking the
joint lattice as a tree, with each link segment computed and tested at
most once per joint prefix, and a grid's by rastering each obstacle over
the cells of its bounding box) and ``neighbor_table`` (each state's
single-DOF neighbours, built from ``state_table``'s own keys, so each state
is one object that all tables share; read by ``lattice_neighbors`` and the
descent walks). Neither counts a check, so validity still goes through the
counted ``is_valid``.
``home_distance``, a flood fill of the two from ``s_home``, holds each
reachable state's step count from home, for the offline cover, the
library loader, the refinement heuristic and the corpus generators. One
more is derived from these, also with no counted check: ``region_reach``
(each region's valid states, the same ones that ``region_configs`` finds
with a counted check per lattice state, split into those that
``home_distance`` holds and the rest). It is the one source of a region's
states, covered goals and excluded states for ``preprocess``, the library
loader and the corpus generators, so none of them sweeps the lattice. No
table changes once built, so they are safe to share.
``dataclasses.replace`` builds a new scenario with new counters and
tables, so an answer never outlives the fields it was computed from.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ScenarioFormatError

Config = tuple[int, ...]
Rows = tuple[tuple[tuple, ...], ...]  # per axis, per index, one value per index

SCENARIO_FORMAT_VERSION = 1

# Single-DOF unit-cost action set: one lattice index up or down per move.
# Diagonal multi-joint moves are deliberately absent so the Manhattan
# heuristic stays consistent. These are the only values a scenario file may
# name; scenario_to_payload writes them and scenario_from_payload refuses others.
ACTION_SET = "single_dof"
COST_MODEL = "unit"
UNIT_COST = 1.0


@dataclass(frozen=True)
class Circle:
    """Workspace disc obstacle (closed: boundary counts as inside)."""

    center: tuple[float, float]
    radius: float


@dataclass(frozen=True)
class Rect:
    """Axis-aligned workspace rectangle obstacle, (xmin, ymin, xmax, ymax), closed."""

    bounds: tuple[float, float, float, float]


Obstacle = Circle | Rect


@dataclass(frozen=True)
class RegionSpec:
    """A goal region: configurations whose end-effector point lies in ``box``.

    ``box`` is (xmin, ymin, xmax, ymax) in workspace meters; for grids the
    tested point is the cell center.
    """

    id: str
    box: tuple[float, float, float, float]


@dataclass(frozen=True)
class ArmModel:
    """Planar serial arm on a joint-index lattice.

    joints_per_rev fixes the angular step (2*pi / joints_per_rev) for every
    joint. A joint without limits wraps over [0, joints_per_rev); a joint
    with limits [lo, hi), where lo < hi, covers the indices whose angle
    lo + i*step < hi and does not wrap.
    """

    link_lengths: tuple[float, ...]
    base: tuple[float, float] = (0.0, 0.0)
    joints_per_rev: int = 16
    joint_limits: tuple[tuple[float, float] | None, ...] | None = None

    def __post_init__(self):
        if any(l <= 0.0 for l in self.link_lengths):
            raise ValueError("link lengths must be positive")
        if self.joints_per_rev < 4:
            raise ValueError("joints_per_rev must be >= 4")
        if self.joint_limits is not None and len(self.joint_limits) != len(self.link_lengths):
            raise ValueError("one joint limit entry per link required")
        for lim in self.joint_limits or ():
            if lim is not None and not lim[0] < lim[1]:
                raise ValueError(f"joint limit {lim} is empty: it needs lo < hi")

    @property
    def step(self) -> float:
        return 2.0 * math.pi / self.joints_per_rev

    def limit(self, joint: int) -> tuple[float, float] | None:
        if self.joint_limits is None:
            return None
        return self.joint_limits[joint]

    def dims(self) -> tuple[int, ...]:
        out = []
        for j in range(len(self.link_lengths)):
            lim = self.limit(j)
            if lim is None:
                out.append(self.joints_per_rev)
            else:
                lo, hi = lim
                n = int((hi - lo) / self.step + 1e-9)
                out.append(max(1, n))
        return tuple(out)


@dataclass
class OpCounters:
    """Instrumentation: work performed against a scenario.

    collision_checks counts is_valid() calls (logical checks: one per call,
    although the geometry runs once per scenario, when
    ``Scenario.state_table`` is built: per joint prefix on an arm, per
    obstacle footprint on a grid; a library build or load charges one per
    state per attractor, as each attractor's descent memo checks a state
    once),
    expansions counts search-node expansions, elementary_steps counts
    constant-cost bookkeeping ops (configs assembled into a lookup-built
    path, descent moves).
    """

    collision_checks: int = 0
    expansions: int = 0
    elementary_steps: int = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.collision_checks, self.expansions, self.elementary_steps)

    def reset(self) -> None:
        self.collision_checks = 0
        self.expansions = 0
        self.elementary_steps = 0


@dataclass(frozen=True)
class Scenario:
    """A planning world: domain, obstacles, home state and goal regions.

    ``dims`` (lattice size per DOF) and ``wraps`` (which axes wrap) are
    computed once from ``grid_dims`` or ``arm``, and so is
    ``fingerprint``, the content hash that binds libraries to the
    scenario; freezing keeps them valid. ``counters`` is the one mutable
    part. The tables are built whole on first use: ``distance_rows`` and
    ``square_rows`` from ``dims`` and ``wraps``, ``state_table``, then
    ``neighbor_table`` from its keys, ``home_distance`` from those two, and
    ``region_reach`` from ``state_table`` and ``home_distance`` (the module
    docstring says why they are safe to share). ``s_home`` must pass
    ``in_bounds`` on ``dims``, so a bool, a float or a list home is
    refused with ValueError here, as the scenario file's loader refuses it.
    """

    kind: str  # "grid" | "arm"
    s_home: Config
    regions: tuple[RegionSpec, ...]
    obstacles: tuple[Obstacle, ...] = ()
    grid_dims: tuple[int, int] | None = None
    arm: ArmModel | None = None
    counters: OpCounters = field(default_factory=OpCounters, init=False, compare=False, repr=False)
    dims: tuple[int, ...] = field(init=False, compare=False, repr=False)
    wraps: tuple[bool, ...] = field(init=False, compare=False, repr=False)
    fingerprint: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "grid":
            dims = self.grid_dims
            if not (dims and len(dims) == 2 and all(type(n) is int and n > 0 for n in dims)):
                raise ValueError(f"grid_dims must be two positive ints, got {dims!r}")
            dims, wraps = tuple(dims), (False, False)
        elif self.kind == "arm":
            if self.arm is None:
                raise ValueError("arm scenario needs an ArmModel")
            dims = self.arm.dims()
            wraps = tuple(self.arm.limit(j) is None for j in range(len(dims)))
        else:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not self.regions:
            raise ValueError("scenario needs at least one region")
        for region in self.regions:
            x0, y0, x1, y1 = region.box
            if x1 <= x0 or y1 <= y0:
                raise ValueError(f"region {region.id!r} box has no area")
        ids = [r.id for r in self.regions]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate region ids in {ids}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "wraps", wraps)
        if not in_bounds(self, self.s_home):
            raise ValueError(f"s_home {self.s_home} is not a state of a lattice with dims {dims}")
        payload = canonical_json(scenario_to_payload(self))
        object.__setattr__(self, "fingerprint", hashlib.sha256(payload.encode()).hexdigest())

    @property
    def dof(self) -> int:
        return len(self.dims)

    @cached_property
    def distance_rows(self) -> Rows:
        """Per axis, per index i, every index's wrapped distance to i, as a
        float: ``distance_rows[axis][i][c]``. The search heuristic's rows."""
        return tuple(_rows_by_index(n, w, float) for n, w in zip(self.dims, self.wraps))

    @cached_property
    def square_rows(self) -> Rows:
        """``distance_rows`` squared, as ints: the descent's rows."""
        return tuple(_rows_by_index(n, w, lambda d: d * d) for n, w in zip(self.dims, self.wraps))

    @cached_property
    def neighbor_table(self) -> dict[Config, tuple[Config, ...]]:
        """Lattice state -> its single-DOF +-1 neighbours, in lexicographic
        order; a row runs axis by axis, -1 before +1, modulo n on a wrapping
        axis, and leaves out moves off the lattice. Built by rank from
        ``state_table``'s keys (on an axis of n indices and stride s, rank r
        is at index r // s % n), so each state is one shared object."""
        keys = list(self.state_table)
        rows = [[] for _ in keys]
        s = len(keys)
        # Only arm joints without limits wrap, and ArmModel keeps joints_per_rev
        # >= 4, so a wrapping axis's two moves differ from each other and from q.
        for n, wrap in zip(self.dims, self.wraps):
            s //= n
            for r, row in enumerate(rows):
                i = r // s % n
                if i:
                    row.append(keys[r - s])
                elif wrap:
                    row.append(keys[r + s * (n - 1)])
                if i < n - 1:
                    row.append(keys[r + s])
                elif wrap:
                    row.append(keys[r - s * (n - 1)])
        return dict(zip(keys, map(tuple, rows)))

    @cached_property
    def state_table(self) -> dict[Config, tuple[bool, tuple[float, float]]]:
        """Lattice state -> (collision-free, end-effector point), in lexicographic order.

        Equal to ``collision_free`` and the end-effector point of each state,
        built with geometry work in proportion to the distinct geometry: an
        arm's link segments once per joint prefix (``_arm_states``), a grid's
        obstacles over the cells of their bounding boxes (``_grid_states``).
        """
        if self.kind == "grid":
            return _grid_states(self)
        return _arm_states(self)

    @cached_property
    def home_distance(self) -> dict[Config, int]:
        """Each state reachable from ``s_home`` by valid moves -> its fewest
        moves from home; empty when home collides. Counts no check. The
        flood starts from ``state_table``'s key equal to ``s_home`` (at its
        rank), so every key is a state object the other tables share."""
        states, neighbors = self.state_table, self.neighbor_table
        rank = 0
        for c, n in zip(self.s_home, self.dims):
            rank = rank * n + c
        home = next(itertools.islice(states, rank, None))
        if not states[home][0]:
            return {}
        dist = {home: 0}
        layer, d = [home], 0
        while layer:
            frontier, layer, d = layer, [], d + 1
            for q in frontier:
                for nb in neighbors[q]:
                    if nb not in dist and states[nb][0]:
                        dist[nb] = d
                        layer.append(nb)
        return dist

    @cached_property
    def region_reach(self) -> dict[RegionSpec, tuple[frozenset[Config], frozenset[Config]]]:
        """Each region -> (its valid states that ``home_distance`` holds, its
        other valid states). Counts no check."""
        dist = self.home_distance
        table = {}
        for region in self.regions:
            x0, y0, x1, y1 = region.box
            states = [
                q
                for q, (free, (x, y)) in self.state_table.items()
                if free and x0 <= x <= x1 and y0 <= y <= y1
            ]
            reached = frozenset(filter(dist.__contains__, states))
            table[region] = reached, frozenset(states) - reached
        return table


# ---------------------------------------------------------------------------
# geometry helpers


def _point_in_circle(p: tuple[float, float], c: Circle) -> bool:
    dx = p[0] - c.center[0]
    dy = p[1] - c.center[1]
    return dx * dx + dy * dy <= c.radius * c.radius


def _point_in_rect(p: tuple[float, float], r: Rect) -> bool:
    x0, y0, x1, y1 = r.bounds
    return x0 <= p[0] <= x1 and y0 <= p[1] <= y1


def point_in_obstacle(p: tuple[float, float], obstacle: Obstacle) -> bool:
    if isinstance(obstacle, Circle):
        return _point_in_circle(p, obstacle)
    return _point_in_rect(p, obstacle)


def segment_circle_distance(a, b, center) -> float:
    """Distance from ``center`` to the closed segment a-b (exact)."""
    ax, ay = a
    bx, by = b
    px, py = center
    dx, dy = bx - ax, by - ay
    if dx == 0.0 and dy == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def segment_hits_circle(a, b, c: Circle) -> bool:
    return segment_circle_distance(a, b, c.center) <= c.radius


def segment_hits_rect(a, b, r: Rect) -> bool:
    """Exact segment vs axis-aligned rectangle test (slab clipping)."""
    if _point_in_rect(a, r) or _point_in_rect(b, r):
        return True
    x0, y0, x1, y1 = r.bounds
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    tmin, tmax = 0.0, 1.0
    for d, lo, hi, o in ((dx, x0, x1, a[0]), (dy, y0, y1, a[1])):
        if d == 0.0:
            if o < lo or o > hi:
                return False
        else:
            t1 = (lo - o) / d
            t2 = (hi - o) / d
            if t1 > t2:
                t1, t2 = t2, t1
            tmin = max(tmin, t1)
            tmax = min(tmax, t2)
            if tmin > tmax:
                return False
    return True


def segment_hits_obstacle(a, b, obstacle: Obstacle) -> bool:
    if isinstance(obstacle, Circle):
        return segment_hits_circle(a, b, obstacle)
    return segment_hits_rect(a, b, obstacle)


# ---------------------------------------------------------------------------
# kinematics and validity


def joint_angles(arm: ArmModel, q: Config) -> tuple[float, ...]:
    """Map lattice indices to joint angles in radians."""
    step = arm.step
    limits = arm.joint_limits or (None,) * len(q)
    return tuple((0.0 if lim is None else lim[0]) + idx * step for idx, lim in zip(q, limits))


def forward_kinematics(arm: ArmModel, q: Config) -> list[tuple[float, float]]:
    """Link endpoint positions: base first, then one point per link."""
    angles = joint_angles(arm, q)
    points = [arm.base]
    heading = 0.0
    x, y = arm.base
    for length, angle in zip(arm.link_lengths, angles):
        heading += angle
        x += length * math.cos(heading)
        y += length * math.sin(heading)
        points.append((x, y))
    return points


def cell_center(q: Config) -> tuple[float, float]:
    return (q[0] + 0.5, q[1] + 0.5)


def in_bounds(scenario: Scenario, q) -> bool:
    """True iff q is a lattice state: a tuple of one int per DOF, each in
    range. The types are compared exactly, so a bool, a float, a NumPy
    integer or a list is refused however it compares. This is the rule
    every boundary applies to a state it is handed (``Scenario``'s home,
    a library file's attractors, the goals of the searches, a descent's
    start and attractor, and, in one type pass per path,
    ``search.check_path``); only ``check_config`` converts its input
    first."""
    if type(q) is not tuple or len(q) != len(scenario.dims):
        return False
    for c, n in zip(q, scenario.dims):
        if type(c) is not int or not 0 <= c < n:
            return False
    return True


def collision_free(scenario: Scenario, q: Config) -> bool:
    """Obstacle geometry for an in-lattice q: not counted, not stored.

    The per-state reference that ``Scenario.state_table`` equals: the cell
    centre against every obstacle, or every link segment of the arm's
    forward kinematics against every obstacle.
    """
    if scenario.kind == "grid":
        p = cell_center(q)
        return not any(point_in_obstacle(p, o) for o in scenario.obstacles)
    points = forward_kinematics(scenario.arm, q)
    segments = zip(points, points[1:])
    return not any(segment_hits_obstacle(a, b, o) for a, b in segments for o in scenario.obstacles)


def _arm_states(scenario: Scenario) -> dict[Config, tuple[bool, tuple[float, float]]]:
    """An arm's ``state_table``, built by walking the joint lattice as a tree.

    Link k's segment depends only on joints 0..k, so each joint prefix
    computes its heading, endpoint and segment once, and tests the segment
    against each obstacle at most once; a prefix whose segments hit an
    obstacle marks its whole subtree invalid with no further test. The
    float operations are those of ``joint_angles`` and
    ``forward_kinematics``, in the same order, so every point equals
    theirs. Expanding the prefixes level by level in index order keeps
    lexicographic order.

    A segment of length L from a stays within L of a, so it can reach an
    obstacle only when a lies in the obstacle's bounding box grown by L.
    Each parent prefix compares its endpoint with those boxes once and
    tests its children's segments only against the obstacles whose box
    it lies in. The boxes are grown by a further ``slack``, far above the
    rounding error of the points and of the segment tests, so a skipped
    test is one that would have answered False.
    """
    arm = scenario.arm
    step = arm.step
    limits = arm.joint_limits or (None,) * len(arm.link_lengths)
    boxes = [
        (_bounding_box(o), segment_hits_circle if isinstance(o, Circle) else segment_hits_rect, o)
        for o in scenario.obstacles
    ]
    extent = [abs(v) for box, _, _ in boxes for v in box if math.isfinite(v)]
    slack = 1e-9 * (1.0 + max(extent, default=0.0) + sum(map(abs, arm.base)) + sum(arm.link_lengths))
    # one node per joint prefix: (indices, heading, endpoint, collision-free so far)
    level = [((), 0.0, arm.base, True)]
    for n, length, lim in zip(scenario.dims, arm.link_lengths, limits):
        lo = 0.0 if lim is None else lim[0]
        angles = [(idx, lo + idx * step) for idx in range(n)]
        d = length + slack
        grown = [((x0 - d, y0 - d, x1 + d, y1 + d), hit, o) for (x0, y0, x1, y1), hit, o in boxes]
        nodes = []
        for prefix, heading, a, free in level:
            x, y = a
            near = [
                (hit, o) for (x0, y0, x1, y1), hit, o in grown if x0 <= x <= x1 and y0 <= y <= y1
            ]
            for idx, angle in angles:
                h = heading + angle
                b = (x + length * math.cos(h), y + length * math.sin(h))
                ok = free and not (near and any(hit(a, b, o) for hit, o in near))
                nodes.append((prefix + (idx,), h, b, ok))
        level = nodes
    return {q: (free, p) for q, _, p, free in level}


def _grid_states(scenario: Scenario) -> dict[Config, tuple[bool, tuple[float, float]]]:
    """A grid's ``state_table``: every cell free, then each obstacle rastered.

    An obstacle tests the closed ``point_in_obstacle`` predicate only on
    the cells whose centres can lie in its bounding box: the index range
    of the box's centre coordinates, widened by one cell against rounding
    and clipped to the lattice.
    """
    blocked = set()
    for o in scenario.obstacles:
        inside = _point_in_circle if isinstance(o, Circle) else _point_in_rect
        box = _bounding_box(o)
        (i0, i1), (j0, j1) = (
            _center_range(lo, hi, n) for lo, hi, n in zip(box[:2], box[2:], scenario.dims)
        )
        for q in itertools.product(range(i0, i1 + 1), range(j0, j1 + 1)):
            if q not in blocked and inside(cell_center(q), o):
                blocked.add(q)
    return {q: (q not in blocked, cell_center(q)) for q in lattice_configs(scenario)}


def _bounding_box(o: Obstacle) -> tuple[float, float, float, float]:
    """The obstacle's closed (xmin, ymin, xmax, ymax) box; the whole plane
    when a bound is NaN, where no comparison can exclude a point."""
    if isinstance(o, Circle):
        (cx, cy), r = o.center, abs(o.radius)
        box = (cx - r, cy - r, cx + r, cy + r)
    else:
        box = o.bounds
    if any(map(math.isnan, box)):
        return (-math.inf, -math.inf, math.inf, math.inf)
    return box


def _center_range(lo: float, hi: float, n: int) -> tuple[int, int]:
    """First and last index in range(n) whose cell centre c + 0.5 can lie in
    [lo, hi], widened by one index on each side; empty when first > last."""
    first = math.floor(min(max(0.0, lo - 1.5), float(n)))
    last = math.ceil(max(-1.0, min(n - 1.0, hi + 0.5)))
    return first, last


_OFF_LATTICE = (False, None)


def is_valid(scenario: Scenario, q: Config) -> bool:
    """Collision / limit check. Counted: one collision check per call.

    The count is logical: the answer is one lookup in the scenario's
    ``state_table``. Input off the lattice finds no entry and is invalid; a
    key equal to a lattice state, such as (1.0, 0) for (1, 0), answers as
    that state.
    """
    scenario.counters.collision_checks += 1
    return scenario.state_table.get(q, _OFF_LATTICE)[0]


# ---------------------------------------------------------------------------
# lattice connectivity, metrics, regions


def lattice_neighbors(scenario: Scenario, q: Config) -> tuple[Config, ...]:
    """Single-DOF +-1 neighbors on the lattice (no validity).

    One read of the scenario's table; a configuration off the lattice has
    no neighbours, as it is never valid.
    """
    return scenario.neighbor_table.get(q, ())


def successors(scenario: Scenario, q: Config) -> list[Config]:
    """The valid states one single-DOF move from q; each move costs UNIT_COST."""
    return [nb for nb in lattice_neighbors(scenario, q) if is_valid(scenario, nb)]


def axis_delta(a: int, b: int, n: int, wrap: bool) -> int:
    d = abs(a - b)
    if wrap:
        d = min(d, n - d)
    return d


def _rows_by_index(n: int, wrap: bool, value) -> tuple[tuple, ...]:
    """The rows of an axis of n indices, one per index i: row i's entry c
    is ``value`` of c's wrapped distance from i. That distance depends on
    |c - i| alone, so each row is cut from the values at the distances
    from index 0, and the rows share one object per distance."""
    v = tuple(value(axis_delta(c, 0, n, wrap)) for c in range(n))
    return tuple(v[i:0:-1] + v[: n - i] for i in range(n))


def heuristic(scenario: Scenario, q: Config, goal: Config) -> float:
    """Wrapped Manhattan lattice distance; consistent for the unit action set.

    The per-call definition; a search reads the same values off the goal's
    ``Scenario.distance_rows`` (``search._HeuristicMemo``)."""
    dims = scenario.dims
    wraps = scenario.wraps
    return float(sum(axis_delta(a, b, n, w) for a, b, n, w in zip(q, goal, dims, wraps)))


def navigation_value(scenario: Scenario, q: Config, attractor: Config) -> float:
    """Wrapped Euclidean lattice distance; the descent potential."""
    dims = scenario.dims
    wraps = scenario.wraps
    return math.sqrt(
        sum(axis_delta(a, b, n, w) ** 2 for a, b, n, w in zip(q, attractor, dims, wraps))
    )


def lattice_configs(scenario: Scenario):
    """All lattice configurations, in lexicographic order."""
    return itertools.product(*(range(n) for n in scenario.dims))


def region_configs(scenario: Scenario, region: RegionSpec) -> list[Config]:
    """The region's valid member states in lexicographic order; one check per state.

    Every lattice state goes through the counted ``is_valid``, so the
    charged checks are real calls that a tracer of ``is_valid`` sees. The
    uncounted ``region_reach`` table holds the same states; ``preprocess``
    and the library loader read that table and never call this.
    """
    x0, y0, x1, y1 = region.box
    return [
        q
        for q, (_, (x, y)) in scenario.state_table.items()
        if is_valid(scenario, q) and x0 <= x <= x1 and y0 <= y <= y1
    ]


# ---------------------------------------------------------------------------
# validation helpers


def _index(c) -> int:
    """An integer coordinate as an int; a bool, float or string raises TypeError."""
    if c is True or c is False:
        raise TypeError(f"{c!r} is a bool")
    return operator.index(c)


def check_config(scenario: Scenario, q) -> Config:
    """Check a user-supplied configuration: one integer per DOF, in bounds.

    A lattice state (``in_bounds``) is returned as it is. Anything else is
    converted with ``_index`` and must then be one: a coordinate must be
    an integer for ``operator.index``, so a float, a string or a bool is
    refused with ValueError, not truncated or parsed, while a list or a
    NumPy integer is converted. So the result is a state that
    ``in_bounds`` accepts, and the rule lives there alone. No test reads
    a table, so the check costs the same on a scenario whose tables are
    not built.
    """
    if in_bounds(scenario, q):
        return q
    try:
        cfg = tuple(map(_index, q))
    except TypeError as exc:
        raise ValueError(f"configuration must be a sequence of integers, got {q!r}") from exc
    dims = scenario.dims
    if len(cfg) != len(dims):
        raise ValueError(f"configuration has {len(cfg)} coordinates, scenario has {len(dims)} DOF")
    if not in_bounds(scenario, cfg):
        raise ValueError(f"configuration {cfg} outside lattice dims {dims}")
    return cfg


# ---------------------------------------------------------------------------
# file format


def finite_reals(values, n: int | None = None) -> tuple:
    """Finite JSON numbers, as given, and ``n`` of them when ``n`` is set.

    A bool, a string, NaN or an infinity raises ValueError (a value that
    is not a sequence, TypeError): such a file is refused, never converted.
    """
    out = tuple(values)
    for x in out:
        # bool is an int subclass, so the type is compared exactly
        if type(x) not in (int, float) or not math.isfinite(x):
            raise ValueError(f"{x!r} is not a finite number")
    if n is not None and len(out) != n:
        raise ValueError(f"{list(out)!r} is not {n} numbers")
    return out


def _obstacle_payload(o: Obstacle) -> dict:
    if isinstance(o, Circle):
        return {"shape": "circle", "center": list(o.center), "radius": o.radius}
    return {"shape": "rect", "bounds": list(o.bounds)}


def _obstacle_from_payload(p: dict) -> Obstacle:
    if p["shape"] == "circle":
        radius = float(finite_reals([p["radius"]])[0])
        if radius < 0:
            raise ScenarioFormatError(f"circle radius {radius!r} is negative")
        return Circle(center=finite_reals(p["center"], 2), radius=radius)
    if p["shape"] == "rect":
        return Rect(bounds=finite_reals(p["bounds"], 4))
    raise ScenarioFormatError(f"unknown obstacle shape {p.get('shape')!r}")


def scenario_to_payload(scenario: Scenario) -> dict:
    payload = {
        "format_version": SCENARIO_FORMAT_VERSION,
        "kind": scenario.kind,
        "obstacles": [_obstacle_payload(o) for o in scenario.obstacles],
        "s_home": list(scenario.s_home),
        "regions": [{"id": r.id, "box": list(r.box)} for r in scenario.regions],
        "actions": ACTION_SET,
        "cost_model": COST_MODEL,
    }
    if scenario.kind == "grid":
        payload["grid"] = {"dims": list(scenario.grid_dims)}
    else:
        arm = scenario.arm
        payload["arm"] = {
            "link_lengths": list(arm.link_lengths),
            "base": list(arm.base),
            "joints_per_rev": arm.joints_per_rev,
            "joint_limits": None
            if arm.joint_limits is None
            else [None if lim is None else list(lim) for lim in arm.joint_limits],
        }
    return payload


def scenario_from_payload(payload: dict) -> Scenario:
    """Decode a scenario document, refusing what it cannot hold exactly.

    Lattice indices and counts (``s_home``, grid ``dims``,
    ``joints_per_rev``) must be ints, as ``check_config`` requires; every
    workspace coordinate, length and radius a finite number, with the
    count its field has; region ids strings. Raises ScenarioFormatError
    otherwise, and for a defect that ``Scenario`` or ``ArmModel`` refuses.
    Keys it does not name, at the top level or in a region, an obstacle or
    the arm, are not read (``bench.load_experiment_config`` refuses them).
    """
    try:
        version = payload["format_version"]
        if version != SCENARIO_FORMAT_VERSION:
            raise ScenarioFormatError(f"unsupported scenario format_version {version}")
        for key, only in (("actions", ACTION_SET), ("cost_model", COST_MODEL)):
            if payload.get(key, only) != only:
                raise ScenarioFormatError(f"unsupported {key} {payload[key]!r}; only {only!r}")
        kind = payload["kind"]
        regions = payload["regions"]
        for r in regions:
            if type(r["id"]) is not str:
                raise ScenarioFormatError(f"region id {r['id']!r} is not a string")
        common = dict(
            kind=kind,
            s_home=tuple(map(_index, payload["s_home"])),
            regions=tuple(RegionSpec(id=r["id"], box=finite_reals(r["box"], 4)) for r in regions),
            obstacles=tuple(_obstacle_from_payload(o) for o in payload["obstacles"]),
        )
        if kind == "grid":
            return Scenario(grid_dims=tuple(map(_index, payload["grid"]["dims"])), **common)
        arm = payload["arm"]
        limits = arm.get("joint_limits")
        return Scenario(
            arm=ArmModel(
                link_lengths=finite_reals(arm["link_lengths"]),
                base=finite_reals(arm["base"], 2),
                joints_per_rev=_index(arm["joints_per_rev"]),
                joint_limits=None
                if limits is None
                else tuple(None if lim is None else finite_reals(lim, 2) for lim in limits),
            ),
            **common,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"malformed scenario payload: {exc}") from exc


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_json_file(path, text: str) -> None:
    """Write one JSON document, ``text`` and a newline, as UTF-8: the
    writer of scenario, library and experiment config files."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def read_json_file(path, error: type[Exception], what: str) -> dict:
    """The one reader of scenario, library and experiment config files.

    Reads ``path`` as UTF-8 JSON and returns the object it holds. A file
    that cannot be opened or decoded, is not JSON or nests too deep to
    parse raises ``error`` (the format's own type) naming ``what`` and the
    path, and so does a document that is not a JSON object.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{what} {path} is not a JSON object")
    return payload


def save_scenario(scenario: Scenario, path) -> None:
    """Write the scenario document (versioned, round-trip stable) as UTF-8."""
    write_json_file(path, json.dumps(scenario_to_payload(scenario), indent=2, sort_keys=True))


def load_scenario(path) -> Scenario:
    """Read a scenario document with ``read_json_file``; raises
    ScenarioFormatError when the file cannot be read or is malformed."""
    return scenario_from_payload(read_json_file(path, ScenarioFormatError, "scenario file"))
