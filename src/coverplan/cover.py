"""Offline phase: decompose each goal region into attractor neighborhoods.

A region's covered goals (its valid states that the scenario's
``home_distance`` table holds) and excluded states (its other valid
states) are read off the scenario's ``region_reach`` table. Attractor
candidates are drawn from the last attractor's frontier when possible,
otherwise uniformly from the remaining uncovered states. An excluded
candidate has no path from home and joins the exclusion set, which is
what guarantees termination on a finite lattice. Every other candidate
becomes an attractor. Its greedy-descent basin (every valid config whose
iterated steepest-descent walk of the navigation value reaches it) is
never grown: each step of such a walk lands on a basin state next to the
one before, so the basin's goals are the covered goals whose walks reach
it, and its frontier (the next candidates) the uncovered goals next to a
valid state whose walk does. Sampling ends with every covered goal in a basin.

Each attractor becomes one CoverEntry, built by ``_cover_entry`` from the
attractor and the scenario alone. It keeps what a query returns: a
shortest path from home to the attractor (the rep path, read off
``home_distance`` with no search), the longest descent walk of a covered
goal that reaches the attractor as its step bound, and for each such goal
its home path, the rep path followed by the goal's walk reversed. The
tail of a successful walk is a successful walk, so a state's home path
is its next state's path plus the state: one tuple join, made in the
walk that finds the state. The entry keeps the goals' paths only. The
online connect is one lookup of that path, with no collision check, no
navigation value and no walk; the library's goal index leads to the
entry from the goal.

Descent compares squared navigation values, as integers: the sum over
axes of the squared wrapped index distance, read from a per-attractor
table that each memo builds once. The walk is the one the float value
gives: ``math.sqrt`` is correctly rounded and strictly monotone on these
integers, so every argmin, every strict decrease and every tie is the same.
Each attractor's memo also keeps every state it has checked, with its
squared value or its collision, so a build or a load charges one
collision check per state per attractor, however many walk states the
state is next to.

A library file (format 4) stores only the attractors, per region, with
the region ids and the scenario fingerprint. ``preprocess`` and the
loader both build each entry with ``_cover_entry`` and read the covered
and excluded split off ``region_reach``, so a built library equals its
loaded copy, and a file can claim no member, home path, step bound, rep
path or goal.

Regions are independent: a region's cover depends on the scenario, the
region and the seed alone. A build only reads the scenario's fields and
tables, but it adds its collision checks to the shared
``scenario.counters``, so concurrent builds on one scenario mix their
counts; the library they build does not depend on the counters. The
merged library is immutable afterward.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Set
from dataclasses import dataclass, field
from operator import getitem

from . import cspace
from .cspace import Config, RegionSpec, Scenario
from .errors import (
    CorruptLibrary,
    DescentStalled,
    FingerprintMismatch,
    HomeInvalid,
    LibraryVersionError,
    StaleLibrary,
)
from .search import Path

LIBRARY_FORMAT_VERSION = 4


@dataclass(frozen=True)
class CoverEntry:
    """One cover unit: the home paths of the goals an attractor serves.

    ``home_paths`` maps each covered goal whose descent walk reaches the
    attractor to its path from home: the rep path, then the goal's walk
    reversed, cut at the goal's first visit (a goal on the rep path takes
    the rep path up to it). Its keys are the member set, the goals the
    entry serves, and no walk takes more than ``max_descent_steps``
    moves, the longest of them. ``rep_path`` runs from home to the
    attractor.

    Construction (``dataclasses.replace`` too) raises StaleLibrary for a
    home path that does not end at its key, the one check of the stored
    paths: nothing writes to an entry once built, and the library's
    ``start_index`` is built from its entries, so every lookup serves a
    path checked here and checks nothing itself.
    """

    home_paths: dict[Config, tuple[Config, ...]] = field(hash=False)
    max_descent_steps: int
    rep_path: Path

    def __post_init__(self):
        for q, path in self.home_paths.items():
            if path[-1] != q:
                raise StaleLibrary(f"the stored home path of {q} ends at {path[-1]}")

    @property
    def attractor(self) -> Config:
        return self.rep_path.configs[-1]

    @property
    def members(self) -> Set[Config]:
        return self.home_paths.keys()


@dataclass(frozen=True)
class RegionCover:
    """A region's cover entries plus its reachability bookkeeping.

    ``covered`` is the set of the region's valid states that home reaches,
    each a member of some entry; ``excluded`` the rest of its valid
    states, which no path from home reaches. Both are read from the
    scenario's ``region_reach`` table, never from a library file. Their
    union is the region's full enumerated state set, so goal lookups never
    need geometry online.
    """

    region_id: str
    entries: tuple[CoverEntry, ...]
    covered: frozenset[Config]
    excluded: frozenset[Config]


@dataclass(frozen=True)
class Library:
    """Preprocessing output: per-region covers bound to one scenario.

    Two lookups are built once at construction, in one pass over the
    frozen regions:

    - ``goal_index`` maps every covered goal to its CoverEntry; a query
      reads it as its coverage test;
    - ``start_index`` maps every state that a start is served from
      without the robot's history (home, every representative-path state
      and every covered goal) to a stored path through it and its
      position there: a rep-path state to (its rep path, its position),
      a goal to (its entry's home path of it, the last position). A
      query's goal side reads its goal's home path here too.

    A state named more than once keeps its first reason: home first, then
    regions in library order and, within a region, every rep-path state
    before any covered goal and lower entry ids first. So a goal covered
    twice goes to its first region's lowest entry (each covered goal is in
    an entry of its region; the loader checks), and a rep-path state keeps
    its first rep path and position unless an earlier region covers it as
    a goal. So a goal that is also a rep-path state, and that no earlier
    region covers, takes its rep-path prefix, a shortest path, as a start
    and as a goal alike. Nothing writes to a library once it is built, so
    concurrent queries may share one, each with its own PotentialStateIndex.
    """

    fingerprint: str
    s_home: Config
    regions: tuple[RegionCover, ...]
    goal_index: dict[Config, CoverEntry] = field(init=False, compare=False, repr=False)
    start_index: dict[Config, tuple[tuple[Config, ...], int]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        goals = {}  # goal_index, typed above
        starts = {self.s_home: ((self.s_home,), 0)}  # start_index
        for rc in self.regions:
            for entry in rc.entries:
                rep = entry.rep_path.configs
                for k, q in enumerate(rep):
                    starts.setdefault(q, (rep, k))
            for entry in rc.entries:
                for q, path in entry.home_paths.items():
                    goals.setdefault(q, entry)
                    starts.setdefault(q, (path, len(path) - 1))
        object.__setattr__(self, "goal_index", goals)
        object.__setattr__(self, "start_index", starts)


# ---------------------------------------------------------------------------
# greedy descent


# ``_Descent.navs``'s marker for a state the memo has not met yet
_UNSEEN = object()


def _squared_deltas(scenario: Scenario, attractor: Config) -> tuple[tuple[int, ...], ...]:
    """Per axis, each index's squared wrapped distance to the attractor's
    index: the attractor's row of the scenario's ``square_rows``, picked
    with one index per axis."""
    if not cspace.in_bounds(scenario, attractor):
        raise ValueError(f"attractor {attractor} is not a lattice state")
    return tuple(map(getitem, scenario.square_rows, attractor))


def greedy_step(
    scenario: Scenario, q: Config, attractor: Config, descent: _Descent | None = None
) -> Config | None:
    """One steepest-descent move of the navigation value, or None at a stall.

    Candidates are the valid successors of the lattice state ``q``, from
    the scenario's neighbour table. The move must strictly decrease the
    navigation value, compared squared, as an integer sum over the
    attractor's ``_squared_deltas``; ties break lexicographically. Values
    and validity are read from ``descent.navs`` (a fresh ``_Descent`` when
    none is given): a neighbour is checked with ``cspace.is_valid`` and
    scored only the first time the memo meets it.
    """
    if descent is None:
        descent = _Descent(scenario, attractor)
    navs, squares = descent.navs, descent.squares
    is_valid = cspace.is_valid
    best: Config | None = None
    best_nav = navs.get(q)
    if best_nav is None:  # a walk's first state, or one in collision
        best_nav = sum(map(getitem, squares, q))
    for nb in scenario.neighbor_table[q]:
        nav = navs.get(nb, _UNSEEN)
        if nav is _UNSEEN:
            nav = navs[nb] = sum(map(getitem, squares, nb)) if is_valid(scenario, nb) else None
        if nav is not None and (
            nav < best_nav or (nav == best_nav and best is not None and nb < best)
        ):
            best, best_nav = nb, nav
    return best


def descend(scenario: Scenario, q: Config, attractor: Config) -> Path:
    """Run greedy descent q -> attractor. No search, only successor evaluation.

    This is the offline walk of ``_Descent``, with collision checks, read
    back from its memo; online, connect reads the home path that the
    loader built on the same walk. Raises ValueError for a start or an
    attractor that ``cspace.in_bounds`` refuses and DescentStalled when no
    strictly improving move exists.
    """
    if not cspace.in_bounds(scenario, q):
        raise ValueError(f"start {q} is not a lattice state")
    path = _Descent(scenario, attractor).walk(q)
    if path is None:
        raise DescentStalled(f"descent from {q} stalls before {attractor}")
    return Path(path[::-1])


class _Descent:
    """Memoized greedy-descent walks toward one attractor.

    ``paths`` maps each walked state to ``rep`` (a path that ends at the
    attractor: its home path, or the attractor alone when none is given)
    followed by the state's walk reversed, or to None where the walk
    stalls. So a state's path is its next state's path plus itself.
    ``navs`` maps each state the memo has checked to its squared
    navigation value, or to None when it is in collision, so each state
    costs at most one ``cspace.is_valid`` call per attractor.
    """

    def __init__(self, scenario: Scenario, attractor: Config, rep: tuple[Config, ...] = ()):
        self.scenario = scenario
        self.attractor = attractor
        self.squares = _squared_deltas(scenario, attractor)
        self.paths: dict[Config, tuple[Config, ...] | None] = {attractor: rep or (attractor,)}
        self.navs: dict[Config, int | None] = {}

    def is_valid(self, q: Config) -> bool:
        """``cspace.is_valid`` of q, checked only when ``navs`` lacks q."""
        nav = self.navs.get(q, _UNSEEN)
        if nav is _UNSEEN:
            nav = self.navs[q] = (
                sum(map(getitem, self.squares, q)) if cspace.is_valid(self.scenario, q) else None
            )
        return nav is not None

    def walk(self, q: Config) -> tuple[Config, ...] | None:
        """q's path (see ``paths``), or None for a walk that stalls."""
        # Strict descent means no cycles: the walk ends at the attractor,
        # a stall, or a previously memoized state.
        paths = self.paths
        chain: list[Config] = []
        cur = q
        while cur not in paths:
            chain.append(cur)
            cur = greedy_step(self.scenario, cur, self.attractor, self)
            if cur is None:
                break
        path = None if cur is None else paths[cur]
        for state in reversed(chain):
            if path is not None:
                path += (state,)
            paths[state] = path
        return paths[q]


def construct_neighborhood(
    scenario: Scenario, attractor: Config
) -> tuple[dict[Config, Config], int, frozenset[Config]]:
    """The attractor's full descent basin, by walking every valid state.

    Returns (next_member, max_descent_steps, frontier): each member's next
    state on its descent walk (the attractor's is itself), the longest
    member walk in moves, and the valid states adjacent to members whose
    own descent walk does not reach the attractor. ``preprocess`` needs
    only the region's part of the basin and never calls this.
    """
    descent = _Descent(scenario, attractor)
    valid = [q for q in scenario.state_table if descent.is_valid(q)]
    members = {}
    for q in valid:
        path = descent.walk(q)
        if path is not None:
            members[q] = path[-2] if len(path) > 1 else q
    frontier = _frontier(descent, [q for q in valid if q not in members])
    longest = max(len(path) for path in descent.paths.values() if path is not None)
    return members, longest - 1, frontier


# ---------------------------------------------------------------------------
# cover construction


def sample_valid_uncovered(
    region_states: Collection[Config],
    done: set[Config],
    frontier_cache: frozenset[Config],
    rng: random.Random,
) -> Config | None:
    """Next attractor candidate: frontier states first, else uniform.

    Both draws take only ``region_states`` (the region's valid states in
    lexicographic order; preprocess passes a dict) that ``done`` (covered
    or excluded states) lacks, from a sorted list, so the pick is
    deterministic for a seeded rng. Returns None when the region is exhausted.
    """
    from_frontier = sorted(q for q in frontier_cache if q in region_states and q not in done)
    if from_frontier:
        return from_frontier[rng.randrange(len(from_frontier))]
    remaining = [q for q in region_states if q not in done]
    if not remaining:
        return None
    return remaining[rng.randrange(len(remaining))]


def _home_path(scenario: Scenario, q: Config) -> Path:
    """A shortest path from home to ``q``, read off ``home_distance``: from
    ``q`` back, each step goes to the first neighbour in move order that is
    one step closer to home. Every entry's walks start from it."""
    dist, neighbors = scenario.home_distance, scenario.neighbor_table
    configs = [q]
    for d in range(dist[q] - 1, -1, -1):
        for nb in neighbors[q]:
            if dist.get(nb) == d:
                q = nb
                break
        configs.append(q)
    configs.reverse()
    return Path(tuple(configs))


def _cover_entry(descent: _Descent, covered: Collection[Config]) -> CoverEntry:
    """The CoverEntry of the descent's attractor, built on its memo, whose
    paths start with the attractor's home path (``_home_path``).

    Every covered goal is walked toward the attractor, and the entry keeps
    the home paths of the goals whose walks reach it: its members are
    those goals, its step bound the longest of their walks, and a member
    on the rep path takes the rep path up to it. ``preprocess`` and the
    loader both build entries here.
    """
    paths, walk = descent.paths, descent.walk
    home_paths = {q: p for q in covered if (p := paths[q] if q in paths else walk(q)) is not None}
    rep = paths[descent.attractor]
    max_steps = max(map(len, home_paths.values())) - len(rep)
    for k, q in enumerate(rep):
        if q in home_paths:
            home_paths[q] = rep[: k + 1]
    return CoverEntry(home_paths, max_steps, Path(rep))


def _frontier(descent: _Descent, goals: Collection[Config]) -> frozenset[Config]:
    """The goals next to a basin state (a valid state whose walk reaches the
    attractor), walked on the attractor's memo: ``preprocess``'s next candidates."""

    def in_basin(q: Config) -> bool:
        # Validity first: a walk from a state in collision can still
        # reach the attractor, but such a state is in no basin.
        return descent.is_valid(q) and descent.walk(q) is not None

    neighbors = descent.scenario.neighbor_table
    return frozenset(q for q in goals if any(map(in_basin, neighbors[q])))


def _home_descent(scenario: Scenario, attractor: Config) -> _Descent:
    """A walk memo toward an attractor that home reaches, whose paths are
    home paths: ``_cover_entry``'s memo."""
    return _Descent(scenario, attractor, _home_path(scenario, attractor).configs)


def _region_cover(scenario: Scenario, region: RegionSpec, attractors) -> RegionCover:
    """A loaded region's cover: each attractor's entry from ``_cover_entry``
    on a fresh memo, as in ``preprocess``, and the covered and excluded
    split from ``region_reach``. Raises CorruptLibrary when a covered goal
    reaches none of the attractors."""
    covered, excluded = scenario.region_reach[region]
    entries = [_cover_entry(_home_descent(scenario, a), covered) for a in attractors]
    unreached = covered.difference(*(entry.members for entry in entries))
    if unreached:
        raise CorruptLibrary(
            f"covered goal {min(unreached)} of region {region.id!r} is in no entry: "
            "it reaches none of the region's attractors"
        )
    return RegionCover(region.id, tuple(entries), covered, excluded)


def preprocess(scenario: Scenario, seed: int = 0) -> Library:
    """Build the library: a cover of each region with attractor basins.

    Deterministic for a fixed (scenario, seed). Each region draws from its
    own seeded rng, so region builds are independent (their counts go to
    the shared ``scenario.counters``; see the module docstring). Runs no
    search and walks only from the region, whose states come from
    ``scenario.region_reach``. One memo per attractor builds its entry
    with ``_cover_entry``, as the loader does, and then finds the next
    candidates with ``_frontier``. Raises HomeInvalid when the home state
    fails validation.
    """
    if not cspace.is_valid(scenario, scenario.s_home):
        raise HomeInvalid(f"home state {scenario.s_home} is invalid")
    region_covers = []
    for region in scenario.regions:
        rng = random.Random(f"{seed}:{region.id}")
        covered, excluded = scenario.region_reach[region]
        region_states = dict.fromkeys(sorted(covered | excluded))
        done: set[Config] = set()
        entries: list[CoverEntry] = []
        frontier: frozenset[Config] = frozenset()
        while True:
            cand = sample_valid_uncovered(region_states, done, frontier, rng)
            if cand is None:
                break
            if cand in excluded:
                done.add(cand)
                continue
            descent = _home_descent(scenario, cand)
            entries.append(_cover_entry(descent, covered))
            done |= entries[-1].members
            frontier = _frontier(descent, covered - done)
        region_covers.append(RegionCover(region.id, tuple(entries), covered, excluded))
    return Library(scenario.fingerprint, scenario.s_home, tuple(region_covers))


# ---------------------------------------------------------------------------
# persistence: versioned container of each region's attractors


def library_to_payload(library: Library) -> dict:
    return {
        "format_version": LIBRARY_FORMAT_VERSION,
        "scenario_fingerprint": library.fingerprint,
        "regions": [
            {"id": rc.region_id, "attractors": [list(e.attractor) for e in rc.entries]}
            for rc in library.regions
        ],
    }


def library_from_payload(payload: dict, scenario: Scenario) -> Library:
    """Decode a library payload, and derive the rest from its scenario.

    Payload regions pair with the scenario's regions by position, and
    ``_region_cover`` builds each region's cover from its stored
    attractors, so no member, home path, step bound, rep path, covered or
    excluded set can be claimed by the file. Raises LibraryVersionError
    for any format version but the current one (an older file's message
    names the command that rebuilds it), FingerprintMismatch for another
    scenario's library, and CorruptLibrary for a structural defect: region
    ids (in order) other than the scenario's, an attractor that is not a
    list whose tuple passes ``cspace.in_bounds`` (ints, not bools or
    floats) and names a covered state of its region, an attractor listed
    twice in a region (``preprocess`` never repeats one), or a covered goal
    that reaches none of its region's attractors. Keys it does not name are
    not read, so an ``s_home``, a ``max_descent_steps`` or a ``rep_path``
    written into the file, as older formats stored them, changes nothing
    (``bench.load_experiment_config`` refuses such keys).
    """
    try:
        version = payload["format_version"]
        if version != LIBRARY_FORMAT_VERSION:
            message = f"unsupported library format_version {version!r}"
            if type(version) is int and version < LIBRARY_FORMAT_VERSION:
                message += "; rebuild it with: coverplan preprocess --scenario ... --out ..."
            raise LibraryVersionError(message)
        if payload["scenario_fingerprint"] != scenario.fingerprint:
            raise FingerprintMismatch("library was built for a different scenario")
        ids = [rc["id"] for rc in payload["regions"]]
        if ids != [region.id for region in scenario.regions]:
            raise CorruptLibrary(f"library regions {ids} are not the scenario's, in its order")
        regions = []
        for region, rc in zip(scenario.regions, payload["regions"]):
            covered = scenario.region_reach[region][0]
            attractors = []
            for a in rc["attractors"]:
                q = tuple(a) if type(a) is list else None
                if not cspace.in_bounds(scenario, q) or q not in covered:
                    raise CorruptLibrary(
                        f"attractor {a!r} is not a covered state of region {region.id!r}"
                    )
                if q in attractors:
                    raise CorruptLibrary(f"attractor {a!r} is listed twice in region {region.id!r}")
                attractors.append(q)
            regions.append(_region_cover(scenario, region, attractors))
        return Library(scenario.fingerprint, scenario.s_home, tuple(regions))
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise CorruptLibrary(f"malformed library payload: {exc}") from exc


def save_library(library: Library, path) -> None:
    """Write the library container as UTF-8; byte-stable for identical libraries."""
    cspace.write_json_file(path, cspace.canonical_json(library_to_payload(library)))


def load_library(path, scenario: Scenario) -> Library:
    """Read a library with ``cspace.read_json_file`` and verify it against
    the scenario it must match; a file that cannot be read, or whose
    document is not a JSON object, raises CorruptLibrary."""
    payload = cspace.read_json_file(path, CorruptLibrary, "library file")
    return library_from_payload(payload, scenario)
