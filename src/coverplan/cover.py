"""Offline phase: decompose each goal region into attractor neighborhoods.

Every region is enumerated exhaustively up front (the lattices are desk
scale). Attractor candidates are drawn from the previous basin's cached
frontier when possible, otherwise uniformly from the remaining uncovered
states. A candidate that the scenario's ``home_distance`` table does not
hold has no path from home and lands in an explicit exclusion set, which
is what guarantees termination on a finite lattice. For every other
candidate, a shortest representative path from home is read off the same
table, with no search, and the attractor's greedy-descent basin is grown
around it. Each accepted attractor becomes one CoverEntry, which holds
the basin's descent pointers, its step bound and the path.

An entry's member set is the full descent basin: every valid config
whose iterated steepest-descent walk of the navigation value reaches
the attractor. Each member stores a descent pointer, the next
state of its walk (the attractor points to itself), and the pointer lands
on a member: the tail of a successful walk is a successful walk. Following
pointers from a member therefore replays the offline walk exactly, in at
most ``max_descent_steps`` moves, with no collision check and no
navigation value; that is the whole of the online connect.

Descent compares squared navigation values, as integers: the sum over
axes of the squared wrapped index distance, read from a per-attractor
table that each walk builds once. The walk is the one the float value
gives: ``math.sqrt`` is correctly rounded and strictly monotone on these
integers, so every argmin, every strict decrease and every tie is the same.

Remark (offline only): the same basin property means no valid non-member
neighbour of a member q can beat q's pointer on navigation value or
tie-break order (it would have been the walk's next state, and so a
member). So an argmin restricted to the stored members would also
reproduce the walk; the stored pointers make that argmin unnecessary.

A region's covered goals are its valid states that ``home_distance``
holds, and the rest of its valid states are excluded: every reachable
state lies in some basin, since the sampler draws until none is left.
Preprocessing and the loader both read this split from the scenario's
``region_reach`` table, so a library file (format 3) stores the cover
alone: per region its id and entries, per entry its attractor, members,
descent moves and step bound. The covered and excluded sets and the rep
paths are read off the scenario at load, and what the file does store is
checked against it.

Regions are independent; builders may run concurrently. The merged
library is immutable afterward.
"""

from __future__ import annotations

import bisect
import itertools
import json
import operator
import random
from collections import deque
from collections.abc import Collection, Set
from dataclasses import dataclass, field

from . import cspace
from .cspace import Config, Scenario
from .errors import (
    BoundExceeded,
    CorruptLibrary,
    DescentStalled,
    FingerprintMismatch,
    HomeInvalid,
    LibraryVersionError,
)
from .search import Path

LIBRARY_FORMAT_VERSION = 3


@dataclass(frozen=True)
class CoverEntry:
    """One cover unit: an attractor, its descent basin and its home path.

    ``next_member`` maps each member to the next state of its descent walk,
    which is itself a member; the attractor maps to itself. Its keys are
    the member set, and no walk takes more than ``max_descent_steps`` moves.
    """

    attractor: Config
    next_member: dict[Config, Config] = field(hash=False)
    max_descent_steps: int
    rep_path: Path

    @property
    def members(self) -> Set[Config]:
        return self.next_member.keys()


@dataclass(frozen=True)
class RegionCover:
    """A region's cover entries plus its reachability bookkeeping.

    ``covered`` is the set of the region's valid states that home reaches,
    each inside some entry's basin; ``excluded`` the rest of its valid
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
class CoverHit:
    """Lookup result: which region/entry covers a configuration."""

    region_id: str
    entry_index: int
    entry: CoverEntry


@dataclass(frozen=True)
class Library:
    """Preprocessing output: per-region covers bound to one scenario.

    ``goal_index`` maps every covered state to its cover entry, built once
    at construction from the frozen regions. A state covered twice goes to
    its first region and, within it, to the lowest entry id.
    """

    fingerprint: str
    dims: tuple[int, ...]
    s_home: Config
    regions: tuple[RegionCover, ...]
    goal_index: dict[Config, CoverHit] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index: dict[Config, CoverHit] = {}
        for rc in self.regions:
            for i, entry in enumerate(rc.entries):
                hit = CoverHit(rc.region_id, i, entry)
                for q in entry.members & rc.covered:
                    index.setdefault(q, hit)
        object.__setattr__(self, "goal_index", index)


# ---------------------------------------------------------------------------
# greedy descent


def _squared_deltas(scenario: Scenario, attractor: Config) -> tuple[tuple[int, ...], ...]:
    """Per axis, each index c's squared wrapped distance to the attractor's
    a: ``axis_squares`` at |c - a|, which is symmetric on a wrapping axis."""
    if not cspace.in_bounds(scenario, attractor):
        raise ValueError(f"attractor {attractor} is not a lattice state")
    return tuple(sq[a:0:-1] + sq[: len(sq) - a] for sq, a in zip(scenario.axis_squares, attractor))


def greedy_step(scenario: Scenario, q: Config, attractor: Config, squares=None) -> Config | None:
    """One steepest-descent move of the navigation value, or None at a stall.

    Candidates are the valid successors of the lattice state ``q``, from
    the scenario's neighbour table. The move must strictly decrease the
    navigation value, compared squared, as an integer sum over ``squares``
    (``_squared_deltas``, which a walk builds once); ties break lexicographically.
    """
    if squares is None:
        squares = _squared_deltas(scenario, attractor)
    nav_q = sum(map(operator.getitem, squares, q))
    best: Config | None = None
    best_nav = nav_q
    for nb in scenario.neighbor_table[q]:
        if not cspace.is_valid(scenario, nb):
            continue
        nav = sum(map(operator.getitem, squares, nb))
        if nav < best_nav or (nav == best_nav and best is not None and nb < best):
            best = nb
            best_nav = nav
    return best


def descend(scenario: Scenario, q: Config, attractor: Config, step_bound: int | None = None) -> Path:
    """Run greedy descent q -> attractor. No search, only successor evaluation.

    This is the offline walk, with collision checks; online, connect
    follows the pointers that construct_neighborhood recorded from the same
    walk. Raises ValueError for an attractor off the lattice, DescentStalled
    when no strictly improving move exists and BoundExceeded when the walk
    outruns ``step_bound``.
    """
    squares = _squared_deltas(scenario, attractor)
    configs = [q]
    cur = q
    while cur != attractor:
        if step_bound is not None and len(configs) - 1 >= step_bound:
            raise BoundExceeded(f"descent from {q} exceeded {step_bound} steps")
        nxt = greedy_step(scenario, cur, attractor, squares)
        if nxt is None:
            raise DescentStalled(f"descent stalled at {cur} toward {attractor}")
        configs.append(nxt)
        cur = nxt
    return Path(tuple(configs))


def construct_neighborhood(
    scenario: Scenario, attractor: Config
) -> tuple[dict[Config, Config], int, frozenset[Config]]:
    """Grow the attractor's full descent basin by outward expansion.

    Returns (next_member, max_descent_steps, frontier): each member's
    descent pointer (the attractor's is itself), the longest member walk
    in moves, and the valid states adjacent to members whose own descent
    walk does not reach the attractor.
    """
    # Memoized walk results: config -> steps to attractor, or -1 for failure,
    # and config -> the walk's next state.
    steps: dict[Config, int] = {attractor: 0}
    next_state: dict[Config, Config] = {attractor: attractor}
    squares = _squared_deltas(scenario, attractor)

    def walk(q: Config) -> int:
        # Strict descent means no cycles: the walk ends at the attractor,
        # a stall, or a previously memoized state.
        chain: list[Config] = []
        cur = q
        while cur not in steps:
            chain.append(cur)
            nxt = greedy_step(scenario, cur, attractor, squares)
            if nxt is None:
                steps[cur] = -1
                break
            next_state[cur] = nxt
            cur = nxt
        base = steps[cur]
        for dist, state in enumerate(reversed(chain), start=1):
            steps[state] = -1 if base < 0 else base + dist
        return steps[q]

    members = {attractor}
    frontier: set[Config] = set()
    queue = deque([attractor])
    seen = {attractor}
    max_steps = 0
    neighbors = scenario.neighbor_table
    while queue:
        q = queue.popleft()
        for nb in neighbors[q]:
            if nb in seen or not cspace.is_valid(scenario, nb):
                continue
            seen.add(nb)
            n_steps = walk(nb)
            if n_steps >= 0:
                members.add(nb)
                queue.append(nb)
                max_steps = max(max_steps, n_steps)
            else:
                frontier.add(nb)
    return {q: next_state[q] for q in members}, max_steps, frozenset(frontier)


# ---------------------------------------------------------------------------
# cover construction


def sample_valid_uncovered(
    region_states: Collection[Config],
    done: set[Config],
    frontier_cache: frozenset[Config],
    rng: random.Random,
) -> Config | None:
    """Next attractor candidate: frontier states first, else uniform.

    ``region_states`` iterates in lexicographic order (preprocess passes a
    dict, for one-lookup membership); ``done`` holds states already covered
    or excluded. Candidates are drawn from a sorted list, so the pick is
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
    one step closer to home. The loader calls it for every entry."""
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


def preprocess(scenario: Scenario, seed: int = 0) -> Library:
    """Build the library: a cover of each region with attractor basins.

    Deterministic for a fixed (scenario, seed). Each region draws from its
    own seeded rng, so region builds are independent and could run
    concurrently. Runs no search: reachability and the rep paths come from
    ``scenario.home_distance``. Raises HomeInvalid when the home state
    fails validation.
    """
    if not cspace.is_valid(scenario, scenario.s_home):
        raise HomeInvalid(f"home state {scenario.s_home} is invalid")
    home_distance = scenario.home_distance
    region_covers = []
    for region in scenario.regions:
        rng = random.Random(f"{seed}:{region.id}")
        region_states = dict.fromkeys(cspace.region_configs(scenario, region))
        covered: set[Config] = set()
        excluded: set[Config] = set()
        entries: list[CoverEntry] = []
        frontier_cache: frozenset[Config] = frozenset()
        while True:
            cand = sample_valid_uncovered(region_states, covered | excluded, frontier_cache, rng)
            if cand is None:
                break
            if cand not in home_distance:
                excluded.add(cand)
                continue
            next_member, max_steps, frontier = construct_neighborhood(scenario, cand)
            entries.append(CoverEntry(cand, next_member, max_steps, _home_path(scenario, cand)))
            covered |= next_member.keys() & region_states
            frontier_cache = frontier
        region_covers.append(RegionCover(region.id, tuple(entries), *scenario.region_reach[region]))
    return Library(
        fingerprint=scenario.fingerprint,
        dims=scenario.dims,
        s_home=scenario.s_home,
        regions=tuple(region_covers),
    )


# ---------------------------------------------------------------------------
# persistence: versioned container, delta-encoded member sets, descent moves


def _rank_strides(dims: tuple[int, ...]) -> tuple[int, ...]:
    strides = [1] * len(dims)
    for d in range(len(dims) - 2, -1, -1):
        strides[d] = strides[d + 1] * dims[d + 1]
    return tuple(strides)


def _ranks(configs, dims) -> list[int]:
    """Row-major lattice rank of each configuration, in order."""
    strides = _rank_strides(dims)
    return [sum(map(operator.mul, q, strides)) for q in configs]


def _deltas(ranks: list[int]) -> list[int]:
    """Sorted lattice ranks, delta encoded: [first, diff, diff, ...]."""
    return list(map(operator.sub, ranks, [0] + ranks[:-1]))


# A move is axis * 2 + (1 if +1 else 0), its slot in a row of the scenario's
# move_table, stored as one base-36 digit; the attractor, which has no move,
# is "-". One character per member keeps the JSON parse of the moves string
# to one token.
MOVE_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
NO_MOVE = "-"


def _move_of_step(dims) -> dict[int, str]:
    """Rank step -> move character, for a lattice of these dims.

    A move changes the rank by its axis stride, or, across a wrapping
    axis's seam, by n - 1 strides the other way. These steps are distinct:
    a wrapping axis has n >= 4, and n - 1 strides of one axis lie strictly
    between one stride of it and one stride of the next axis out.
    """
    move_of_step = {0: NO_MOVE}
    for axis, (n, stride) in enumerate(zip(dims, _rank_strides(dims))):
        down, up = MOVE_DIGITS[2 * axis], MOVE_DIGITS[2 * axis + 1]
        if n >= 4:
            move_of_step.update({(n - 1) * stride: down, -(n - 1) * stride: up})
        move_of_step.update({-stride: down, stride: up})
    return move_of_step


def _encode_entry(entry: CoverEntry, dims, move_of_step) -> dict:
    """An entry's payload. One ranking of its members serves both the
    member set and the descent moves, one character per member in rank
    order, read from ``move_of_step`` (``_move_of_step(dims)``)."""
    members = sorted(entry.members)  # lexicographic order is rank order
    ranks = _ranks(members, dims)
    rank = dict(zip(members, ranks))
    targets = map(rank.__getitem__, map(entry.next_member.__getitem__, members))
    return {
        "attractor": list(entry.attractor),
        "members": _deltas(ranks),
        "moves": "".join(map(move_of_step.__getitem__, map(operator.sub, targets, ranks))),
        "max_descent_steps": entry.max_descent_steps,
    }


def _decode_ranks(deltas, size: int) -> list[int]:
    """Lattice ranks of a delta-encoded set, strictly increasing in [0, size)."""
    ranks = list(itertools.accumulate(deltas))
    if ranks and (ranks[0] < 0 or ranks[-1] >= size or min(deltas[1:], default=1) <= 0):
        raise CorruptLibrary(f"rank list is not strictly increasing within [0, {size})")
    return ranks


def _decode_pointers(members, rows, moves, attractor, slot_of) -> dict[Config, Config]:
    """Member -> descent successor, from one move character per member.

    ``members`` are the entry's states in rank order, ``rows`` their
    ``move_table`` rows and ``slot_of`` maps each move character to its
    row slot. Every move must stay on the lattice and land on a member;
    the attractor's move, and only its move, is ``NO_MOVE``. The work is
    done by whole-list operations, since a library holds several moves per
    lattice state.
    """
    if len(moves) != len(members):
        raise CorruptLibrary(f"{len(moves)} descent moves for {len(members)} members")
    if not slot_of.keys() >= set(moves):
        raise CorruptLibrary("descent moves hold a character that is no move of this lattice")
    at = bisect.bisect_left(members, attractor)
    if at == len(members) or members[at] != attractor:
        raise CorruptLibrary(f"attractor {attractor} is not one of its members")
    if moves.count(NO_MOVE) != 1 or moves[at] != NO_MOVE:
        raise CorruptLibrary(f"the attractor, and no other member, must have move {NO_MOVE!r}")
    targets = list(map(operator.getitem, rows, map(slot_of.__getitem__, moves)))
    targets[at] = attractor
    next_member = dict(zip(members, targets))
    if not all(map(next_member.__contains__, targets)):
        i = next(i for i, target in enumerate(targets) if target not in next_member)
        where = "the lattice" if targets[i] is None else "the member set"
        raise CorruptLibrary(f"descent move {moves[i]} of member {members[i]} leaves {where}")
    return next_member


def library_to_payload(library: Library) -> dict:
    dims = library.dims
    move_of_step = _move_of_step(dims)
    return {
        "format_version": LIBRARY_FORMAT_VERSION,
        "scenario_fingerprint": library.fingerprint,
        "dims": list(dims),
        "s_home": list(library.s_home),
        "regions": [
            {
                "id": rc.region_id,
                "entries": [_encode_entry(e, dims, move_of_step) for e in rc.entries],
            }
            for rc in library.regions
        ],
    }


def library_from_payload(payload: dict, scenario: Scenario) -> Library:
    """Decode a library payload, and derive the rest from its scenario.

    Payload regions pair with the scenario's regions by position. Each
    region's covered and excluded sets come from ``Scenario.region_reach``
    and each entry's rep path from ``_home_path``, so none of them can be
    claimed by the file. Raises LibraryVersionError for any format version but the
    current one (format 2, which stored those fields, included),
    FingerprintMismatch for another scenario's library, and CorruptLibrary
    for a structural defect: dims, a home or region ids (in order) other
    than the scenario's, a rank set that is not strictly increasing within
    the lattice, a member that home cannot reach, an attractor outside its
    member set, descent moves that do not match the members, a
    ``max_descent_steps`` that is not an int at least 0 (at least 1 for an
    entry with more than one member), or a covered goal in none of its
    region's entries. A member that home reaches is a valid state, so
    every pointer is a valid move; a pointer cycle, or a chase longer than
    ``max_descent_steps``, is found only when a query follows it.
    """
    try:
        version = payload["format_version"]
        if version != LIBRARY_FORMAT_VERSION:
            raise LibraryVersionError(f"unsupported library format_version {version}")
        fingerprint = payload["scenario_fingerprint"]
        if fingerprint != scenario.fingerprint:
            raise FingerprintMismatch("library was built for a different scenario")
        dims = tuple(payload["dims"])
        if dims != scenario.dims:
            raise CorruptLibrary(f"library dims {dims} differ from the scenario's {scenario.dims}")
        s_home = tuple(payload["s_home"])
        if s_home != scenario.s_home:
            raise CorruptLibrary(f"library home {s_home} is not the scenario's {scenario.s_home}")
        ids = [rc["id"] for rc in payload["regions"]]
        if ids != [region.id for region in scenario.regions]:
            raise CorruptLibrary(f"library regions {ids} are not the scenario's, in its order")
        # Rank r's state (None where home cannot reach it) and move row: both
        # tables are in row-major (= rank) order. The lists hold references;
        # no state is built.
        reachable = scenario.reachable_by_rank
        rows = list(scenario.move_table.values())
        size = len(reachable)
        slot_of = {MOVE_DIGITS[m]: m for m in range(2 * scenario.dof)}
        slot_of[NO_MOVE] = 0  # any slot: the attractor is then pointed at itself

        regions = []
        for region, rc in zip(scenario.regions, payload["regions"]):
            entries = []
            for e in rc["entries"]:
                attractor = tuple(e["attractor"])
                if not cspace.in_bounds(scenario, attractor):
                    raise CorruptLibrary(f"attractor {attractor} is not a lattice state")
                ranks = _decode_ranks(e["members"], size)
                members = list(map(reachable.__getitem__, ranks))
                if not all(members):  # states are non-empty tuples, so only a None fails
                    raise CorruptLibrary(f"entry {attractor} has a member home cannot reach")
                next_member = _decode_pointers(
                    members, list(map(rows.__getitem__, ranks)), e["moves"], attractor, slot_of
                )
                steps = e["max_descent_steps"]
                least = 1 if len(ranks) > 1 else 0  # a member besides the attractor moves
                if type(steps) is not int or steps < least:  # bool is an int subclass
                    raise CorruptLibrary(f"max_descent_steps {steps!r} is not an integer >= {least}")
                rep_path = _home_path(scenario, attractor)
                entries.append(CoverEntry(attractor, next_member, steps, rep_path))
            cover = RegionCover(region.id, tuple(entries), *scenario.region_reach[region])
            if set().union(*(e.members & cover.covered for e in entries)) != cover.covered:
                raise CorruptLibrary(f"a covered goal of region {region.id!r} is in no entry")
            regions.append(cover)
        return Library(
            fingerprint=fingerprint,
            dims=dims,
            s_home=s_home,
            regions=tuple(regions),
        )
    except (FingerprintMismatch, LibraryVersionError, CorruptLibrary):
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise CorruptLibrary(f"malformed library payload: {exc}") from exc


def save_library(library: Library, path) -> None:
    """Write the library container; byte-stable for identical libraries."""
    data = cspace.canonical_json(library_to_payload(library))
    with open(path, "w") as fh:
        fh.write(data)
        fh.write("\n")


def load_library(path, scenario: Scenario) -> Library:
    """Read and verify a library against the scenario it must match."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptLibrary(f"cannot read library file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptLibrary("library payload is not an object")
    return library_from_payload(payload, scenario)
