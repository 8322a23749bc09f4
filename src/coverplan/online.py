"""Online phase: constant-time initial plans from the preprocessed library.

A query is a pointer chase. The goal resolves to its cover entry with one
dict lookup in the library's goal index; the entry's descent pointers,
derived when the library was built or loaded, lead from the goal to its
attractor in at most max_descent_steps moves (no collision checks, no
navigation values, no search); and the reversed home path of the start
is joined to the home path of the goal in one tuple concatenation.
The optional refinement stage then spends whatever remains of the time
budget improving that path.

A start is served the same way from any potential state: home, a state of
a representative path, a covered goal, or a state of the last executed
path. The PotentialStateIndex keeps only what the library lacks (rep-path
positions and the executed path); covered goals go through the library's
goal index. When a state is both on a rep path and a covered goal, the
earlier region in library order decides which it is. A chained start, the
end of the last executed path, reads the home path stored for it when the
path was registered, so it costs no pointer chase.

The index also keeps the last query's goal with its home path (the
pointer chase ``connect`` gave), one slot that the next query replaces.
Registering the path that the last query returned therefore costs O(1)
in its length: it is taken without a check, and its end, that goal, is
looked up in the slot instead of being chased again. The executed path
itself is the only record of its states; looking up a state in the
middle of it scans the path.

The library is immutable and shareable across concurrent queries. A query
only reads the scenario's fields and tables, but it adds its operation
counts to ``scenario.counters``, so concurrent queries on one scenario mix
their counts; the paths they return do not depend on the counters. The
PotentialStateIndex mutates between sequential queries (a query records
the path it returned and its goal's home path, a registration records
the executed path) and must be serialized per robot (single writer).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .cover import CoverEntry, CoverHit, Library
from .cspace import Config, Scenario
from .errors import DescentStalled, GoalUncovered, StaleLibrary, StartNotPotential
from .search import Path, RefineReport, _refine, check_path, concat_paths


def find_rep_path(library: Library, q: Config) -> CoverHit | None:
    """Pure lookup of the cover entry holding q (lowest entry id on overlap).

    Returns None when q is outside every region or in an exclusion set.
    One dict lookup: no planning, no collision checks.
    """
    return library.goal_index.get(q)


def connect(entry: CoverEntry, q: Config) -> Path:
    """Extend the entry's representative path from its attractor out to q.

    Follows the entry's descent pointers from q to the attractor, so the
    step count is bounded by its max_descent_steps and no collision
    checks run. A representative path may pass through q on its way to the
    attractor; the result is truncated at its first arrival at q so q
    appears exactly once, at the end. An entry that ``preprocess`` or the
    loader built derives its pointers and bound from the same walks, so
    DescentStalled (a missing pointer, or a chase that outruns
    max_descent_steps) comes only from a hand-built or stale entry.
    """
    next_member = entry.next_member
    if q not in next_member:
        raise ValueError(f"{q} is not a member of the entry's basin")
    bound = entry.max_descent_steps
    attractor = entry.attractor
    down = [q]
    cur = q
    while cur != attractor:
        if len(down) > bound:
            raise DescentStalled(f"descent from {q} exceeded {bound} steps")
        cur = next_member.get(cur)
        if cur is None:
            raise DescentStalled(f"no descent pointer at {down[-1]}")
        down.append(cur)
    down.reverse()
    configs = entry.rep_path.configs + tuple(down[1:])
    return Path(configs[: configs.index(q) + 1])


# ---------------------------------------------------------------------------
# potential states


class PotentialStateIndex:
    """Start states the planner can serve without searching.

    A potential state is home, a representative-path state, a covered goal
    or a state of the most recently executed path. The index stores only
    what the library does not already hold:

    - ``rep_states``: each representative-path state -> (its first rep
      path, its position there);
    - ``goal_path``: the goal of the last ``query`` given this index and
      its home path, ``(goal, connect(hit.entry, goal))`` (None before the
      first; a query whose start is its goal leaves it as it was). Only
      ``query`` writes it and ``path_home_to`` reads it, so it holds one
      goal whatever the number of queries;
    - ``executed_path``: the last registered executed path, the only
      record of its states (a mid-path lookup scans it and takes a state's
      last position), and ``anchor``, the path from home to its end (both
      None until a path is registered). The anchor is what the lookup order
      gives for the end, resolved once at registration; ``path_home_to``
      returns it for the end itself. Only one executed path is kept, which
      bounds memory and matches a robot sitting at the end of its last
      motion;
    - ``planned``: the path object that the last ``query`` given this index
      returned (None before the first), which ``update_potential_index``
      registers without re-checking it.

    Covered goals are answered by ``library.goal_index``. Lookups try home,
    ``rep_states``, the goal index and the executed path, in that order.
    Regions take priority in library order, and within a region rep-path
    states come before covered goals, so a rep-path state that an earlier
    region covers as a goal is left out of ``rep_states`` and served as
    that goal. The index is single-writer: queries and registrations that
    share one must be serialized.
    """

    def __init__(self, scenario: Scenario, library: Library):
        self.scenario = scenario
        self.library = library
        self.rep_states: dict[Config, tuple[Path, int]] = {}
        goal_index = library.goal_index
        earlier: set[str] = set()  # ids of the regions already walked
        for rc in library.regions:
            for entry in rc.entries:
                rep = entry.rep_path
                for k, q in enumerate(rep.configs):
                    if q in self.rep_states:
                        continue
                    hit = goal_index.get(q)
                    if hit is None or hit.region_id not in earlier:
                        self.rep_states[q] = (rep, k)
            earlier.add(rc.region_id)
        self.goal_path: tuple[Config, Path] | None = None
        self.executed_path: Path | None = None
        self.anchor: Path | None = None
        self.planned: Path | None = None

    def __contains__(self, q: Config) -> bool:
        return (
            q == self.library.s_home
            or q in self.rep_states
            or q in self.library.goal_index
            or (self.executed_path is not None and q in self.executed_path.configs)
        )


def path_home_to(index: PotentialStateIndex, s: Config) -> Path:
    """Constant-time path from home to a potential state. Never plans.

    Home comes first. The end of the last executed path (a chained start)
    then returns ``index.anchor`` itself. Otherwise, in the lookup order:
    rep-path states take the stored prefix; covered goals take lookup +
    pointer chase, unless the goal is the one in ``index.goal_path``, whose
    stored path is returned; executed-path states take the stored anchor
    plus the executed path from its end back to the state's last position
    there. The anchor was resolved at registration from lookups that never
    change, and for the end the executed branch adds nothing to it, so the
    shortcut gives what the order gives.
    """
    library = index.library
    if s == library.s_home:
        return Path((s,))
    executed_path = index.executed_path
    if executed_path is not None and s == executed_path.configs[-1]:
        return index.anchor
    rep = index.rep_states.get(s)
    if rep is not None:
        path, k = rep
        return Path(path.configs[: k + 1])
    hit = find_rep_path(library, s)
    if hit is not None:
        slot = index.goal_path
        if slot is not None and slot[0] == s:
            return slot[1]
        return connect(hit.entry, s)
    if executed_path is not None:
        back = executed_path.configs[::-1]
        if s in back:
            # home -> end of the executed path, then back along it to s
            return concat_paths(index.anchor, Path(back[: back.index(s) + 1]))
    raise StartNotPotential(f"{s} is not a potential state")


def update_potential_index(index: PotentialStateIndex, executed_path: Path) -> PotentialStateIndex:
    """Register the states of the most recently executed path (in place).

    The anchor path home -> end is resolved before the previous executed
    path is dropped, so chains of sequential queries stay constant-time.
    When the end is not a potential state but the start is, the anchor is
    the start's home path followed by the executed path. When neither end
    is, StartNotPotential is raised naming both and the index is left
    unchanged. Duplicate states keep their last position (shortest suffix).

    The path the last query on this index returned (``index.planned``, the
    same object) is a valid walk by construction and is taken as it is.
    Its end is that query's goal, whose home path is the anchor, a stored
    rep-path prefix or the ``goal_path`` the query stored, so registering
    it does no work that grows with the path's length. Any other path must
    pass ``path_is_valid``, or InvalidPath is raised and the index is left
    unchanged, since later queries would hand its steps out as plans.
    """
    if executed_path is not index.planned:
        check_path(index.scenario, executed_path)
    start, end = executed_path.configs[0], executed_path.configs[-1]
    try:
        anchor = path_home_to(index, end)
    except StartNotPotential:
        try:
            anchor = concat_paths(path_home_to(index, start), executed_path)
        except StartNotPotential:
            raise StartNotPotential(
                f"neither end of the executed path, {start} or {end}, is a potential state"
            ) from None
    index.executed_path = executed_path
    index.anchor = anchor
    return index


# ---------------------------------------------------------------------------
# queries


@dataclass(frozen=True)
class QueryRequest:
    start: Config
    goal: Config
    budget_ms: float = 100.0
    refine: bool = True

    def __post_init__(self):
        if not self.budget_ms > 0:  # also rejects nan
            raise ValueError("budget_ms must be positive")


@dataclass
class QueryResult:
    path: Path
    initial_cost: float
    lookup_ms: float
    connect_ms: float
    refine_ms: float
    optimal_flag: bool = False
    refine_report: RefineReport | None = None

    @property
    def final_cost(self) -> float:
        return self.path.cost


def query(
    scenario: Scenario,
    library: Library,
    request: QueryRequest,
    index: PotentialStateIndex | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> QueryResult:
    """Answer a start -> goal request from the library, then refine.

    The pre-refinement work is lookups plus a bounded pointer chase and
    path assembly: zero collision checks, zero expansions, and at most
    len(rep_start) + len(rep_goal) + 2 * max_descent_steps elementary
    steps (starts registered from an executed path substitute their stored
    anchor length for the rep-path term). The budget clock starts at
    request receipt; lookup and connect time are deducted from the
    refinement budget. A given ``index`` must be one built for this
    ``library`` (that object), since its lookups answer for that library,
    or ValueError is raised; it records the returned path as its ``planned``
    path and the goal's home path as its ``goal_path``.
    """
    if index is not None and index.library is not library:
        raise ValueError("the index was built for another library")
    t0 = clock()
    deadline = t0 + request.budget_ms / 1000.0

    hit = find_rep_path(library, request.goal)
    if hit is None:
        raise GoalUncovered(f"goal {request.goal} is not covered by any region")
    t_lookup = clock()

    try:
        if request.start == request.goal:
            initial = Path((request.start,))
        else:
            home_to_goal = connect(hit.entry, request.goal)
            if index is not None:
                index.goal_path = (request.goal, home_to_goal)
            if request.start == library.s_home:
                initial = home_to_goal
            else:
                starts = index if index is not None else PotentialStateIndex(scenario, library)
                home_to_start = path_home_to(starts, request.start)
                # both paths leave home: back along the first, out along the second
                initial = Path(home_to_start.configs[::-1] + home_to_goal.configs[1:])
    except DescentStalled as exc:
        raise StaleLibrary(str(exc)) from exc
    scenario.counters.elementary_steps += len(initial.configs)
    t_connect = clock()

    result = QueryResult(
        path=initial,
        initial_cost=initial.cost,
        lookup_ms=(t_lookup - t0) * 1000.0,
        connect_ms=(t_connect - t_lookup) * 1000.0,
        refine_ms=0.0,
        optimal_flag=initial.cost == 0.0,
    )
    if request.refine and initial.cost > 0.0:
        # the seed is built from library pointers, so it skips the seed check
        refined, report = _refine(scenario, request.start, request.goal, initial, deadline, clock)
        result.path = refined
        result.refine_ms = (clock() - t_connect) * 1000.0
        result.optimal_flag = report.optimal_flag
        result.refine_report = report
    if index is not None:
        index.planned = result.path
    return result
