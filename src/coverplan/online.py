"""Online phase: constant-time initial plans from the preprocessed library.

A query is a pointer chase. The goal resolves to its cover entry with one
dict lookup in the library's goal index; the stored descent pointers lead
from the goal to the entry's attractor in at most max_descent_steps moves
(no collision checks, no navigation values, no search); and the reversed
home path of the start is concatenated with the home path of the goal.
The optional refinement stage then spends whatever remains of the time
budget improving that path.

The library and scenario are immutable and shareable across concurrent
queries; the PotentialStateIndex mutates between sequential queries and
must be serialized per robot (single writer).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .cover import CoverEntry, CoverHit, Library
from .cspace import Config, Scenario
from .errors import DescentStalled, GoalUncovered, StaleLibrary, StartNotPotential
from .search import Path, RefineReport, anytime_refine, concat_paths


def find_rep_path(library: Library, q: Config) -> CoverHit | None:
    """Pure lookup of the cover entry holding q (lowest entry id on overlap).

    Returns None when q is outside every region or in an exclusion set.
    One dict lookup: no planning, no collision checks.
    """
    return library.goal_index.get(q)


def connect(entry: CoverEntry, q: Config) -> Path:
    """Extend the entry's representative path from its attractor out to q.

    Follows the stored descent pointers from q to the attractor, so the
    step count is bounded by the recorded max_descent_steps and no
    collision checks run. A representative path may pass through q on its
    way to the attractor; the result is truncated at its first arrival at
    q so q appears exactly once, at the end. Raises DescentStalled when a
    pointer is missing or the chase outruns max_descent_steps (stale or
    tampered library).
    """
    neighborhood = entry.neighborhood
    next_member = neighborhood.next_member
    if q not in next_member:
        raise ValueError(f"{q} is not a member of the entry's neighborhood")
    bound = neighborhood.max_descent_steps
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
    return Path.from_configs(configs[: configs.index(q) + 1])


# ---------------------------------------------------------------------------
# potential states


@dataclass(frozen=True)
class Provenance:
    """Why a configuration is a potential state."""

    kind: str  # "home" | "rep_path" | "goal_region" | "executed"
    region_id: str | None = None
    entry_index: int | None = None
    position: int | None = None


class PotentialStateIndex:
    """Start states the planner can serve without searching.

    Static entries come from the library (home, representative-path
    states, covered goal-region states). Beyond those, only the most
    recently executed path is registered, which bounds memory and matches
    a robot sitting at the end of its last motion.
    """

    def __init__(self, scenario: Scenario, library: Library):
        self.scenario = scenario
        self.library = library
        self._static: dict[Config, Provenance] = {library.s_home: Provenance("home")}
        for rc in library.regions:
            for i, entry in enumerate(rc.entries):
                for k, q in enumerate(entry.rep_path.configs):
                    self._static.setdefault(
                        q, Provenance("rep_path", rc.region_id, i, position=k)
                    )
            for i, entry in enumerate(rc.entries):
                for q in entry.members & rc.covered:
                    self._static.setdefault(q, Provenance("goal_region", rc.region_id, i))
        self._executed: dict[Config, int] = {}
        self._executed_path: Path | None = None
        self._executed_anchor: Path | None = None  # home -> executed-path end

    def provenance(self, q: Config) -> Provenance | None:
        prov = self._static.get(q)
        if prov is not None:
            return prov
        pos = self._executed.get(q)
        if pos is not None:
            return Provenance("executed", position=pos)
        return None

    def __contains__(self, q: Config) -> bool:
        return self.provenance(q) is not None


def path_home_to(index: PotentialStateIndex, s: Config) -> Path:
    """Constant-time path from home to a potential state. Never plans.

    rep_path states take the stored prefix; goal-region states take
    lookup + pointer chase; executed-path states take the stored anchor
    plus the reversed executed suffix.
    """
    prov = index.provenance(s)
    if prov is None:
        raise StartNotPotential(f"{s} is not a potential state")
    if prov.kind == "home":
        return Path((s,), 0.0)
    if prov.kind == "rep_path":
        rc = index.library.region(prov.region_id)
        rep = rc.entries[prov.entry_index].rep_path
        return Path.from_configs(rep.configs[: prov.position + 1])
    if prov.kind == "goal_region":
        return connect(find_rep_path(index.library, s).entry, s)
    # executed: home -> end, then back along the executed path to s
    suffix = Path.from_configs(index._executed_path.configs[prov.position :])
    if len(suffix.configs) == 1:
        return index._executed_anchor
    return concat_paths(index._executed_anchor, suffix.reverse())


def update_potential_index(index: PotentialStateIndex, executed_path: Path) -> PotentialStateIndex:
    """Register the states of the most recently executed path (in place).

    The anchor path home -> end is resolved before the previous executed
    path is dropped, so chains of sequential queries stay constant-time.
    Duplicate states keep their last position (shortest suffix).
    """
    end = executed_path.configs[-1]
    anchor = path_home_to(index, end)
    index._executed = {q: k for k, q in enumerate(executed_path.configs)}
    index._executed_path = executed_path
    index._executed_anchor = anchor
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
    final_cost: float
    lookup_ms: float
    connect_ms: float
    refine_ms: float
    optimal_flag: bool = False
    refine_report: RefineReport | None = None


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
    refinement budget.
    """
    t0 = clock()
    deadline = t0 + request.budget_ms / 1000.0

    hit = find_rep_path(library, request.goal)
    if hit is None:
        raise GoalUncovered(f"goal {request.goal} is not covered by any region")
    t_lookup = clock()

    try:
        if request.start == request.goal:
            initial = Path((request.start,), 0.0)
        else:
            home_to_goal = connect(hit.entry, request.goal)
            if request.start == library.s_home:
                initial = home_to_goal
            else:
                if index is None:
                    index = PotentialStateIndex(scenario, library)
                home_to_start = path_home_to(index, request.start)
                initial = concat_paths(home_to_start.reverse(), home_to_goal)
    except DescentStalled as exc:
        raise StaleLibrary(str(exc)) from exc
    scenario.counters.elementary_steps += len(initial.configs)
    t_connect = clock()

    result = QueryResult(
        path=initial,
        initial_cost=initial.cost,
        final_cost=initial.cost,
        lookup_ms=(t_lookup - t0) * 1000.0,
        connect_ms=(t_connect - t_lookup) * 1000.0,
        refine_ms=0.0,
        optimal_flag=initial.cost == 0.0,
    )
    if request.refine and initial.cost > 0.0:
        refined, report = anytime_refine(
            scenario, request.start, request.goal, initial, deadline=deadline, clock=clock
        )
        result.path = refined
        result.final_cost = refined.cost
        result.refine_ms = (clock() - t_connect) * 1000.0
        result.optimal_flag = report.optimal_flag
        result.refine_report = report
    return result
