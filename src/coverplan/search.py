"""Lattice searches.

astar, anytime_refine and ara_star run one weighted-A* pass,
_AnytimeSearch.improve_path, over g-values and inconsistent states kept
from pass to pass as in ARA* (Likhachev, Gordon, Thrun, NIPS 2003).
astar is one pass from the start at a fixed weight. anytime_refine is
the path-seeded anytime search: the open list starts with every state of
an initial solution at its path cost, and the inflation schedule is
driven by the incumbent cost so that each pass above inflation 1 expands
at least one state; the inflation-1 pass that certifies the optimum may
expand none. Once the incumbent costs h(start), which no path undercuts,
that pass is recorded without being run. After every pass the incumbent
is read back as the goal's parent chain, and between passes only the
goal is put back on the open list. ara_star is the classic fixed-schedule
baseline, shortcut_path the random-restart smoothing baseline. astar and
ara_star use the wrapped Manhattan heuristic; anytime_refine raises it
with a landmark, the scenario's distances from home. Every search reads
its heuristic from a _HeuristicMemo, which builds what depends on the
goal once: per axis, each index's wrapped distance to the goal's. A
state's value is then one row entry per axis, summed, and one landmark
read; shortcut_path calls cspace.heuristic, the per-call definition. In
the same way the pass reads the scenario's neighbor_table and calls
cspace.is_valid once per neighbour; cspace.successors remains the
per-call definition of a state's successors.

All searches own their g-values, parents and open lists and only read
the scenario's fields and tables, but they add their counts (collision
checks, expansions) to the shared ``scenario.counters``, so concurrent
searches on one scenario mix their counts; the paths they return do not
depend on the counters. Deadlines are absolute instants on the injected
clock (monotonic wall clock by default): the shared pass checks it
before each selection, shortcut_path before each trial.

A Path is its states alone; its cost is its step count (unit-cost moves).
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass, field
from itertools import chain
from operator import getitem
from typing import Callable

from . import cspace
from .cspace import Config, Scenario
from .errors import InvalidPath, NoPath, Timeout

DEFAULT_DELTA = 1e-6

# The ARA* baseline's fixed schedule: weights 50, 45, ..., 5, 1.
ARA_W0 = 50.0
ARA_DW = 5.0

# shortcut_path stops after this many consecutive non-improving trials.
SHORTCUT_PATIENCE = 100


@dataclass(frozen=True)
class Path:
    """An ordered lattice path; every step is one unit-cost move."""

    configs: tuple[Config, ...]

    def __post_init__(self):
        if not self.configs:
            raise ValueError("a path has at least one configuration")

    @property
    def cost(self) -> float:
        return float(len(self.configs) - 1)

    @property
    def start(self) -> Config:
        return self.configs[0]

    @property
    def goal(self) -> Config:
        return self.configs[-1]

    def reverse(self) -> "Path":
        return Path(self.configs[::-1])


def concat_paths(a: Path, b: Path) -> Path:
    """Join two paths sharing a junction config (kept once)."""
    if a.configs[-1] != b.configs[0]:
        raise ValueError("paths do not share a junction configuration")
    return Path(a.configs + b.configs[1:])


def _path_defect(scenario: Scenario, path: Path) -> str | None:
    """The first defect of a path, as ``check_path``'s message, or None for
    a walk of valid lattice states: one pass that names the first state
    off the lattice or in collision, or the first step that is not one
    lattice move.

    ``cspace.in_bounds``'s rule is applied to the whole path first, in one
    type pass: every state a tuple, every coordinate an int. A tuple of
    ints is then a lattice state exactly when ``state_table`` holds it, so
    only a path that fails the pass calls ``in_bounds``, on each state the
    walk reaches, and a state it refuses leaves the lattice. Reads the
    scenario's ``state_table`` and ``neighbor_table``, with the answers of
    ``is_valid`` and ``successors`` but no counted collision check, so a
    check made after planning moves no SimClock reading.
    """
    configs = path.configs
    typed = set(map(type, configs)) == {tuple} and set(map(type, chain(*configs))) <= {int}
    states, neighbors = scenario.state_table, scenario.neighbor_table
    prev = None
    for q in configs:
        if not (typed or cspace.in_bounds(scenario, q)) or q not in states:
            return f"path state {q} leaves the lattice"
        if not states[q][0]:
            return f"path state {q} is in collision"
        if prev is not None and q not in neighbors[prev]:
            return f"path step {prev} -> {q} is not one lattice move"
        prev = q
    return None


def path_is_valid(scenario: Scenario, path: Path) -> bool:
    """Re-validate a path: states that are tuples of Python ints, a valid
    first state, then a valid lattice move per step; True when
    ``_path_defect`` finds nothing. A float, a bool, a list or a NumPy
    integer state is refused however it compares."""
    return _path_defect(scenario, path) is None


def check_path(scenario: Scenario, path: Path) -> None:
    """Refuse a path that fails ``path_is_valid``: raise InvalidPath with
    the message of ``_path_defect``, which names a state that is not a
    tuple of in-range ints or is in collision, or the first step that is
    not one lattice move."""
    defect = _path_defect(scenario, path)
    if defect is not None:
        raise InvalidPath(defect)


def _reconstruct(parent: dict, goal: Config) -> Path:
    """Follow parent pointers back from goal."""
    configs = [goal]
    while parent[configs[-1]] is not None:
        configs.append(parent[configs[-1]])
    configs.reverse()
    return Path(tuple(configs))


def astar(
    scenario: Scenario,
    start: Config,
    goal: Config,
    *,
    weight: float = 1.0,
    deadline: float | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> Path:
    """(Weighted) A* over the lattice: one shared weighted-A* pass at ``weight``.

    With weight 1 the result is optimal; with weight w >= 1 the cost is
    within w of optimal. Ties on f are broken by larger g, then
    lexicographic config order, so runs are fully deterministic. A closed
    state that gets a cheaper g takes it and the new parent but is not
    expanded again, so the path read back is at most g(goal) steps long.

    Raises Timeout when the deadline passes, NoPath when the frontier
    empties, the start is in collision or ``cspace.in_bounds`` refuses
    the start or the goal.
    """
    if not (math.isfinite(weight) and weight >= 1.0):
        raise ValueError(f"weight must be finite and >= 1, got {weight!r}")
    if not (cspace.in_bounds(scenario, start) and cspace.is_valid(scenario, start)):
        raise NoPath(f"start {start} is invalid")
    search = _AnytimeSearch(_HeuristicMemo(scenario, goal), {start: 0.0}, {start: None}, {start})
    if search.improve_path(weight, deadline, clock)[0] == "deadline":
        raise Timeout("search deadline expired")
    if goal not in search.g:
        raise NoPath(f"no path from {start}")
    return _reconstruct(search.parent, goal)


# ---------------------------------------------------------------------------
# the weighted-A* pass shared by astar and the anytime searches


class _HeuristicMemo(dict):
    """Heuristic values to one goal, computed on first lookup: wrapped
    Manhattan, raised to the differential landmark |d(q) - d(goal)| where
    the distance table ``landmark`` holds both (Goldberg and Harrelson,
    SODA 2005). Both terms are consistent, and valid neighbours are both
    in a flood-filled table or both out of it, so the max is consistent.

    What depends on the goal alone is computed here, once: ``rows``, per
    axis each index's wrapped distance to the goal's index as a float (the
    scenario's ``axis_offsets`` through ``cspace.axis_rows``), and d(goal).
    A lookup then sums one row entry per axis, the value of
    ``cspace.heuristic``, and reads the landmark once. A goal that
    ``cspace.in_bounds`` refuses (off the lattice, or not a tuple of ints)
    has no path, so it raises NoPath here.
    """

    def __init__(self, scenario: Scenario, goal: Config, landmark: dict[Config, int] | None = None):
        if not cspace.in_bounds(scenario, goal):
            raise NoPath(f"goal {goal} is not a lattice state")
        self.scenario = scenario
        self.goal = goal
        self.rows = cspace.axis_rows(scenario.axis_offsets, goal)
        self.landmark = landmark if landmark and goal in landmark else {}
        self.goal_distance = self.landmark.get(goal)

    def __missing__(self, q: Config) -> float:
        v = sum(map(getitem, self.rows, q))
        d = self.landmark.get(q)
        if d is not None:
            d = abs(d - self.goal_distance)
            if d > v:
                v = float(d)
        self[q] = v
        return v


@dataclass
class _AnytimeSearch:
    """State that successive weighted-A* passes toward one goal share.

    The heuristic memo, which also names the scenario and the goal;
    g-values and parent links; the open set; and INCONS, the states
    improved after being closed in the current pass, which reopen in the
    next one. A state enters the open set only with a g it has not been
    expanded at, so every selection scans its successors.
    """

    h: _HeuristicMemo
    g: dict[Config, float]
    parent: dict[Config, Config | None]
    open_set: set[Config]
    incons: set[Config] = field(default_factory=set)

    def improve_path(
        self, eps: float, deadline: float | None, clock: Callable[[], float]
    ) -> tuple[str, int]:
        """One weighted-A* pass at inflation ``eps``; INCONS rejoins the open set.

        Returns (stop reason, expansions). The pass stops when the goal is
        selected ("goal"), the frontier empties ("empty"), no open key beats
        g(goal) ("bound"; never while the goal is open, as in
        anytime_refine, since h > 0 off the goal and f-ties go to the larger
        g) or the deadline passes ("deadline").
        """
        h, g, parent = self.h, self.g, self.parent
        open_set, incons = self.open_set, self.incons
        scenario, goal = h.scenario, h.goal
        neighbors, is_valid, counters = scenario.neighbor_table, cspace.is_valid, scenario.counters
        heappush, heappop, g_get, inf = heapq.heappush, heapq.heappop, g.get, math.inf
        open_set |= incons
        incons.clear()
        heap = [(g[q] + eps * h[q], -g[q], q) for q in open_set]
        heapq.heapify(heap)
        closed: set[Config] = set()
        expansions = 0
        while True:
            if deadline is not None and clock() >= deadline:
                return "deadline", expansions
            while heap:
                f, neg_g, q = heappop(heap)
                if q in open_set and -neg_g == g[q]:
                    break
            else:
                return "empty", expansions
            if q == goal:
                open_set.discard(q)
                return "goal", expansions
            if f >= g_get(goal, inf):
                return "bound", expansions
            open_set.discard(q)
            closed.add(q)
            counters.expansions += 1
            expansions += 1
            g2 = g[q] + cspace.UNIT_COST
            # cspace.successors inline: is_valid comes first, so every neighbour is checked
            for nb in neighbors.get(q, ()):
                if not is_valid(scenario, nb) or g2 >= g_get(nb, inf):
                    continue
                g[nb] = g2
                parent[nb] = q
                if nb in closed:
                    incons.add(nb)
                else:
                    open_set.add(nb)
                    heappush(heap, (g2 + eps * h[nb], -g2, nb))


# ---------------------------------------------------------------------------
# incumbent-driven inflation schedule


def _max_ratio(states, g, h, incumbent_cost: float, delta: float = DEFAULT_DELTA) -> float:
    """max over ``states`` of (C - g) / (h + delta), with g and h mappings; inf if empty.

    anytime_refine starts at this ratio over the seed path, clamped below
    at 1: above 1, the maximizing state outranks the goal (whose term is 0)
    on the open list, so at least one non-goal selection happens. After
    each pass that another pass follows it takes the min of the ratio of
    the incumbent read back from that pass and the open set's, each by one
    scan, clamped at 1, which is strictly below the inflation the pass ran
    at while the open set is non-empty. It makes neither scan once the incumbent costs C = h(start): by
    consistency every state then has g + h >= C, so every ratio is below 1,
    and the inflation-1 pass that would follow selects the goal first.
    """
    return max(((incumbent_cost - g[q]) / (h[q] + delta) for q in states), default=math.inf)


@dataclass
class RefineIteration:
    epsilon: float
    incumbent: Path  # read back after the pass; its cost is the pass's
    expansions: int  # successor scans
    elapsed_ms: float

    @property
    def cost(self) -> float:
        return self.incumbent.cost

    @property
    def selections(self) -> int:  # states taken off the open list; each is expanded
        return self.expansions


@dataclass
class RefineReport:
    """Per-run refinement record: the completed iterations, each with its
    incumbent, and the convergence flag."""

    iterations: list[RefineIteration] = field(default_factory=list)
    optimal_flag: bool = False

    @property
    def incumbents(self) -> list[Path]:  # one per iteration
        return [it.incumbent for it in self.iterations]

    @property
    def epsilon_history(self) -> list[float]:
        return [it.epsilon for it in self.iterations]


def _seed_from_path(path: Path):
    """Path states with their path g-values and predecessor links.

    A concatenated initial path can revisit a state (the V through home);
    the first, cheaper occurrence wins, which keeps g strictly decreasing
    along parent chains and therefore acyclic.
    """
    g: dict[Config, float] = {}
    parent: dict[Config, Config | None] = {}
    prev: Config | None = None
    for k, q in enumerate(path.configs):
        if q not in g:
            g[q] = cspace.UNIT_COST * k
            parent[q] = prev
        prev = q
    return g, parent


def anytime_refine(
    scenario: Scenario,
    start: Config,
    goal: Config,
    initial_path: Path,
    *,
    deadline: float | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> tuple[Path, RefineReport]:
    """Refine an initial solution toward optimality within a deadline.

    The open list is seeded with every state of ``initial_path`` at its
    path g-value, then weighted-A* iterations run at a strictly
    decreasing inflation derived from the incumbent cost. Each iteration
    expands a state at most once; states improved after closing move to
    an inconsistent set and re-seed the next iteration together with the
    goal. After an iteration completes at inflation 1 the result is
    optimal and the run stops (deadline permitting). Always returns at
    least the initial path.

    The heuristic is the max of wrapped Manhattan and |d(q) - d(goal)|,
    with d the scenario's ``home_distance``; it stays consistent, so the
    inflation-1 pass still certifies the optimum. It also makes h(start) a
    lower bound on every path's cost, exact from home. Once the incumbent
    (the seed, or the result of a pass above inflation 1) costs h(start),
    the inflation-1 pass would select the goal first with no expansion;
    the run records that pass, (1.0, cost, 0 expansions), after one
    deadline check, without building or running it. A shortest seed path
    from home is so certified at once.

    ``deadline`` is an absolute instant on ``clock``; None means run to
    convergence. Between two deadline checks the run does one of: a
    selection's successor scan (at most 2·dof neighbours, one counted check
    each) and the stale heap entries popped before the next; the seed's
    set-up, O(|seed|); or, at a pass boundary, one ``_reconstruct``, two
    ``_max_ratio`` scans and the heapify of open ∪ INCONS, O(|open| +
    |incumbent|), none of it cut short by the deadline. Raises InvalidPath
    for a seed path that fails ``path_is_valid`` (a state off the lattice
    or in collision, or a step that is not one lattice move), and
    ValueError for one whose endpoints are not start and goal.
    """
    check_path(scenario, initial_path)
    if initial_path.configs[0] != start or initial_path.configs[-1] != goal:
        raise ValueError("initial path endpoints do not match start/goal")
    return refine_seed(scenario, initial_path, deadline, clock)


def refine_seed(
    scenario: Scenario,
    initial_path: Path,
    deadline: float | None,
    clock: Callable[[], float],
) -> tuple[Path, RefineReport]:
    """``anytime_refine`` between the seed's ends, without its checks, for
    a seed valid by construction: ``CoverPlanner.plan``'s, from library
    paths. Public to the package's modules but left out of its
    ``__all__``: an outside caller's seed goes through ``anytime_refine``.

    The incumbent is read back after every pass. The loop's exit test is
    the lower bound h(start), one memo read: it runs before the seed is
    put into the search and after each recorded pass above inflation 1,
    and when the incumbent reaches the bound the certifying pass is
    recorded in place of being run."""
    start, goal = initial_path.configs[0], initial_path.configs[-1]
    report = RefineReport()
    if len(initial_path.configs) == 1:
        report.optimal_flag = True  # start == goal: cost 0 is already optimal
        return initial_path, report
    t0 = clock()
    if deadline is not None and t0 >= deadline:
        return initial_path, report

    # A seed path that revisits the goal carries a strictly cheaper prefix
    # solution; adopt it. This also keeps g(goal) equal to the incumbent
    # cost, which the inflation schedule requires (h(goal) = 0).
    first_goal = initial_path.configs.index(goal)
    if first_goal < len(initial_path.configs) - 1:
        initial_path = Path(initial_path.configs[: first_goal + 1])

    h = _HeuristicMemo(scenario, goal, scenario.home_distance)
    lower = h[start]  # h is consistent and 0 at the goal: no path is cheaper
    incumbent = initial_path
    search = None
    while incumbent.cost > lower:
        if search is None:
            g, parent = _seed_from_path(incumbent)
            search = _AnytimeSearch(h, g, parent, set(incumbent.configs))
            # the open set is the seed's states, so one scan gives both ratios
            eps = max(1.0, _max_ratio(incumbent.configs, g, h, incumbent.cost))
        else:
            path_ratio = _max_ratio(incumbent.configs, g, h, incumbent.cost)
            new_eps = max(1.0, min(path_ratio, _max_ratio(search.open_set, g, h, incumbent.cost)))
            # new_eps >= eps only when the frontier emptied, i.e. the g-values
            # are Bellman-stable; one inflation-1 pass certifies that.
            eps = 1.0 if new_eps >= eps else new_eps
            search.open_set.add(goal)
        stop, expansions = search.improve_path(eps, deadline, clock)
        if stop == "deadline":
            return incumbent, report  # mid-iteration deadline: report only completed iterations
        # The goal was selected (it is open at every pass start). Stale parent
        # links can only overstate g(goal); the path's step count is an
        # achieved cost, so adopt it.
        incumbent = _reconstruct(parent, goal)
        g[goal] = min(g[goal], incumbent.cost)
        report.iterations.append(
            RefineIteration(eps, incumbent, expansions, (clock() - t0) * 1000.0)
        )
        if eps == 1.0:
            report.optimal_flag = True
            return incumbent, report

    # The incumbent costs h(start), so it is optimal. Every open or INCONS
    # state q has g(q) >= dist(start, q), so g + h >= h(start) = C: each
    # ratio (C - g) / (h + delta) is below 1, the next inflation is 1, and
    # that pass selects the goal (f = C, the largest g) first, with no
    # expansion. Record that pass without running it; its one deadline check
    # is the clock read below. A path at the bound repeats no state, so it
    # is the parent chain the pass would return.
    now = clock()
    if deadline is None or now < deadline:
        report.iterations.append(RefineIteration(1.0, incumbent, 0, (now - t0) * 1000.0))
        report.optimal_flag = True
    return incumbent, report


# ---------------------------------------------------------------------------
# baselines


@dataclass
class AraIteration:
    weight: float
    cost: float
    expansions: int
    elapsed_ms: float


def ara_star(
    scenario: Scenario,
    start: Config,
    goal: Config,
    *,
    deadline: float | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> tuple[Path, list[AraIteration], bool]:
    """Classic anytime repairing A* from scratch (no path seeding).

    Runs weighted iterations at ARA_W0, ARA_W0 - ARA_DW, ..., 1 with
    inconsistent-state carry-over. Returns (best path, per-iteration
    profile, optimal flag); raises Timeout if the deadline expires before
    any solution exists, NoPath when none does, the start is in collision
    or ``cspace.in_bounds`` refuses the start or the goal.
    """
    if not (cspace.in_bounds(scenario, start) and cspace.is_valid(scenario, start)):
        raise NoPath(f"start {start} is invalid")
    t0 = clock()
    search = _AnytimeSearch(_HeuristicMemo(scenario, goal), {start: 0.0}, {start: None}, {start})
    incumbent: Path | None = None
    profile: list[AraIteration] = []
    w = ARA_W0
    while True:
        stop, expansions = search.improve_path(w, deadline, clock)
        if stop == "deadline":
            if incumbent is None:
                raise Timeout("deadline expired before the first ARA* solution")
            return incumbent, profile, False
        if goal in search.g:
            extracted = _reconstruct(search.parent, goal)
            if incumbent is None or extracted.cost < incumbent.cost:
                incumbent = extracted
                search.g[goal] = min(search.g[goal], extracted.cost)
        if incumbent is None:
            raise NoPath(f"no path from {start}")
        profile.append(AraIteration(w, incumbent.cost, expansions, (clock() - t0) * 1000.0))
        if w == 1.0 or not (search.open_set or search.incons):
            return incumbent, profile, True  # weight 1, or stable g-values
        w = max(1.0, w - ARA_DW)


def _lattice_segment(scenario: Scenario, a: Config, b: Config) -> list[Config] | None:
    """Deterministic straight lattice walk a -> b, or None if it hits anything.

    Repeatedly steps the axis with the largest remaining (wrapped) offset,
    ties to the lowest axis, by one index toward the shorter wrap direction
    (+1 on an exact half-wrap tie), modulo n on a wrapping axis. Every
    interior state must be valid. Both ends are lattice states: its one
    caller, ``shortcut_path``, passes two states of a path that
    ``check_path`` accepted.
    """
    dims = scenario.dims
    wraps = scenario.wraps
    out = [a]
    cur = a
    while cur != b:
        best_d, best_gap = -1, 0
        for d in range(len(dims)):
            gap = cspace.axis_delta(cur[d], b[d], dims[d], wraps[d])
            if gap > best_gap:
                best_d, best_gap = d, gap
        d = best_d
        n = dims[d]
        if wraps[d]:
            forward = (b[d] - cur[d]) % n
            step = 1 if forward <= n - forward else -1
        else:
            step = 1 if b[d] > cur[d] else -1
        cur = cur[:d] + ((cur[d] + step) % n,) + cur[d + 1 :]
        if cur != b and not cspace.is_valid(scenario, cur):
            return None
        out.append(cur)
    return out


def shortcut_path(
    scenario: Scenario,
    path: Path,
    *,
    deadline: float | None = None,
    seed: int = 0,
    clock: Callable[[], float] = time.monotonic,
) -> Path:
    """Random-segment shortcutting: straighten spans whose detour exceeds
    the lattice distance between their endpoints.

    Deterministic for a fixed seed; stops at the deadline, checked before
    each trial, or after SHORTCUT_PATIENCE consecutive non-improving trials.
    Raises InvalidPath for a path that fails ``path_is_valid``, which it
    could otherwise return unchanged.
    """
    check_path(scenario, path)
    rng = random.Random(seed)
    configs = list(path.configs)
    failures = 0
    while failures < SHORTCUT_PATIENCE:
        if deadline is not None and clock() >= deadline:
            break
        n = len(configs)
        if n < 3:
            break
        i, j = sorted((rng.randrange(n), rng.randrange(n)))
        if j - i < 2:
            failures += 1
            continue
        a, b = configs[i], configs[j]
        gap = cspace.heuristic(scenario, a, b)
        if gap >= j - i:  # unit costs: the span is already as short as the lattice allows
            failures += 1
            continue
        segment = _lattice_segment(scenario, a, b)
        if segment is None:
            failures += 1
            continue
        # splicing the whole segment drops the loop when configs[i] == configs[j]
        configs = configs[:i] + segment + configs[j + 1 :]
        failures = 0
    return Path(tuple(configs))
