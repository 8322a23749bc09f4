"""Online phase: constant-time initial plans from the preprocessed library.

``CoverPlanner`` is the one front door. ``fit`` preprocesses a scenario
and ``from_library`` binds a library already built or loaded; either way
the planner owns its scenario, its library and one PotentialStateIndex on
them. ``plan`` checks its inputs with one rule (``cspace.check_config``
and the budget) and answers with a few lookups and one tuple join. The
goal's coverage is one dict lookup in the library's goal index, and its
stored home path is one lookup in the library's ``start_index``, built
when the library was built or loaded (no collision checks, no navigation
values, no search). The reversed home path of the start is joined to the
home path of the goal in one tuple concatenation, and every stored path
is read as a tuple, so a no-refine plan builds one Path, the one it
returns. The optional refinement stage then spends whatever remains of
the time budget improving that path.

A start is served the same way from any potential state: home, a state of
a representative path, a covered goal, or a state of the last executed
path. The library answers the first three itself, with one lookup in its
``start_index``, which maps each such state to a stored path through it
and its position there (``Library`` states which reason a state named
twice keeps); the PotentialStateIndex keeps only the robot's history, so
building one costs O(1). A chained start, the end of the last executed
path, reads the home path stored for it when the path was registered.
A goal takes its ``start_index`` path too, so a covered goal that is
also a rep-path state is reached along its rep path, a shortest path.

Registering the path that the last plan returned costs O(1) in its
length: it is taken without a check, and its end, that goal, has its
home path stored in the library. The executed path itself is the only
record of its states; looking up a state in the middle of it scans the
path.

The library is immutable and shareable across robots, each planning
through its own CoverPlanner (``from_library`` on the shared library). A
plan only reads the scenario's fields and tables, but it adds its
operation counts to ``scenario.counters``, so concurrent plans on one
scenario mix their counts; the paths they return do not depend on the
counters. A planner's index mutates between sequential plans (a plan
records the path it returned, a registration records the executed path),
and a refining plan stores the heuristic values it computes, so each
planner must be serialized (single writer).

A planner keeps one heuristic memo per goal it has refined to, which
every later refinement to that goal reads and extends: h is a function of
the scenario and the goal alone, so a warm memo changes no path, count or
schedule, only the time spent computing values. ``plan`` refuses an
uncovered goal before it refines, so a planner holds at most one memo per
covered goal, each with only the states its searches touched; binding a
scenario (``fit``, ``from_library``) starts with none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .cover import CoverEntry, Library, preprocess
from .cspace import Config, Scenario, check_config
from .errors import FingerprintMismatch, GoalUncovered, NotFittedError, StartNotPotential
from .search import Path, RefineReport, check_path, concat_paths, refine_seed


def find_rep_path(library: Library, q: Config) -> CoverEntry | None:
    """Pure lookup of the CoverEntry holding q (lowest entry id on overlap).

    Returns None when q is outside every region or in an exclusion set.
    One dict lookup: no planning, no collision checks.
    """
    return library.goal_index.get(q)


def connect(entry: CoverEntry, q: Config) -> Path:
    """The entry's home path to its member q: the representative path out
    to the attractor, then q's descent walk reversed, cut at q's first
    arrival so that q appears exactly once, at the end.

    One lookup in ``entry.home_paths``, which ``preprocess`` and the loader
    build on the offline walk: no collision check and no walk. The path
    is served unchecked, since ``CoverEntry`` refused any home path that
    does not end at its key when it was built. Raises ValueError when q is
    not a member. ``CoverPlanner.plan`` does not call it: its goal side
    reads q's path in the library's ``start_index``, which for a goal on
    no rep path is this one.
    """
    path = entry.home_paths.get(q)
    if path is None:
        raise ValueError(f"{q} is not a member of the entry's basin")
    return Path(path)


# ---------------------------------------------------------------------------
# potential states


class PotentialStateIndex:
    """Start states the planner can serve without searching.

    A potential state is home, a representative-path state, a covered goal
    or a state of the most recently executed path. The library holds the
    first three (``library.start_index``); the index holds only the
    robot's history, and builds no table:

    - ``scenario`` and ``library``, the pair it serves; FingerprintMismatch
      is raised when the library was built for another scenario;
    - ``executed_path``: the last registered executed path, the only
      record of its states (a mid-path lookup scans it and takes a state's
      last position), and ``anchor``, the path from home to its end (both
      None until a path is registered). The anchor is what the lookup order
      gives for the end, resolved once at registration; ``path_home_to``
      returns it for the end itself. Only one executed path is kept, which
      bounds memory and matches a robot sitting at the end of its last
      motion;
    - ``planned``: the path object that the last ``CoverPlanner.plan``
      on this index returned (None before the first), which
      ``update_potential_index`` registers without re-checking it.

    Lookups try ``library.start_index``, then the executed path. The index
    is single-writer: plans and registrations that share one must be
    serialized.
    """

    def __init__(self, scenario: Scenario, library: Library):
        if library.fingerprint != scenario.fingerprint:
            raise FingerprintMismatch("the library was built for another scenario")
        self.scenario = scenario
        self.library = library
        self.executed_path: Path | None = None
        self.anchor: Path | None = None
        self.planned: Path | None = None

    def __contains__(self, q: Config) -> bool:
        return q in self.library.start_index or (
            self.executed_path is not None and q in self.executed_path.configs
        )


def _stored_home_configs(library: Library, q: Config) -> tuple[Config, ...] | None:
    """q's stored path in ``library.start_index`` up to its position there,
    or None when q has none. The path holds q at that position by
    construction (a rep-path state at its index, a goal at the end of a
    home path that ``CoverEntry`` checked), so it is served unchecked."""
    start = library.start_index.get(q)
    if start is None:
        return None
    path, k = start
    return path[: k + 1]


def _home_configs(index: PotentialStateIndex, s: Config) -> tuple[Config, ...]:
    """The configs of the home path to the potential state s, in the
    lookup order; ``path_home_to`` documents it."""
    executed_path = index.executed_path
    if executed_path is not None and s == executed_path.configs[-1]:
        return index.anchor.configs
    configs = _stored_home_configs(index.library, s)
    if configs is not None:
        return configs
    if executed_path is not None:
        back = executed_path.configs[::-1]
        if s in back:
            # home -> end of the executed path, then back along it to s
            return index.anchor.configs + back[1 : back.index(s) + 1]
    raise StartNotPotential(f"{s} is not a potential state")


def path_home_to(index: PotentialStateIndex, s: Config) -> Path:
    """Constant-time path from home to a potential state. Never plans.

    The end of the last executed path (a chained start) returns
    ``index.anchor`` itself. Otherwise, in the lookup order: a state of
    ``library.start_index`` takes its stored path up to its position
    there, unchecked, since the library's entries checked their paths
    when they were built; a state of the executed path takes the stored
    anchor plus the executed path from its end back to the state's last
    position there. The anchor was resolved at registration from lookups
    that never change, and for the end the executed branch adds nothing
    to it, so the shortcut gives what the order gives. ``plan`` reads the
    same rule as tuples, with no Path built for the start.
    """
    configs = _home_configs(index, s)
    anchor = index.anchor
    # only the executed end is answered with the anchor's own tuple
    return anchor if anchor is not None and configs is anchor.configs else Path(configs)


def update_potential_index(index: PotentialStateIndex, executed_path: Path) -> PotentialStateIndex:
    """Register the states of the most recently executed path (in place).

    The anchor path home -> end is resolved before the previous executed
    path is dropped, so chains of sequential queries stay constant-time.
    When the end is not a potential state but the start is, the anchor is
    the start's home path followed by the executed path. When neither end
    is, StartNotPotential is raised naming both and the index is left
    unchanged. Duplicate states keep their last position (shortest suffix).

    The path the last plan on this index returned (``index.planned``, the
    same object) is a valid walk by construction and is taken as it is.
    Its end is that plan's goal, whose home path is the anchor or its
    stored path in ``library.start_index``, so registering it does no work
    that grows with the path's length. Any other path must pass
    ``path_is_valid`` (its states tuples of Python ints, each a valid
    lattice state, and each step one lattice move), or InvalidPath is
    raised and the index is left unchanged, since later queries would
    hand its steps out as plans.
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
# planning


@dataclass(slots=True)
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


class CoverPlanner:
    """Constant-time planner with anytime refinement.

    fit() preprocesses the scenario into a goal-region cover library, and
    from_library() binds a library already built or loaded; plan()
    answers start -> goal queries from stored paths and refines within the
    time budget. Sequential use registers each executed path so the next
    query may start anywhere along it.

    It follows the scikit-learn parameter conventions (keyword-only
    constructor params stored verbatim, get_params/set_params, fitted
    state on trailing-underscore attributes) so it composes with that
    ecosystem's tooling, without depending on scikit-learn itself.

    Parameters
    ----------
    seed : rng seed for attractor sampling during fit, the one parameter;
        rep paths are shortest paths read off ``Scenario.home_distance``.

    Fitted attributes: ``scenario_``, ``library_`` (the cover library),
    ``index_`` (the potential-state index on that library) and
    ``heuristics_`` (each goal refined to, mapped to its heuristic memo),
    which the planner owns together.
    """

    def __init__(self, *, seed: int = 0):
        self.seed = seed

    # -- scikit-learn parameter protocol ------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {"seed": self.seed}

    def set_params(self, **params) -> "CoverPlanner":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for CoverPlanner")
            setattr(self, key, value)
        return self

    # -- offline -------------------------------------------------------------

    def fit(self, scenario: Scenario, y=None) -> "CoverPlanner":
        """Preprocess the scenario and bind its library; idempotent for a
        fixed seed.

        Raises HomeInvalid when the home state is in collision.
        """
        return self._bind(scenario, preprocess(scenario, seed=self.seed))

    @classmethod
    def from_library(cls, scenario: Scenario, library: Library) -> "CoverPlanner":
        """A planner on a library already built or loaded (``load_library``),
        with no history yet: what ``fit`` gives when ``preprocess`` built
        that library. FingerprintMismatch is raised when the library was
        built for another scenario. ``seed`` keeps its default, since only
        ``fit`` reads it.
        """
        return cls()._bind(scenario, library)

    def _bind(self, scenario: Scenario, library: Library) -> "CoverPlanner":
        self.index_ = PotentialStateIndex(scenario, library)
        self.heuristics_ = {}  # h depends on the scenario: a new one starts empty
        self.scenario_ = scenario
        self.library_ = library
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "library_"):
            raise NotFittedError("call fit(scenario) or from_library() before planning")

    # -- online --------------------------------------------------------------

    def plan(
        self,
        goal,
        start=None,
        *,
        budget_ms: float = 100.0,
        refine: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> QueryResult:
        """Plan from ``start`` (home when omitted) to ``goal``, then refine.

        ``goal`` and ``start`` are checked with ``cspace.check_config``:
        ValueError for a coordinate that is not an int (a float, a bool, a
        string), a wrong length or a state off the lattice, and for a
        budget that is not positive, also with ``refine=False``. The goal
        must be covered (``find_rep_path``), or GoalUncovered is raised;
        its home path is its stored path in ``library.start_index``, which
        for a goal that is also a rep-path state is its rep-path prefix, a
        shortest path. The start's home path follows ``path_home_to``'s
        lookup order, or StartNotPotential is raised.

        The pre-refinement work is lookups of stored home paths and one
        tuple join: zero collision checks, zero expansions, and at most
        len(rep_start) + len(rep_goal) + 2 * max_descent_steps elementary
        steps (starts registered from an executed path substitute their
        stored anchor length for the rep-path term). Stored paths are
        served unchecked: ``CoverEntry`` checked them when the library was
        built. Every stored path is read as a tuple, so a no-refine plan
        builds one Path, the one it returns. The budget clock starts once
        the inputs pass their checks; lookup and connect time are deducted
        from the refinement budget. Refinement reads and extends the goal's
        heuristic memo in ``heuristics_``. The returned path is recorded as
        the index's ``planned`` path, for ``register_executed``.
        """
        self._check_fitted()
        scenario, library, index = self.scenario_, self.library_, self.index_
        goal = check_config(scenario, goal)
        start = scenario.s_home if start is None else check_config(scenario, start)
        if not budget_ms > 0:  # also rejects nan
            raise ValueError("budget_ms must be positive")
        t0 = clock()
        deadline = t0 + budget_ms / 1000.0

        if find_rep_path(library, goal) is None:
            raise GoalUncovered(f"goal {goal} is not covered by any region")
        t_lookup = clock()

        if start == goal:
            configs = (start,)
        else:
            # Library puts every covered goal in start_index, so this is never None
            home_to_goal = _stored_home_configs(library, goal)
            if start == library.s_home:
                configs = home_to_goal
            else:
                # both paths leave home: back along the first, out along the second
                configs = _home_configs(index, start)[::-1] + home_to_goal[1:]
        initial = Path(configs)
        cost = initial.cost
        scenario.counters.elementary_steps += len(configs)
        t_connect = clock()

        lookup_ms, connect_ms = (t_lookup - t0) * 1000.0, (t_connect - t_lookup) * 1000.0
        result = QueryResult(initial, cost, lookup_ms, connect_ms, 0.0, cost == 0.0)
        if refine and cost > 0.0:
            # the seed is built from library paths, so it skips the seed check
            refined, report = refine_seed(scenario, initial, deadline, clock, self.heuristics_)
            result.path = refined
            result.refine_ms = (clock() - t_connect) * 1000.0
            result.optimal_flag = report.optimal_flag
            result.refine_report = report
        index.planned = result.path
        return result

    def register_executed(self, path: Path) -> None:
        """Mark a path as executed; its states become valid starts.

        The path the last ``plan`` returned (that object) is registered as
        it is; any other must pass ``path_is_valid``, or InvalidPath is
        raised and nothing is registered. One end must be a potential
        state; when neither is, StartNotPotential is raised and nothing is
        registered.
        """
        self._check_fitted()
        update_potential_index(self.index_, path)
