"""Exception types shared across the planner."""


class PlanningError(Exception):
    """Base class for all planner errors."""


class Timeout(PlanningError):
    """Deadline expired before the search produced a result."""


class NoPath(PlanningError):
    """The search exhausted its frontier without reaching the goal."""


class DescentStalled(PlanningError):
    """Greedy descent (``cover.descend``) found no strictly improving move."""


class HomeInvalid(PlanningError):
    """The scenario's home configuration is invalid."""


class GoalUncovered(PlanningError):
    """The queried goal belongs to no region cover entry."""


class StartNotPotential(PlanningError):
    """The query start state is not a known potential state."""


class StaleLibrary(PlanningError):
    """A cover entry's stored home path does not end at its goal.

    Raised only when a ``CoverEntry`` is built, so lookups never raise it."""


class FingerprintMismatch(PlanningError):
    """Library was built for a different scenario."""


class CorruptLibrary(PlanningError):
    """Library file is unreadable or structurally broken."""


class LibraryVersionError(PlanningError):
    """Library file uses an unsupported format version."""


class ScenarioFormatError(PlanningError):
    """Scenario file is unreadable or structurally broken."""


class InvalidPath(PlanningError, ValueError):
    """A path handed to the planner is not a walk of valid lattice states.

    Also a ValueError, as the argument's value is what is refused."""


class NotFittedError(PlanningError):
    """Estimator method called before fit()."""
