"""Estimator-style front end: fit a scenario offline, plan queries online.

CoverPlanner follows the scikit-learn parameter conventions (keyword-only
constructor params stored verbatim, get_params/set_params, fitted state
on trailing-underscore attributes) so it composes with that ecosystem's
tooling, without depending on scikit-learn itself.
"""

from __future__ import annotations

import time
from typing import Callable

from .cover import preprocess
from .cspace import Scenario
from .errors import NotFittedError
from .online import PotentialStateIndex, QueryResult, _query, update_potential_index
from .search import Path


class CoverPlanner:
    """Constant-time planner with anytime refinement.

    fit() preprocesses the scenario into a goal-region cover library;
    plan() answers start -> goal queries by lookup plus bounded descent
    and refines within the time budget. Sequential use registers each
    executed path so the next query may start anywhere along it.

    Parameters
    ----------
    seed : rng seed for attractor sampling during fit, the one parameter;
        rep paths are shortest paths read off ``Scenario.home_distance``.

    Fitted attributes: ``scenario_``, ``library_`` (the cover library) and
    ``index_`` (the potential-state index).
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
        """Preprocess the scenario; idempotent for a fixed seed.

        Raises HomeInvalid when the home state is in collision.
        """
        self.library_ = preprocess(scenario, seed=self.seed)
        self.scenario_ = scenario
        self.index_ = PotentialStateIndex(scenario, self.library_)
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "library_"):
            raise NotFittedError("call fit(scenario) before planning")

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
        """Plan from ``start`` (home when omitted) to ``goal``.

        Answers through ``query``'s core on the fitted library and index,
        with no request object: the same checks (``goal`` and ``start``
        with ``cspace.check_config``, the budget by ``QueryRequest``'s
        rule, ValueError unless it is positive, also with
        ``refine=False``), and the same path, costs, flags and counts as
        ``query``.
        """
        self._check_fitted()
        scenario, library, index = self.scenario_, self.library_, self.index_
        return _query(scenario, library, index, start, goal, budget_ms, refine, clock)

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
