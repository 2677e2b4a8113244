"""The :class:`MilpSolver` facade used by the planners.

SQPR's contract with its solver is simple: "here is a MILP and a timeout;
give me the best feasible solution you can find".  The paper uses CPLEX;
here ``scipy.optimize.milp`` (HiGHS) provides that service.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.milp.model import Model
from repro.milp.result import SolveResult, SolveStatus
from repro.milp.scipy_backend import solve_with_highs


class SolverBackend(enum.Enum):
    """The MILP engine behind :class:`MilpSolver` (HiGHS is the only one)."""

    HIGHS = "highs"


@dataclass
class MilpSolver:
    """Facade over HiGHS.

    Parameters
    ----------
    backend:
        The MILP engine; HiGHS is the only one.
    time_limit:
        Default per-solve wall-clock limit in seconds (``None`` = unlimited).
        This models the per-query CPLEX timeout in the paper.
    mip_gap:
        Relative optimality gap at which the search may stop.
    """

    backend: SolverBackend = SolverBackend.HIGHS
    time_limit: Optional[float] = None
    mip_gap: float = 1e-6

    def resolved_backend(self) -> SolverBackend:
        """The backend that will be used for the next solve."""
        return self.backend

    def solve(self, model: Model, time_limit: Optional[float] = None) -> SolveResult:
        """Solve ``model`` and return a :class:`SolveResult`.

        ``time_limit`` overrides the solver's default limit for this call.
        The returned result always carries the best incumbent found, even if
        optimality could not be proven within the budget.
        """
        limit = time_limit if time_limit is not None else self.time_limit
        return solve_with_highs(model, time_limit=limit, mip_rel_gap=self.mip_gap)

    def is_usable_status(self, result: SolveResult) -> bool:
        """Whether a result carries a solution the planner may deploy."""
        return result.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE) and result.has_solution
