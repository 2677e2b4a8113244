"""MILP backend delegating to ``scipy.optimize.milp`` (HiGHS).

HiGHS plays the role of CPLEX in the original paper: it is handed the model
together with a time limit and asked for the best solution it can find in
that budget.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp as _scipy_milp

from repro.milp.model import Model
from repro.milp.result import SolveResult, SolveStatus
from repro.milp.standard_form import to_standard_form
from repro.utils.timer import Stopwatch


def solve_with_highs(
    model: Model,
    time_limit: Optional[float] = None,
    mip_rel_gap: float = 1e-6,
) -> SolveResult:
    """Solve ``model`` with HiGHS via scipy, honouring ``time_limit``."""
    watch = Stopwatch()
    form = to_standard_form(model)

    # Test blocks by row count, not ``.size``: a scipy sparse matrix's size
    # is its stored entries, so a row whose coefficients are all zero
    # (``0 <= -1``) would otherwise be dropped instead of proving the model
    # infeasible.
    constraints = []
    if form.a_ub.shape[0]:
        constraints.append(LinearConstraint(form.a_ub, -np.inf, form.b_ub))
    if form.a_eq.shape[0]:
        constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))

    bounds = Bounds(form.lower, form.upper)
    options = {"presolve": True, "mip_rel_gap": mip_rel_gap}
    if time_limit is not None:
        options["time_limit"] = max(1e-3, float(time_limit))

    result = _scipy_milp(
        c=form.c,
        constraints=constraints or None,
        integrality=form.integrality,
        bounds=bounds,
        options=options,
    )

    elapsed = watch.elapsed()
    nodes = int(getattr(result, "mip_node_count", None) or 0)
    # scipy milp statuses: 0 optimal, 1 iteration/time limit, 2 infeasible,
    # 3 unbounded, 4 other.
    if result.x is not None:
        values = form.assignment(np.asarray(result.x, dtype=float))
        objective = form.objective_sign * float(result.fun) + form.objective_offset
        bound = None
        if getattr(result, "mip_dual_bound", None) is not None:
            bound = form.objective_sign * float(result.mip_dual_bound) + form.objective_offset
        status = SolveStatus.OPTIMAL if result.status == 0 else SolveStatus.FEASIBLE
        return SolveResult(
            status=status,
            objective=objective,
            values=values,
            bound=bound,
            solve_time=elapsed,
            nodes=nodes,
            backend="highs",
        )
    status = {
        1: SolveStatus.TIMEOUT,
        2: SolveStatus.INFEASIBLE,
        3: SolveStatus.UNBOUNDED,
    }.get(result.status, SolveStatus.ERROR)
    return SolveResult(status, solve_time=elapsed, nodes=nodes, backend="highs")
