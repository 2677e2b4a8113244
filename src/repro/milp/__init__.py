"""A small mixed-integer linear programming (MILP) toolkit.

The SQPR paper formulates query planning as a MILP and solves it with
CPLEX 11.2 under a per-query timeout.  This subpackage provides the same
service on top of ``scipy.optimize.milp`` (HiGHS):

* a modelling layer (:class:`Variable`, :class:`LinExpr`,
  :class:`Constraint`, :class:`Model`) in the spirit of PuLP,
* a sparse lowering to standard form (:mod:`repro.milp.standard_form`,
  emitting ``scipy.sparse.csr_matrix`` blocks), and
* a :class:`MilpSolver` facade that hands the lowered model to HiGHS,
  honours wall-clock time limits and always reports the best incumbent
  found.
"""

from repro.milp.expression import LinExpr, Variable, VarType, lin_sum
from repro.milp.constraint import Constraint, ConstraintSense
from repro.milp.model import Model, ObjectiveSense
from repro.milp.solver import MilpSolver, SolverBackend
from repro.milp.result import SolveResult, SolveStatus

__all__ = [
    "Variable",
    "VarType",
    "LinExpr",
    "lin_sum",
    "Constraint",
    "ConstraintSense",
    "Model",
    "ObjectiveSense",
    "MilpSolver",
    "SolverBackend",
    "SolveResult",
    "SolveStatus",
]
