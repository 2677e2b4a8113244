"""Tests for the HiGHS-backed MILP solver.

HiGHS is cross-checked against an independent brute-force oracle that
enumerates every assignment of up to ten binaries (plus, for mixed models,
one continuous variable solved in closed form).  Its failure statuses are
pinned with real infeasible/unbounded models and with a stubbed
``scipy.optimize.milp`` for limit hits and solver errors.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.milp.scipy_backend as scipy_backend
from repro.api import create_planner
from repro.milp.constraint import ConstraintSense
from repro.milp.expression import lin_sum
from repro.milp.model import Model, ObjectiveSense
from repro.milp.result import SolveStatus
from repro.milp.solver import MilpSolver, SolverBackend

from tests.conftest import make_catalog, query_over


def knapsack_model() -> Model:
    """A small 0/1 knapsack with known optimum 11 (items 0 and 2)."""
    model = Model("knapsack", sense=ObjectiveSense.MAXIMIZE)
    values = [6.0, 4.0, 5.0]
    weights = [3.0, 3.0, 2.0]
    items = [model.add_binary(f"item{i}") for i in range(3)]
    model.add_constr(lin_sum(w * x for w, x in zip(weights, items)) <= 5.0)
    model.set_objective(lin_sum(v * x for v, x in zip(values, items)))
    return model


def infeasible_model() -> Model:
    model = Model("infeasible")
    x = model.add_binary("x")
    model.add_constr(x >= 2)
    return model


# ------------------------------------------------------------------ the oracle
def _interval_for(model: Model, var, assignment) -> Tuple[float, float]:
    """Feasible interval of ``var`` once every other variable is fixed."""
    lo, hi = var.lower, var.upper
    for constraint in model.constraints:
        coeff = constraint.lhs_terms.get(var, 0.0)
        rest = sum(
            c * assignment[v] for v, c in constraint.lhs_terms.items() if v is not var
        )
        slack = constraint.rhs - rest
        sense = constraint.sense
        if coeff == 0.0:
            ok = (
                (sense is ConstraintSense.LE and slack >= -1e-9)
                or (sense is ConstraintSense.GE and slack <= 1e-9)
                or (sense is ConstraintSense.EQ and abs(slack) <= 1e-9)
            )
            if not ok:
                return (1.0, 0.0)
            continue
        bound = slack / coeff
        if sense is ConstraintSense.EQ:
            lo, hi = max(lo, bound), min(hi, bound)
        elif (sense is ConstraintSense.LE) == (coeff > 0):
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    return (lo, hi)


def brute_force_optimum(model: Model) -> Optional[float]:
    """Optimal objective by enumeration, or ``None`` when infeasible.

    Every binary assignment is tried; at most one continuous variable is
    allowed, and for each assignment its bounds are intersected with the
    constraints and the better finite interval end is taken.
    """
    binaries = [v for v in model.variables if v.is_integer]
    continuous = [v for v in model.variables if not v.is_integer]
    assert len(binaries) <= 10 and len(continuous) <= 1
    maximise = model.sense is ObjectiveSense.MAXIMIZE
    best: Optional[float] = None
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        assignment = dict(zip(binaries, bits))
        if continuous:
            (y,) = continuous
            assignment[y] = 0.0
            lo, hi = _interval_for(model, y, assignment)
            if lo > hi + 1e-9:
                continue
            ends = [v for v in (lo, hi) if math.isfinite(v)]
            candidates = []
            for end in ends:
                assignment[y] = end
                candidates.append(model.objective_value(assignment))
            value = max(candidates) if maximise else min(candidates)
        else:
            if not model.is_feasible(assignment):
                continue
            value = model.objective_value(assignment)
        if best is None or (value > best if maximise else value < best):
            best = value
    return best


def random_binary_model(seed: int) -> Model:
    """Up to ten binaries, a few mixed-sign ``<=``/``>=``/``==`` rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    sense = ObjectiveSense.MAXIMIZE if rng.random() < 0.5 else ObjectiveSense.MINIMIZE
    model = Model(f"rand{seed}", sense=sense)
    items = [model.add_binary(f"b{k}") for k in range(n)]
    for _ in range(int(rng.integers(1, 4))):
        coeffs = rng.integers(-3, 6, n).astype(float)
        expr = lin_sum(float(c) * x for c, x in zip(coeffs, items))
        rhs = float(rng.integers(0, max(1, int(np.abs(coeffs).sum())) + 1))
        kind = rng.integers(0, 5)
        if kind == 0:
            model.add_constr(expr >= rhs / 2)
        elif kind == 1:
            model.add_constr(expr == float(rng.integers(0, 4)))
        else:
            model.add_constr(expr <= rhs)
    values = rng.integers(-4, 11, n).astype(float)
    model.set_objective(lin_sum(float(v) * x for v, x in zip(values, items)))
    return model


class TestHighsOptimum:
    def test_knapsack_optimum(self):
        result = MilpSolver().solve(knapsack_model())
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(11.0)
        assert brute_force_optimum(knapsack_model()) == pytest.approx(11.0)

    def test_mixed_integer_continuous(self):
        model = Model("mixed", sense=ObjectiveSense.MAXIMIZE)
        x = model.add_binary("x")
        y = model.add_continuous("y", 0.0, 10.0)
        model.add_constr(y <= 3 + 2 * x)
        model.set_objective(y + x)
        result = MilpSolver().solve(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(6.0)
        assert brute_force_optimum(model) == pytest.approx(6.0)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @example(seed=167)
    @settings(max_examples=40, deadline=None)
    def test_highs_matches_brute_force_on_random_binary_models(self, seed):
        model = random_binary_model(seed)
        expected = brute_force_optimum(model)
        result = MilpSolver(mip_gap=0.0).solve(model)
        if expected is None:
            # HiGHS's presolve sometimes ends an infeasible pure-binary
            # equality model with "Solve error" instead of an infeasibility
            # proof (seed 167: 4a + 2b + 4c - 2d + 4e + 5f == 1).  Either
            # way there is no incumbent, so the planner rejects.
            assert result.status in (SolveStatus.INFEASIBLE, SolveStatus.ERROR)
            assert not result.has_solution
        else:
            assert result.status is SolveStatus.OPTIMAL
            assert result.objective == pytest.approx(expected, rel=1e-6, abs=1e-6)
            assert model.is_feasible(result.values)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_mixed_integer_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        model = Model(f"mixed{seed}", sense=ObjectiveSense.MAXIMIZE)
        items = [model.add_binary(f"b{k}") for k in range(n)]
        extra = model.add_continuous("y", 0.0, 5.0)
        weights = rng.uniform(1, 5, n)
        values = rng.uniform(-2, 10, n)
        model.add_constr(
            lin_sum(w * x for w, x in zip(weights, items)) + 0.5 * extra
            <= float(weights.sum() * 0.6)
        )
        model.add_constr(extra <= lin_sum(items))
        model.add_constr(extra >= 1.0 - items[0])
        model.set_objective(
            lin_sum(v * x for v, x in zip(values, items)) + 1.5 * extra
        )
        expected = brute_force_optimum(model)
        result = MilpSolver(mip_gap=0.0).solve(model)
        assert expected is not None
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(expected, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------- failure paths
def _stub_milp(monkeypatch, status: int, x=None, fun=None, nodes=0):
    def fake_milp(**_kwargs):
        return SimpleNamespace(
            status=status, x=x, fun=fun, mip_node_count=nodes, mip_dual_bound=None
        )

    monkeypatch.setattr(scipy_backend, "_scipy_milp", fake_milp)


class TestHighsFailurePaths:
    def test_infeasible_model(self):
        result = MilpSolver().solve(infeasible_model())
        assert result.status is SolveStatus.INFEASIBLE
        assert not result.has_solution

    def test_unbounded_model(self):
        model = Model("unbounded", sense=ObjectiveSense.MAXIMIZE)
        x = model.add_continuous("x")
        model.add_constr(x >= 1)
        model.set_objective(x)
        assert MilpSolver().solve(model).status is SolveStatus.UNBOUNDED

    def test_limit_without_incumbent_is_timeout(self, monkeypatch):
        _stub_milp(monkeypatch, status=1, x=None)
        result = MilpSolver(time_limit=0.01).solve(knapsack_model())
        assert result.status is SolveStatus.TIMEOUT
        assert not result.has_solution
        assert not MilpSolver().is_usable_status(result)

    def test_limit_with_incumbent_is_feasible(self, monkeypatch):
        _stub_milp(monkeypatch, status=1, x=[1.0, 0.0, 0.0], fun=-6.0, nodes=7)
        result = MilpSolver(time_limit=0.01).solve(knapsack_model())
        assert result.status is SolveStatus.FEASIBLE
        assert result.objective == pytest.approx(6.0)
        assert result.value_by_name("item0") == 1.0
        assert result.nodes == 7
        assert MilpSolver().is_usable_status(result)

    def test_other_status_is_error(self, monkeypatch):
        _stub_milp(monkeypatch, status=4)
        result = MilpSolver().solve(knapsack_model())
        assert result.status is SolveStatus.ERROR
        assert not result.has_solution

    def test_planner_timeout_rejects_and_keeps_allocation(self, monkeypatch):
        catalog = make_catalog(num_hosts=3, cpu=8.0, num_base=4)
        planner = create_planner("sqpr", catalog)
        assert planner.submit(query_over("b0", "b1")).admitted
        before = planner.allocation.fingerprint()
        _stub_milp(monkeypatch, status=1, x=None)
        outcome = planner.submit(query_over("b2", "b3"))
        assert not outcome.admitted
        assert outcome.solve_result.status is SolveStatus.TIMEOUT
        assert planner.allocation.fingerprint() == before


class TestSolverFacade:
    def test_auto_backend_resolution(self):
        solver = MilpSolver()
        assert solver.resolved_backend() is SolverBackend.HIGHS

    def test_explicit_highs_backend(self):
        solver = MilpSolver(backend=SolverBackend.HIGHS)
        result = solver.solve(knapsack_model())
        assert result.objective == pytest.approx(11.0)
        assert result.backend == "highs"

    def test_time_limit_override(self):
        solver = MilpSolver(time_limit=100.0)
        result = solver.solve(knapsack_model(), time_limit=10.0)
        assert result.has_solution

    def test_is_usable_status(self):
        solver = MilpSolver()
        good = solver.solve(knapsack_model())
        assert solver.is_usable_status(good)
        bad = solver.solve(infeasible_model())
        assert not solver.is_usable_status(bad)

    def test_result_gap_and_lookup(self):
        result = MilpSolver().solve(knapsack_model())
        assert result.value_by_name("item0") in (0.0, 1.0)
        gap = result.gap()
        assert gap is None or gap >= 0.0
