"""Tests for the Model container and its lowering to standard form."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.milp.expression import VarType
from repro.milp.model import Model, ObjectiveSense
from repro.milp.result import SolveStatus
from repro.milp.solver import MilpSolver
from repro.milp.standard_form import to_standard_form


def build_toy_model() -> Model:
    model = Model("toy", sense=ObjectiveSense.MAXIMIZE)
    x = model.add_binary("x")
    y = model.add_binary("y")
    z = model.add_continuous("z", 0.0, 4.0)
    model.add_constr(x + y <= 1, name="choose_one")
    model.add_constr(z >= 2 * y, name="link")
    model.set_objective(3 * x + 2 * y + z)
    return model


class TestModel:
    def test_duplicate_variable_name_rejected(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(ModelError):
            model.add_var("x")

    def test_get_var_and_has_var(self):
        model = Model()
        x = model.add_var("x")
        assert model.get_var("x") is x
        assert model.has_var("x")
        assert not model.has_var("y")
        with pytest.raises(ModelError):
            model.get_var("missing")

    def test_counts(self):
        model = build_toy_model()
        assert model.num_variables == 3
        assert model.num_integer_variables == 2
        assert model.num_constraints == 2

    def test_foreign_variable_rejected_in_constraint(self):
        model_a = Model("a")
        model_b = Model("b")
        x = model_a.add_var("x")
        with pytest.raises(ModelError):
            model_b.add_constr(x <= 1)

    def test_add_constr_requires_constraint(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(ModelError):
            model.add_constr("not-a-constraint")  # type: ignore[arg-type]

    def test_fix_var_respects_bounds(self):
        model = Model()
        x = model.add_binary("x")
        model.fix_var(x, 1)
        assert model.effective_bounds(x) == (1.0, 1.0)
        with pytest.raises(ModelError):
            model.fix_var(x, 2)

    def test_fix_integer_to_fraction_rejected(self):
        model = Model()
        x = model.add_var("x", VarType.INTEGER, 0, 10)
        with pytest.raises(ModelError):
            model.fix_var(x, 0.5)

    def test_objective_value_and_feasibility(self):
        model = build_toy_model()
        x, y, z = model.get_var("x"), model.get_var("y"), model.get_var("z")
        good = {x: 1.0, y: 0.0, z: 0.0}
        assert model.is_feasible(good)
        assert model.objective_value(good) == pytest.approx(3.0)
        bad = {x: 1.0, y: 1.0, z: 2.0}
        assert not model.is_feasible(bad)

    def test_is_feasible_checks_integrality(self):
        model = build_toy_model()
        x, y, z = model.get_var("x"), model.get_var("y"), model.get_var("z")
        assert not model.is_feasible({x: 0.5, y: 0.0, z: 0.0})

    def test_summary_mentions_size(self):
        model = build_toy_model()
        text = model.summary()
        assert "3 vars" in text
        assert "2 constraints" in text


class TestStandardForm:
    def test_maximise_is_negated(self):
        model = build_toy_model()
        form = to_standard_form(model)
        x_index = form.index_of(model.get_var("x"))
        assert form.c[x_index] == pytest.approx(-3.0)
        assert form.objective_sign == -1.0

    def test_constraint_rows(self):
        model = build_toy_model()
        form = to_standard_form(model)
        # choose_one (<=) and link (>= turned into <=) are both ub rows.
        assert form.a_ub.shape == (2, 3)
        assert form.a_eq.shape[0] == 0

    def test_eq_constraints_lowered_separately(self):
        model = Model()
        x = model.add_continuous("x", 0, 10)
        y = model.add_continuous("y", 0, 10)
        model.add_constr(x + y == 4)
        form = to_standard_form(model)
        assert form.a_eq.shape == (1, 2)
        assert form.b_eq[0] == pytest.approx(4.0)

    def test_bounds_and_integrality(self):
        model = build_toy_model()
        form = to_standard_form(model)
        z_index = form.index_of(model.get_var("z"))
        assert form.upper[z_index] == pytest.approx(4.0)
        assert form.integrality[z_index] == 0.0
        x_index = form.index_of(model.get_var("x"))
        assert form.integrality[x_index] == 1.0

    def test_fixed_variable_becomes_tight_bounds(self):
        model = build_toy_model()
        x = model.get_var("x")
        model.fix_var(x, 0)
        form = to_standard_form(model)
        idx = form.index_of(x)
        assert form.lower[idx] == form.upper[idx] == 0.0

    def test_empty_model_rejected(self):
        with pytest.raises(ModelError):
            to_standard_form(Model())

    def test_bound_mutation_invalidates_cached_form(self):
        # Regression: assigning Variable.upper/.lower after a solve used
        # to bypass Model.revision, silently serving the stale cached
        # StandardForm with the old bounds.
        model = build_toy_model()
        x = model.get_var("x")
        stale = to_standard_form(model)
        revision = model.revision
        x.upper = 0.0
        assert model.revision > revision
        fresh = to_standard_form(model)
        assert fresh is not stale
        assert fresh.upper[fresh.index_of(x)] == pytest.approx(0.0)

    def test_bound_mutation_noop_keeps_cache(self):
        model = build_toy_model()
        x = model.get_var("x")
        form = to_standard_form(model)
        x.upper = x.upper  # unchanged value: no structural edit
        assert to_standard_form(model) is form

    def test_empty_domain_assignment_rejected(self):
        model = build_toy_model()
        x = model.get_var("x")
        with pytest.raises(ModelError, match="empty domain"):
            x.lower = x.upper + 1.0

    def test_model_objective_round_trip(self):
        model = build_toy_model()
        form = to_standard_form(model)
        x = np.array([1.0, 0.0, 0.0])
        assert form.model_objective(x) == pytest.approx(3.0)

    def test_all_zero_row_stays_infeasible(self):
        # ``0 <= -1`` lowers to a row with no stored entries; a sparse
        # matrix's ``.size`` is 0 then, so the solver must test blocks by
        # row count or it would drop the row and call the model feasible.
        model = Model()
        y = model.add_continuous("y", 0.0, 10.0)
        model.add_constr(0 * y <= -1)
        form = to_standard_form(model)
        assert form.a_ub.shape == (1, 1)
        assert form.a_ub.nnz == 0
        assert MilpSolver().solve(model).status is SolveStatus.INFEASIBLE
