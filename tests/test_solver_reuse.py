"""Model-reuse tests: the planner's model cache never changes results.

The planner's :class:`~repro.core.model_builder.ModelReuseCache` hands a
previously built model back when a planning round's scope and system state
match an earlier one.  It is a pure speed optimisation; this module pins
the contract that with reuse on or off every registry planner admits the
same queries and reports the same objective values.
"""

from __future__ import annotations

import pytest

from repro.api import PlannerConfig, create_planner

from tests.conftest import make_catalog, query_over

ALL_PLANNERS = ["sqpr", "heuristic", "soda", "optimistic_bound"]


def _run_workload(name: str, reuse: bool):
    """Admit a small workload twice over (with repeats) and collect outcomes."""
    catalog = make_catalog(num_hosts=3, cpu=8.0, num_base=4)
    config = PlannerConfig(time_limit=2.0, reuse_model=reuse)
    planner = create_planner(name, catalog, config=config)
    workload = [
        query_over("b0", "b1"),
        query_over("b1", "b2"),
        query_over("b0", "b1", "b2"),
        query_over("b2", "b3"),
        query_over("b0", "b3"),
    ]
    outcomes = [planner.submit(item) for item in workload]
    return planner, outcomes


class TestPlannerWarmStartEquivalence:
    """A planner with a warm model-reuse cache decides like a cold one."""

    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_warm_and_cold_planning_agree(self, name):
        _, warm_outcomes = _run_workload(name, reuse=True)
        _, cold_outcomes = _run_workload(name, reuse=False)
        assert [o.admitted for o in warm_outcomes] == [o.admitted for o in cold_outcomes]
        for warm, cold in zip(warm_outcomes, cold_outcomes):
            if warm.objective_value is not None and cold.objective_value is not None:
                assert warm.objective_value == pytest.approx(
                    cold.objective_value, rel=1e-6, abs=1e-6
                )

    def test_sqpr_reports_reuse_extras(self):
        _, outcomes = _run_workload("sqpr", reuse=True)
        planned = [o for o in outcomes if not o.duplicate]
        assert planned, "workload should exercise the planning path"
        for outcome in planned:
            assert isinstance(outcome.reused_model, bool)


class TestModelReuseCache:
    def test_rejected_query_retry_hits_cache(self):
        # A tiny system that rejects an oversized query: the rejection leaves
        # the allocation untouched, so retrying the same query must reuse the
        # cached model instead of rebuilding it.
        catalog = make_catalog(num_hosts=2, cpu=0.5, num_base=3, rate=50.0)
        config = PlannerConfig(time_limit=2.0, two_stage=False)
        planner = create_planner("sqpr", catalog, config=config)
        query = catalog.register_query(query_over("b0", "b1", "b2"))
        first = planner.submit(query)
        retried = planner.submit(query)
        assert not first.admitted and not retried.admitted
        assert planner.reuse_stats["hits"] >= 1
        assert retried.reused_model

    def test_reset_clears_reuse_state(self):
        planner, _ = _run_workload("sqpr", reuse=True)
        planner.reset()
        assert planner.reuse_stats == {"hits": 0, "misses": 0}

    def test_disabled_reuse_never_hits(self):
        planner, _ = _run_workload("sqpr", reuse=False)
        assert planner.reuse_stats["hits"] == 0
