"""Benchmarks reproducing Figure 5: scalability of query planning.

* Fig. 5(a): satisfiable queries vs number of hosts.
* Fig. 5(b): satisfiable queries vs per-host resources (CPU cores, 10×
  network capacity).
* Fig. 5(c): satisfiable queries vs query complexity (2-way .. 5-way joins).

``test_fig5_planning_time_report`` additionally tracks *planning time* per
model size on the default path: for growing fig. 5 style models it times
``build_model``, ``to_standard_form`` and ``MilpSolver.solve`` (HiGHS, at
the planner's default MIP gap and without a time limit), writes
``BENCH_fig5.json`` at the repository root (format documented in
``docs/benchmarks.md``) and asserts that every size solves to a proven
optimum.  Set ``FIG5_QUICK=1`` for the small-size CI mode and
``FIG5_BENCH_OUT`` to redirect the report.  This test needs no
pytest-benchmark plugin:

    pytest benchmarks/test_fig5_scalability.py -k planning_time -q
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import pytest
import scipy

from repro.api import PlannerConfig
from repro.core.model_builder import build_model
from repro.core.reduction import compute_scope
from repro.core.weights import ObjectiveWeights
from repro.dsps.allocation import Allocation
from repro.dsps.catalog import SystemCatalog
from repro.dsps.cost_model import LinearCostModel
from repro.dsps.query import DecompositionMode, QueryWorkloadItem
from repro.experiments import figures
from repro.milp import MilpSolver
from repro.milp.standard_form import to_standard_form

from benchmarks.conftest import BOUND, SQPR, run_figure


@pytest.mark.benchmark(group="fig5")
def test_fig5a_scalability_hosts(benchmark):
    result = run_figure(
        benchmark,
        figures.fig5a_scalability_hosts,
        planner_name=SQPR,
        bound_name=BOUND,
    )
    sqpr = result.series[SQPR]
    bound = result.series[BOUND]
    # More hosts -> at least as many satisfiable queries (small tolerance).
    assert sqpr[-1] >= sqpr[0] - 2
    assert bound[-1] >= bound[0]
    # The optimistic bound stays an upper envelope (up to solver noise).
    for s, b in zip(sqpr, bound):
        assert s <= b + 2


@pytest.mark.benchmark(group="fig5")
def test_fig5b_scalability_resources(benchmark):
    result = run_figure(
        benchmark,
        figures.fig5b_scalability_resources,
        planner_name=SQPR,
        bound_name=BOUND,
    )
    sqpr = result.series[SQPR]
    # Richer hosts admit at least as many queries; with 8x CPU the workload
    # should be fully admitted or close to it.
    assert sqpr[-1] >= sqpr[0]
    assert sqpr[-1] >= 0.8 * max(result.series[BOUND])


# --------------------------------------------------------------------------
# Planning time per model size on the default path: build, lower, solve.

#: (num_hosts, join_arity) per measured size.  Quick mode keeps CI runs to
#: a few seconds.
FULL_SIZES = [(4, 3), (6, 3), (8, 4), (12, 4), (16, 5)]
QUICK_SIZES = [(4, 3), (6, 3)]
#: Each size is built and solved this many times from scratch; the report
#: keeps the median of each phase.
REPEATS = 3
#: The planner's default MIP gap.  There is no time limit, so every status
#: is a proof and never depends on the machine's speed.
MIP_GAP = PlannerConfig().mip_gap


def _fig5_catalog(num_hosts: int, arity: int):
    """A fig. 5 style catalog and one registered ``arity``-way join."""
    catalog = SystemCatalog(
        cost_model=LinearCostModel(seed=1),
        decomposition=DecompositionMode.CANONICAL,
        default_link_capacity=1000.0,
    )
    for i in range(num_hosts):
        catalog.add_host(cpu_capacity=10.0, bandwidth_capacity=500.0, name=f"h{i}")
    for i in range(arity):
        catalog.add_base_stream(f"b{i}", 10.0, i % num_hosts)
    query = catalog.register_query(
        QueryWorkloadItem(base_names=tuple(f"b{i}" for i in range(arity)))
    )
    return catalog, query


def _timed_plan(num_hosts: int, arity: int):
    """Build, lower and solve one size; return the form, result and timings."""
    catalog, query = _fig5_catalog(num_hosts, arity)
    allocation = Allocation(catalog)
    scope = compute_scope(catalog, allocation, [query])
    weights = ObjectiveWeights.paper_default(catalog)
    start = time.perf_counter()
    built = build_model(catalog, allocation, scope, weights)
    built_at = time.perf_counter()
    form = to_standard_form(built.model)
    lowered_at = time.perf_counter()
    result = MilpSolver(mip_gap=MIP_GAP).solve(built.model)
    solved_at = time.perf_counter()
    seconds = {
        "build_seconds": built_at - start,
        "lower_seconds": lowered_at - built_at,
        "solve_seconds": solved_at - lowered_at,
    }
    return form, result, seconds


def test_fig5_planning_time_report():
    quick = bool(os.environ.get("FIG5_QUICK"))
    sizes = QUICK_SIZES if quick else FULL_SIZES
    out_path = Path(
        os.environ.get(
            "FIG5_BENCH_OUT", Path(__file__).resolve().parent.parent / "BENCH_fig5.json"
        )
    )

    records = []
    for num_hosts, arity in sizes:
        runs = [_timed_plan(num_hosts, arity) for _ in range(REPEATS)]
        form, result, _ = runs[0]
        phases = {
            key: round(statistics.median(seconds[key] for _, _, seconds in runs), 6)
            for key in ("build_seconds", "lower_seconds", "solve_seconds")
        }
        records.append(
            {
                "num_hosts": num_hosts,
                "join_arity": arity,
                "num_variables": form.num_variables,
                "num_constraints": form.a_ub.shape[0] + form.a_eq.shape[0],
                "nnz": form.a_ub.nnz + form.a_eq.nnz,
                **phases,
                "total_seconds": round(sum(phases.values()), 6),
                "statuses": sorted({r.status.value for _, r, _ in runs}),
                "nodes": result.nodes,
                "objective": result.objective,
            }
        )
        print(
            f"fig5 planning time: hosts={num_hosts} arity={arity} "
            f"vars={form.num_variables} build={phases['build_seconds']:.4f}s "
            f"lower={phases['lower_seconds']:.4f}s "
            f"solve={phases['solve_seconds']:.4f}s "
            f"status={records[-1]['statuses']}"
        )

    report = {
        "figure": "fig5_planning_time",
        "quick_mode": quick,
        "cpu_count": os.cpu_count(),
        "solver_backend": MilpSolver().resolved_backend().value,
        "scipy": scipy.__version__,
        "mip_gap": MIP_GAP,
        "repeats": REPEATS,
        "sizes": records,
        "largest": records[-1],
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"fig5 planning-time report written to {out_path}")

    for record in records:
        assert record["statuses"] == ["optimal"], (
            f"fig5 size hosts={record['num_hosts']} arity={record['join_arity']} "
            f"did not solve to a proven optimum: {record['statuses']}"
        )


@pytest.mark.benchmark(group="fig5")
def test_fig5c_query_complexity(benchmark):
    result = run_figure(
        benchmark,
        figures.fig5c_query_complexity,
        planner_name=SQPR,
        bound_name=BOUND,
    )
    sqpr = result.series[SQPR]
    # More complex queries consume more resources, so the number of
    # satisfiable queries must not increase with arity (small tolerance).
    assert sqpr[-1] <= sqpr[0] + 2
    # SQPR stays within a constant factor of the optimistic bound across
    # arities (the paper: efficiency roughly independent of complexity).
    for s, b in zip(sqpr, result.series[BOUND]):
        if b > 0:
            assert s >= 0.5 * b - 2
