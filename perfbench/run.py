"""Admission benchmark: decision latency and quality of SQPR's default path.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload local_fill --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs the timed arrivals for ``--seconds`` with tracing off and
prints the end-to-end metrics.  ``--trace 1`` runs the arrivals of half
that time twice on fresh set-ups, first untraced and then with a span
around every layer boundary, and prints the per-layer split of the traced
pass plus the tracing overhead.  ``peak_rss_mb`` is the peak memory through
set-up and the workload's first ``rss_ops`` timed operations, so that it
does not grow with the machine's speed.  Both modes check the program's
outputs.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: An untraced run sets up at least ``SETUP_REPEATS`` times, and keeps
#: setting up until ``SETUP_BUDGET_S`` have been spent; ``setup_s`` is the
#: median.  The timed arrivals run on the last set-up.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 4.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "decision_p50_ms": "ms",
    "decision_p90_ms": "ms",
    "decisions_per_s": "1/s",
    "admitted_frac": "frac",
    "retire_p50_ms": "ms",
    "ok_frac": "frac",
    "net_per_admitted": "Mbps",
    "cpu_per_admitted": "cpu",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fingerprint_digest(allocation) -> str:
    return hashlib.sha256(repr(allocation.fingerprint()).encode()).hexdigest()[:16]


def check_state(state) -> list:
    """Problems with the final state; empty when every output is correct."""
    problems = []
    planner_alloc = state.planner.allocation
    engine_alloc = state.engine.allocation
    allocations = {"planner": planner_alloc}
    if engine_alloc is not planner_alloc:
        allocations["engine"] = engine_alloc
    for label, allocation in allocations.items():
        violations = allocation.validate()
        if violations:
            problems.append(f"{label} allocation invalid: {violations[0]}")
    if planner_alloc.fingerprint() != engine_alloc.fingerprint():
        problems.append("engine did not adopt the planner's final allocation")
    if len(planner_alloc.admitted_queries) != len(state.residents):
        problems.append(
            f"admitted count {len(state.residents)} != "
            f"len(allocation.admitted_queries) {len(planner_alloc.admitted_queries)}"
        )
    return problems


def time_setups(workload, inputs):
    """Set up repeatedly (see ``SETUP_REPEATS``); the times and the last state."""
    samples = []
    state = None
    while len(samples) < SETUP_REPEATS or sum(samples) < SETUP_BUDGET_S:
        if state is not None:
            state.close()
        began = time.perf_counter()
        state = workload.setup(inputs)
        samples.append(time.perf_counter() - began)
    return samples, state


def run_pass(workload, inputs, seconds, max_ops=None, recorder=None, time_setup=False):
    """Set up, run the timed operations and check the outputs.

    With ``time_setup`` the set-up is repeated and timed first.  A workload
    that runs on the main thread alone does all this while moving from CPU
    to CPU (see ``workloads.ROTATE_S``); the service's threads are left to
    the scheduler.
    """
    from workloads import CpuRotation

    single = workload.clients is None
    with CpuRotation() if single else contextlib.nullcontext():
        return _run_pass(workload, inputs, seconds, max_ops, recorder, time_setup)


def _run_pass(workload, inputs, seconds, max_ops, recorder, time_setup):
    from spans import Patches, SolverStatusCounter, trace_layers
    from workloads import Phase, run_ops

    if time_setup:
        setup_s, state = time_setups(workload, inputs)
    else:
        setup_s, state = [], workload.setup(inputs)
    phase = Phase()
    counter = SolverStatusCounter()
    try:
        with Patches() as patches:
            counter.install(patches)
            if recorder is not None:
                trace_layers(recorder, patches)
            if workload.clients is not None:
                workload.clients(
                    state, inputs, phase, seconds, recorder=recorder, rss_ops=workload.rss_ops
                )
                timed_ops = len(phase.decisions)
            else:
                began = time.perf_counter()
                timed_ops = run_ops(
                    state,
                    workload.timed_ops(state, inputs),
                    phase,
                    seconds=None if max_ops is not None else seconds,
                    max_ops=max_ops,
                    recorder=recorder,
                    rss_ops=workload.rss_ops,
                )
                phase.timed_s = time.perf_counter() - began
        if phase.peak_rss_mb is None:
            phase.sample_peak_rss()
        problems = check_state(state)
        problems.extend(phase.errors)
        record = {
            "decisions": len(phase.decisions),
            "admitted": sum(phase.decisions),
            "retires": len(phase.retire_s),
            "timed_ops": timed_ops,
            "solver_status": dict(sorted(counter.counts.items())),
            "limit_hits": counter.limit_hits,
            "fingerprint": fingerprint_digest(state.planner.allocation),
            "reuse_stats": dict(getattr(state.planner, "reuse_stats", {}) or {}),
        }
    finally:
        state.close()
    return phase, setup_s, record, problems


def end_to_end_metrics(phase, setup_s):
    from stats import percentile, tail

    decisions = phase.decision_s
    p90, _ = tail(decisions, 90.0)
    return {
        "setup_s": statistics.median(setup_s),
        "decision_p50_ms": 1e3 * percentile(decisions, 50.0),
        "decision_p90_ms": 1e3 * p90,
        "decisions_per_s": len(phase.decisions) / phase.timed_s,
        "admitted_frac": sum(phase.decisions) / len(phase.decisions),
        "retire_p50_ms": 1e3 * percentile(phase.retire_s, 50.0),
        "ok_frac": 1.0 - phase.failed / phase.attempted,
        "net_per_admitted": statistics.mean(phase.net_per_admitted),
        "cpu_per_admitted": statistics.mean(phase.cpu_per_admitted),
        "peak_rss_mb": phase.peak_rss_mb,
    }


def per_layer_metrics(recorder, phase, record, overhead):
    from spans import LAYER_NAMES
    from stats import percentile

    totals = recorder.totals()
    rows = {name: totals.get(name, (0, 0.0)) for name in LAYER_NAMES}
    roots = [v for k, v in totals.items() if k.startswith("bench.")]
    rows["bench.unattributed"] = (sum(c for c, _ in roots), sum(s for _, s in roots))
    busy = sum(self_s for _, self_s in totals.values())
    metrics = {}
    for name, (calls, self_s) in rows.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.share"] = (self_s / busy if busy else 0.0, "frac")
    metrics["bench.traced_s"] = (busy, "s")
    status = record["solver_status"]
    for key in ("optimal", "feasible", "infeasible", "timeout"):
        metrics[f"milp.status.{key}"] = (status.get(key, 0), "count")
    metrics["milp.limit_hits"] = (record["limit_hits"], "count")
    reuse = record["reuse_stats"]
    lookups = reuse.get("hits", 0) + reuse.get("misses", 0)
    metrics["core.model_builder.reuse_hit_ratio"] = (
        reuse.get("hits", 0) / lookups if lookups else 0.0,
        "frac",
    )
    metrics["core.planner.duplicate_frac"] = (
        phase.duplicates / len(phase.decisions) if phase.decisions else 0.0,
        "frac",
    )
    service = phase.service_metrics
    metrics["service.queue_wait_p50_ms"] = (
        1e3 * percentile(phase.queue_wait_s, 50.0) if phase.queue_wait_s else 0.0,
        "ms",
    )
    batch = service.get("histograms", {}).get("batch_size", {})
    metrics["service.batch_size_mean"] = (batch.get("mean", 0.0), "count")
    metrics["service.fallback_batches"] = (
        service.get("counters", {}).get("fallback_batches_total", 0),
        "count",
    )
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def environment():
    import numpy
    import scipy
    from repro.milp import MilpSolver

    return {
        "cpu_count": os.cpu_count(),
        "solver_backend": MilpSolver().resolved_backend().value,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import SpanRecorder
    from stats import tail
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    inputs = workload.make_inputs(args.seed, args.seconds)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "runs": [],
    }

    if args.trace == 0:
        phase, setup_s, record, problems = run_pass(
            workload, inputs, args.seconds, time_setup=True
        )
        record["pass"] = "untraced"
        detail["runs"].append(record)
        detail["setup_s_samples"] = setup_s
        values = end_to_end_metrics(phase, setup_s)
        detail["decision_samples"] = len(phase.decision_s)
        detail["decision_tail_percentile"] = tail(phase.decision_s, 90.0)[1]
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        attempted, failed = phase.attempted, phase.failed
    else:
        # Each pass gets half the time, and the traced pass replays exactly
        # the untraced pass's arrivals, so a traced run takes about as long
        # as an untraced one.
        half = args.seconds / 2
        # One client runs one deterministic sequence of operations; several
        # clients interleave theirs differently on every run.
        single = workload.timed_ops is not None
        plain, _, plain_record, problems = run_pass(workload, inputs, half)
        plain_record["pass"] = "untraced"
        recorder = SpanRecorder()
        traced, _, traced_record, traced_problems = run_pass(
            workload,
            inputs,
            half,
            max_ops=plain_record["timed_ops"] if single else None,
            recorder=recorder,
        )
        traced_record["pass"] = "traced"
        detail["runs"] += [plain_record, traced_record]
        problems += traced_problems
        if (
            single
            and plain_record["limit_hits"] == 0
            and traced_record["limit_hits"] == 0
        ):
            if plain.decisions != traced.decisions:
                problems.append("traced decisions differ from the untraced run's")
            if plain_record["fingerprint"] != traced_record["fingerprint"]:
                problems.append("traced final fingerprint differs from the untraced run's")
        if single:
            overhead = sum(traced.decision_s + traced.retire_s) / sum(
                plain.decision_s + plain.retire_s
            ) - 1.0
        else:
            overhead = statistics.mean(traced.decision_s) / statistics.mean(plain.decision_s) - 1.0
        metrics = per_layer_metrics(recorder, traced, traced_record, overhead)
        if single:
            # Every span nests inside an operation's root span on the one
            # thread, so the self times add up to the timed operations.
            timed = sum(traced.decision_s + traced.retire_s)
            traced_s = metrics["bench.traced_s"][0]
            if not 0.98 * timed <= traced_s <= timed:
                problems.append(
                    f"span self times add up to {traced_s:.3f} s, "
                    f"not the {timed:.3f} s of timed operations"
                )
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed

    detail["problems"] = problems
    print(json.dumps(detail, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
