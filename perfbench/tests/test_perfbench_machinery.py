"""Tests for the benchmark's own machinery: spans, percentiles, names.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import statistics
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from spans import LAYER_NAMES, Patches, SpanRecorder
from stats import MIN_BEYOND, percentile, supported_percentile, tail

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


class StepClock:
    """A clock the test sets by hand before each span boundary."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def by_name(recorder):
    return {span.name: span for span in recorder.spans}


# ----------------------------------------------------------------- self time
def test_nested_self_time_subtracts_direct_children_only():
    clock = StepClock()
    rec = SpanRecorder(clock)
    rec.begin("outer")            # t=0
    clock.now = 1.0
    rec.begin("child")
    clock.now = 2.0
    rec.begin("grandchild")
    clock.now = 2.5
    rec.end()                     # grandchild 0.5
    clock.now = 3.0
    rec.end()                     # child 2.0, self 1.5
    clock.now = 4.0
    rec.begin("sibling")
    clock.now = 5.0
    rec.end()                     # sibling 1.0
    clock.now = 10.0
    rec.end()                     # outer 10.0, self 10 - 2 - 1
    spans = by_name(rec)
    assert spans["grandchild"].self_s == pytest.approx(0.5)
    assert spans["child"].self_s == pytest.approx(1.5)
    assert spans["sibling"].self_s == pytest.approx(1.0)
    assert spans["outer"].duration == pytest.approx(10.0)
    assert spans["outer"].self_s == pytest.approx(7.0)
    assert [spans[n].parent for n in ("outer", "child", "grandchild")] == ["", "outer", "child"]
    # Self times of one thread's tree add up to the root's duration.
    assert sum(s.self_s for s in rec.spans) == pytest.approx(10.0)


def test_spans_on_two_threads_do_not_nest_into_each_other():
    clock = StepClock()
    rec = SpanRecorder(clock)
    step = [threading.Event() for _ in range(4)]

    def worker():
        step[0].wait(5)
        clock.now = 1.0
        rec.begin("B")            # opened while main's A is open
        step[1].set()
        step[2].wait(5)
        clock.now = 4.0
        rec.end()
        step[3].set()

    thread = threading.Thread(target=worker)
    thread.start()
    rec.begin("A")                # t=0 on main
    step[0].set()
    step[1].wait(5)
    clock.now = 2.0
    rec.begin("C")                # parent is A (same thread), not B
    clock.now = 3.0
    rec.end()
    step[2].set()
    step[3].wait(5)
    clock.now = 5.0
    rec.end()
    thread.join(5)
    assert not thread.is_alive()
    spans = by_name(rec)
    assert spans["C"].self_s == pytest.approx(1.0)
    assert spans["B"].self_s == pytest.approx(3.0)   # nothing nested in B
    assert spans["A"].self_s == pytest.approx(4.0)   # only C subtracted
    assert spans["A"].thread != spans["B"].thread
    assert (spans["B"].parent, spans["C"].parent) == ("", "A")
    assert rec.totals()["A"] == (1, pytest.approx(4.0))


def test_wrap_records_a_span_and_patches_restore_the_original():
    rec = SpanRecorder()
    holder = SimpleNamespace(fn=lambda x: x + 1)
    original = holder.fn
    with Patches() as patches:
        patches.replace(holder, "fn", lambda fn: rec.wrap("layer", fn))
        assert holder.fn(1) == 2
        with pytest.raises(TypeError):
            holder.fn(None)
    assert holder.fn is original
    assert rec.totals()["layer"][0] == 2  # the raising call is recorded too


# --------------------------------------------------------------- percentiles
def test_percentile_matches_inclusive_quantiles():
    samples = [float(x * x % 37) for x in range(101)]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    assert percentile(samples, 50.0) == pytest.approx(statistics.median(samples))
    assert percentile(samples, 90.0) == pytest.approx(deciles[8])


@pytest.mark.parametrize("n", list(range(1, 400)))
def test_supported_percentile_leaves_enough_samples_beyond(n):
    used = supported_percentile(n, 90.0)
    assert 50.0 <= used <= 90.0
    rank = int(used / 100.0 * (n - 1) + 1e-9)
    if n < 2 * MIN_BEYOND + 2:
        assert used == 50.0  # not even the median has enough samples beyond
        return
    assert n - 1 - rank >= MIN_BEYOND
    if n >= 100:
        assert used == 90.0
    if used < 90.0:
        # The next order statistic up would leave too few samples beyond.
        assert n - 1 - (rank + 1) < MIN_BEYOND


def test_tail_reports_the_percentile_it_used():
    value, used = tail([float(i) for i in range(50)], 90.0)
    assert used < 90.0
    assert value == pytest.approx(percentile([float(i) for i in range(50)], used))
    assert tail([float(i) for i in range(100)], 90.0)[1] == 90.0


# --------------------------------------------------------------- cpu rotation
@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs per-thread CPU affinity and two CPUs",
)
def test_cpu_rotation_moves_the_thread_and_gives_every_cpu_back():
    from workloads import CpuRotation

    allowed = os.sched_getaffinity(0)
    seen = set()
    with CpuRotation(period=0.01):
        deadline = time.perf_counter() + 2.0
        while seen != allowed and time.perf_counter() < deadline:
            mask = os.sched_getaffinity(0)
            if len(mask) == 1:
                seen |= mask
            time.sleep(0.002)
    assert seen == allowed
    assert os.sched_getaffinity(0) == allowed
    assert not any(t.name == "bench-cpu-rotation" for t in threading.enumerate())


# --------------------------------------------------------------------- names
def test_benchmark_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_workload_names_match_the_benchmark_file():
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


def test_end_to_end_metrics_match_the_benchmark_file():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_per_layer_metrics_match_the_benchmark_file():
    rec = SpanRecorder()
    for name in LAYER_NAMES + ("bench.submit",):
        rec.begin(name)
        rec.end()
    phase = SimpleNamespace(
        decisions=[True], duplicates=0, queue_wait_s=[], service_metrics={},
    )
    record = {"solver_status": {}, "limit_hits": 0, "reuse_stats": {}}
    produced = run.per_layer_metrics(rec, phase, record, overhead=0.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in produced.items()} == declared
