"""Span recording for the traced benchmark run.

The program has no tracing of its own, so the traced run wraps the public
functions at each layer boundary from the outside: every wrapped call
becomes a span with a name, a start, an end and the span that was open on
the same thread when it began.  Each thread keeps its own parent stack,
because the admission service plans on a solver thread, deploys on a
deployer thread, and the federated planner fans shard groups out on pool
threads.  A span's self time is its duration minus the time its direct
children on the same thread cover; work handed to another thread is not
subtracted from the span that waits for it.

Spans are kept in memory and summarised when the run ends.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple


class Span(NamedTuple):
    name: str
    #: Name of the span open on the same thread when this one began ("" at the root).
    parent: str
    thread: int
    start: float
    end: float
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans with one parent stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        # Frame: [name, start, seconds covered by direct children].
        self._stack().append([name, self.clock(), 0.0])

    def end(self) -> Span:
        stack = self._stack()
        name, start, covered = stack.pop()
        end = self.clock()
        duration = end - start
        parent = ""
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        span = Span(name, parent, threading.get_ident(), start, end, duration - covered)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span."""
        out: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            calls, self_s = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, self_s + span.self_s)
        return out


#: Layer name -> the ``(module, attribute path)`` names its callers resolve.
#: A function imported into a caller's module is wrapped there, because the
#: caller looks the name up in its own module globals.
LAYERS: Sequence[Tuple[str, Sequence[Tuple[str, str]]]] = (
    (
        "core.federated",
        (
            ("repro.core.federated", "FederatedPlanner.submit"),
            ("repro.core.federated", "FederatedPlanner.submit_batch"),
            ("repro.core.federated", "FederatedPlanner.retire"),
        ),
    ),
    (
        "core.planner",
        (
            ("repro.core.planner", "SQPRPlanner.submit_batch"),
            ("repro.core.planner", "SQPRPlanner.retire"),
        ),
    ),
    ("core.reduction.compute_scope", (("repro.core.planner", "compute_scope"),)),
    (
        "core.model_builder.build_model",
        (
            ("repro.core.model_builder", "build_model"),
            ("repro.core.planner", "build_model"),
        ),
    ),
    ("milp.highs", (("repro.milp.solver", "solve_with_highs"),)),
    (
        "milp.standard_form.to_standard_form",
        (("repro.milp.scipy_backend", "to_standard_form"),),
    ),
    ("core.solution.decode_solution", (("repro.core.planner", "decode_solution"),)),
    (
        "dsps.subplan.resolve_reuse_matches",
        (("repro.core.planner", "resolve_reuse_matches"),),
    ),
    ("dsps.subplan.collect", (("repro.dsps.subplan", "SubPlanIndex.collect"),)),
    ("dsps.subplan.retire", (("repro.dsps.subplan", "SubPlanIndex.retire"),)),
    (
        "dsps.plan.rebuild_minimal_allocation",
        (
            ("repro.core.planner", "rebuild_minimal_allocation"),
            ("repro.dsps.plan", "rebuild_minimal_allocation"),
        ),
    ),
    ("dsps.allocation.apply", (("repro.dsps.allocation", "Allocation.apply"),)),
    (
        "dsps.allocation.validate_delta",
        (("repro.dsps.allocation", "Allocation.validate_delta"),),
    ),
    ("dsps.engine.adopt", (("repro.dsps.engine", "ClusterEngine.adopt"),)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)


class Patches:
    """Replaces attributes and puts the originals back on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def resolve_owner(module: str, path: str) -> Tuple[object, str]:
    """The object holding ``path``'s last attribute, and that attribute."""
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def trace_layers(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every layer boundary in :data:`LAYERS` with ``recorder`` spans."""
    for name, targets in LAYERS:
        for module, path in targets:
            owner, attr = resolve_owner(module, path)
            patches.replace(owner, attr, lambda fn, name=name: recorder.wrap(name, fn))


class SolverStatusCounter:
    """Counts the status of every ``SolveResult`` that ``MilpSolver.solve`` returns.

    Installed on traced and untraced runs alike: it adds one call per MILP
    solve, which is negligible next to the solve, and it is what makes
    decisions that depended on the wall-clock time limit visible.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def install(self, patches: Patches) -> None:
        owner, attr = resolve_owner("repro.milp.solver", "MilpSolver.solve")
        patches.replace(owner, attr, self._wrap)

    def _wrap(self, solve: Callable) -> Callable:
        def counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            with self._lock:
                key = result.status.value
                self.counts[key] = self.counts.get(key, 0) + 1
            return result

        return counted

    @property
    def limit_hits(self) -> int:
        """Solves stopped by the time limit, with or without an incumbent."""
        return self.counts.get("feasible", 0) + self.counts.get("timeout", 0)
