"""The benchmark's workloads: inputs made from a seed, set-up, and the timed loops.

Every workload drives the default configuration (``PlannerConfig()``,
``SolverBackend.AUTO``, thread execution backend) through the public API
only, in closed loops.  A decision is timed from the ``submit`` call until
the planner's allocation has passed ``validate_delta`` and been adopted by
the ``ClusterEngine``.

The catalog of each workload is fixed; the seed draws the arrivals, so
different seeds sample the same workload shape.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import (
    AdmissionService,
    ClusterEngine,
    LinearCostModel,
    PlannerConfig,
    ServiceConfig,
    SimulationScenarioConfig,
    SystemCatalog,
    build_simulation_scenario,
    create_planner,
)
from repro.dsps.query import DecompositionMode, QueryWorkloadItem
from repro.experiments.federated import site_local_workload

from spans import SpanRecorder

#: Retirements timed after the service clients' arrivals, with a pause before
#: each, so that they spread over a few seconds and their median does not
#: hang on one moment of the machine, whose speed drifts over seconds.
TAIL_RETIRES = 150
TAIL_PAUSE_S = 0.02
#: ``local_fill`` retires a random resident after every this many arrivals.
FILL_RETIRE_EVERY = 5
#: Closed-loop clients sharing the admission service in ``service_clients``.
SERVICE_CLIENTS = 4
#: Residents ``reuse_churn`` keeps by retiring one before each arrival.
CHURN_RESIDENTS = 64
#: Longest wait, in seconds, for one decision or one client thread.
DRAIN_TIMEOUT = 120.0
#: A closed loop moves its thread to the next CPU it may use this often.
#: The CPUs of a shared host run at different speeds that change with the
#: neighbours' load over tens of seconds; left to the scheduler, a run
#: stays on one CPU and measures that CPU's luck, and visiting every CPU
#: in turn averages over them.
ROTATE_S = 0.25

Op = Tuple[str, object]  # ("submit", QueryWorkloadItem) | ("retire", query id)


@dataclass
class Phase:
    """What one pass over a workload's operations observed."""

    decisions: List[bool] = field(default_factory=list)
    decision_s: List[float] = field(default_factory=list)
    retire_s: List[float] = field(default_factory=list)
    duplicates: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Wall-clock seconds of the timed operations.
    timed_s: float = 0.0
    queue_wait_s: List[float] = field(default_factory=list)
    service_metrics: Dict[str, object] = field(default_factory=dict)
    #: Network and CPU use per admitted query, sampled after each decision.
    net_per_admitted: List[float] = field(default_factory=list)
    cpu_per_admitted: List[float] = field(default_factory=list)
    #: Peak resident memory, in MB, once the workload's ``rss_ops`` timed
    #: operations have run (or at the end of a shorter run).
    peak_rss_mb: Optional[float] = None

    def sample_peak_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def sample_usage(self, allocation) -> None:
        admitted = len(allocation.admitted_queries)
        if admitted:
            self.net_per_admitted.append(allocation.total_network_used() / admitted)
            self.cpu_per_admitted.append(allocation.total_cpu_used() / admitted)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class State:
    """A set-up workload: catalog, planner, engine and, for clients, the service."""

    def __init__(self, catalog, planner, engine, service=None) -> None:
        self.catalog = catalog
        self.planner = planner
        self.engine = engine
        self.service = service
        #: Admitted query ids, in admission order.
        self.residents: List[int] = []

    def close(self) -> None:
        if self.service is not None:
            self.service.close(wait=True)
        close = getattr(self.planner, "close", None)
        if close is not None:
            close()

    def deploy(self, phase: Phase, what: str) -> bool:
        """Delta-validate the planner's allocation, then adopt it on the engine."""
        allocation = self.planner.allocation
        violations = allocation.validate_delta(*allocation.drain_touched())
        if violations:
            phase.fail(f"{what}: " + "; ".join(violations[:3]))
            return False
        self.engine.adopt(allocation, trusted=True)
        return True

    def submit(self, item: QueryWorkloadItem, phase: Phase) -> None:
        outcome = self.planner.submit(item)
        if self.deploy(phase, "submit"):
            phase.decisions.append(bool(outcome.admitted))
            phase.duplicates += bool(outcome.duplicate)
            if outcome.admitted:
                self.residents.append(outcome.query.query_id)

    def retire(self, query_id: int, phase: Phase) -> None:
        self.residents.remove(query_id)
        if not self.planner.retire(query_id):
            phase.fail(f"retire {query_id}: not admitted")
            return
        self.deploy(phase, "retire")


class CpuRotation:
    """Moves the entering thread to the next allowed CPU every ``period`` seconds.

    A daemon thread does the moving, so a long call such as a set-up is
    spread over the CPUs too.  Threads the entering thread starts meanwhile
    inherit whichever one CPU it has at that moment, so use it only around
    code that runs on that one thread.  On leaving, the thread may use every
    CPU it was allowed before.  Without per-thread CPU affinity, or with one
    CPU, it does nothing.
    """

    def __init__(self, period: float = ROTATE_S) -> None:
        self.period = period
        getaffinity = getattr(os, "sched_getaffinity", None)
        self.allowed = set(getaffinity(0)) if getaffinity is not None else set()
        self.cpus = sorted(self.allowed)
        self._target = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            self._target = threading.get_native_id()
            self._thread = threading.Thread(
                target=self._rotate, name="bench-cpu-rotation", daemon=True
            )
            self._thread.start()
        return self

    def _rotate(self) -> None:
        for cpu in itertools.cycle(self.cpus):
            os.sched_setaffinity(self._target, {cpu})
            if self._stop.wait(self.period):
                return

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            os.sched_setaffinity(self._target, self.allowed)


def run_ops(
    state: State,
    ops: Iterator[Op],
    phase: Phase,
    seconds: Optional[float] = None,
    max_ops: Optional[int] = None,
    recorder: Optional[SpanRecorder] = None,
    rss_ops: Optional[int] = None,
) -> int:
    """Closed loop: run ``ops`` one after another, each waiting for the last.

    Stops when ``ops`` is exhausted, after ``max_ops`` operations, or once
    ``seconds`` have passed.  Peak memory is sampled after ``rss_ops``
    operations.  Returns the number of operations run.
    """
    clock = time.perf_counter
    start = clock()
    done = 0
    if max_ops == 0:
        return 0
    for kind, arg in ops:
        began = clock()
        if recorder is not None:
            recorder.begin(f"bench.{kind}")
        phase.attempted += 1
        try:
            if kind == "submit":
                state.submit(arg, phase)
            else:
                state.retire(arg, phase)
        except Exception as error:  # an operation that raised is a failure
            phase.fail(f"{kind}: {type(error).__name__}: {error}")
        finally:
            if recorder is not None:
                recorder.end()
        elapsed = clock() - began
        if kind == "submit":
            phase.decision_s.append(elapsed)
            phase.sample_usage(state.engine.allocation)
        else:
            phase.retire_s.append(elapsed)
        done += 1
        if done == rss_ops:
            phase.sample_peak_rss()
        if max_ops is not None and done >= max_ops:
            break
        if seconds is not None and clock() - start >= seconds:
            break
    return done


def tail_retires(state: State, seed: int) -> Iterator[Op]:
    """Retire a seeded sample of the residents, after the service's arrivals."""
    rng = random.Random(seed)
    chosen = rng.sample(state.residents, min(TAIL_RETIRES, len(state.residents)))
    for query_id in chosen:
        time.sleep(TAIL_PAUSE_S)
        yield ("retire", query_id)


@dataclass
class Workload:
    """One workload: its inputs, set-up and timed loop."""

    name: str
    make_inputs: Callable[[int, float], object]
    setup: Callable[[object], State]
    #: Timed operations after which ``peak_rss_mb`` is read.  Memory grows
    #: with every operation, so a count that does not depend on the
    #: machine's speed keeps a faster program from reading as a bigger one.
    rss_ops: int
    #: The operations one client runs one after another, or ``None`` when
    #: ``clients`` drives several clients through the admission service.
    timed_ops: Optional[Callable[[State, object], Iterator[Op]]]
    clients: Optional[Callable] = None


# ------------------------------------------------------------------ local_fill
def _local_fill_scenario():
    # Six sites of three hosts, as federated_scenario(6), but with host,
    # link and WAN capacity high enough that no arrival is ever rejected.
    return build_simulation_scenario(
        SimulationScenarioConfig(
            num_hosts=18,
            num_base_streams=144,
            host_cpu_capacity=1e4,
            host_bandwidth=1e5,
            link_capacity=1e5,
            decomposition=DecompositionMode.CANONICAL,
            num_sites=6,
            wan_capacity=1e5,
            seed=7,
        )
    )


def _site_local_inputs(scenario_fn, per_second: float):
    def make(seed: int, seconds: float):
        scenario = scenario_fn()
        per_site = max(20, math.ceil(per_second * seconds / scenario.num_sites))
        # Three three-way joins for every two-way join: the median decision
        # then sits inside the three-way mode of the latency distribution,
        # not on the edge between the two modes, where it would jump.
        items = site_local_workload(
            scenario,
            queries_per_site=per_site,
            arities=(2, 3, 3, 3),
            seed_offset=10 * seed,
        )
        return {"scenario": scenario, "items": items, "seed": seed}

    return make


def _federated_state(inputs, workers: Optional[int] = None) -> State:
    catalog = inputs["scenario"].build_catalog()
    planner = create_planner(
        "federated:sqpr", catalog, config=PlannerConfig(), workers=workers
    )
    return State(catalog, planner, ClusterEngine(catalog))


def _fill_ops(state: State, inputs) -> Iterator[Op]:
    # Occasional departures spread the timed retirements over the whole run.
    rng = random.Random(f"{inputs['seed']}-retire")
    for index, item in enumerate(inputs["items"], start=1):
        yield ("submit", item)
        if index % FILL_RETIRE_EVERY == 0:
            yield ("retire", rng.choice(state.residents))


# ----------------------------------------------------------------- reuse_churn
CHURN_HOSTS = 4
CHURN_BASE = 12
CHURN_ZIPF = 1.0


def _churn_catalog() -> SystemCatalog:
    catalog = SystemCatalog(
        cost_model=LinearCostModel(seed=1),
        decomposition=DecompositionMode.CANONICAL,
        default_link_capacity=4000.0,
    )
    for i in range(CHURN_HOSTS):
        catalog.add_host(
            cpu_capacity=200.0, bandwidth_capacity=2000.0, name=f"h{i}", site=0
        )
    for i in range(CHURN_BASE):
        catalog.add_base_stream(f"b{i}", 10.0, i % CHURN_HOSTS)
    return catalog


def _churn_inputs(seed: int, seconds: float):
    # The pool of distinct queries and its popularity order are part of the
    # workload's shape; the seed draws the Zipf-skewed arrivals over it.
    # Two-way joins on four hosts: with three-way joins or eight hosts some
    # planned solves ran into the solver's time limit, which makes decisions
    # depend on the clock and throughput swing from one run to the next.
    pool = list(itertools.combinations([f"b{i}" for i in range(CHURN_BASE)], 2))
    random.Random(1307).shuffle(pool)
    weights = [1.0 / (rank + 1) ** CHURN_ZIPF for rank in range(len(pool))]
    return {"pool": pool, "weights": weights, "seed": seed}


def _churn_arrivals(rng: random.Random, inputs) -> Iterator[QueryWorkloadItem]:
    pool, weights = inputs["pool"], inputs["weights"]
    while True:
        yield QueryWorkloadItem(base_names=rng.choices(pool, weights=weights)[0])


def _churn_setup(inputs) -> State:
    """Pre-fill to ``CHURN_RESIDENTS`` residents, so the timed churn is steady.

    The pre-fill arrivals do not depend on the seed, so every run sets up
    the same residents with the same work.
    """
    catalog = _churn_catalog()
    planner = create_planner("sqpr", catalog, config=PlannerConfig())
    state = State(catalog, planner, ClusterEngine(catalog))
    arrivals = _churn_arrivals(random.Random("prefill"), inputs)
    while len(state.residents) < CHURN_RESIDENTS:
        outcome = planner.submit(next(arrivals))
        if outcome.admitted:
            state.residents.append(outcome.query.query_id)
    # The pre-fill is validated in full once, then handed to the engine.
    allocation = planner.allocation
    allocation.drain_touched()
    violations = allocation.validate()
    if violations:
        raise RuntimeError("pre-fill left an invalid allocation: " + violations[0])
    state.engine.adopt(allocation, trusted=True)
    return state


def _churn_ops(state: State, inputs) -> Iterator[Op]:
    # Oldest resident departs first: each query lives for a fixed number of
    # arrivals, so the duplicate share is steady from one run to the next.
    for item in _churn_arrivals(random.Random(inputs["seed"]), inputs):
        if len(state.residents) >= CHURN_RESIDENTS:
            yield ("retire", state.residents[0])
        yield ("submit", item)


# ------------------------------------------------------------- service_clients
def _service_setup(inputs) -> State:
    state = _federated_state(inputs, workers=2)
    state.service = AdmissionService(
        state.planner, engine=state.engine, config=ServiceConfig()
    )
    return state


def run_service_clients(
    state: State,
    inputs,
    phase: Phase,
    seconds: float,
    recorder: Optional[SpanRecorder] = None,
    rss_ops: Optional[int] = None,
) -> None:
    """``SERVICE_CLIENTS`` closed-loop clients share the service for ``seconds``.

    Each client submits the next arrival once its last one is decided and
    deployed, so co-arrivals coalesce into batches.  Afterwards residents
    are retired through the planner, since the service has no departures.
    """
    service = state.service
    clock = time.perf_counter
    items = iter(inputs["items"])
    lock = threading.Lock()
    start = clock()
    deadline = start + seconds

    def client() -> None:
        while clock() < deadline:
            with lock:
                item = next(items, None)
                phase.attempted += item is not None
            if item is None:
                return
            began = clock()
            if recorder is not None:
                recorder.begin("bench.submit")
            try:
                ticket = service.submit(item)
            finally:
                if recorder is not None:
                    recorder.end()
            try:
                outcome = ticket.result(timeout=DRAIN_TIMEOUT)
            except Exception as error:  # the service failed this arrival
                with lock:
                    phase.fail(f"ticket: {type(error).__name__}: {error}")
                continue
            with lock:
                phase.decision_s.append(ticket.completed_at - began)
                phase.decisions.append(bool(outcome.admitted))
                if len(phase.decisions) == rss_ops:
                    phase.sample_peak_rss()
                phase.duplicates += bool(outcome.duplicate)
                if outcome.admitted:
                    state.residents.append(outcome.query.query_id)
                if ticket.queue_wait is not None:
                    phase.queue_wait_s.append(ticket.queue_wait)
                phase.sample_usage(state.engine.allocation)

    clients = [
        threading.Thread(target=client, name=f"bench-client-{i}")
        for i in range(SERVICE_CLIENTS)
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(seconds + DRAIN_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("a benchmark client did not finish")
    phase.timed_s = clock() - start
    phase.service_metrics = service.metrics.snapshot()
    service.close(wait=True)
    run_ops(state, tail_retires(state, inputs["seed"]), phase, recorder=recorder)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="local_fill",
            make_inputs=_site_local_inputs(_local_fill_scenario, 150.0),
            setup=_federated_state,
            rss_ops=600,
            timed_ops=_fill_ops,
        ),
        Workload(
            name="reuse_churn",
            make_inputs=_churn_inputs,
            setup=_churn_setup,
            rss_ops=2000,
            timed_ops=_churn_ops,
        ),
        Workload(
            name="service_clients",
            make_inputs=_site_local_inputs(_local_fill_scenario, 150.0),
            setup=_service_setup,
            rss_ops=500,
            timed_ops=None,
            clients=run_service_clients,
        ),
    )
}
