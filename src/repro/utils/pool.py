"""Shared fan-out helpers with pluggable execution backends.

:class:`~repro.core.federated.FederatedPlanner` plans its per-site groups
concurrently and the scenario-matrix sweep runner executes independent
matrix cells concurrently — both are the same shape: a list of
independent tasks whose results must come back *in submission order* so
that concurrency never changes observable output, only wall-clock.
:func:`map_in_pool` is that shape, factored out so both layers share one
audited implementation.

Three backends cover the latency/parallelism trade-off:

``serial``
    Run in the calling thread, always.  The reference semantics every
    other backend must reproduce bit-identically.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Cheap to spin
    up and shares all state by reference, but the GIL serialises the
    Python planning code around each solve — threads only help when
    tasks block.
``process``
    A fork-context :class:`~concurrent.futures.ProcessPoolExecutor` —
    true multicore execution.  ``fn`` and every item (and result) must
    be picklable; per-call pool startup costs milliseconds, so this
    pays off for coarse tasks (whole matrix cells, whole site batches).

For workloads with expensive per-worker state (a warm planner replica
per federated site), :class:`PersistentProcessPool` keeps long-lived
fork workers alive across calls: each worker is initialised once from an
inherited payload and then serves small picklable requests over a pipe.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

T = TypeVar("T")
R = TypeVar("R")

#: The execution backends :func:`map_in_pool` accepts.
BACKENDS = ("serial", "thread", "process")


def process_backend_available() -> bool:
    """Whether the process backend can run here.

    Worker state (catalogs, planner replicas) is shipped by fork-time
    memory inheritance, so the ``fork`` start method is required —
    available on POSIX, absent on Windows.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def _fork_context():
    if not process_backend_available():
        raise ValueError(
            "the process execution backend needs the 'fork' start method "
            f"(available: {multiprocessing.get_all_start_methods()}); "
            "use backend='thread' on this platform"
        )
    return multiprocessing.get_context("fork")


def map_in_pool(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    thread_name_prefix: str = "pool",
    backend: str = "thread",
) -> List[R]:
    """Apply ``fn`` to every item, preserving input order in the result.

    ``workers`` bounds the pool width (``None``, ``0`` or ``1`` runs
    sequentially in the calling thread — no pool, no thread-switch
    overhead); a negative ``workers`` is a caller bug and raises
    :class:`ValueError` rather than silently degrading to the sequential
    path.  The effective width never exceeds ``len(items)``.  Exceptions
    propagate from the first failing item in submission order, exactly as
    the sequential path would raise them; on failure the not-yet-started
    remainder of the batch is cancelled instead of being run to
    completion behind the caller's back.

    ``backend`` picks the execution substrate: ``"serial"`` forces the
    sequential path regardless of ``workers``; ``"thread"`` (the
    default) fans out on a thread pool; ``"process"`` fans out on a
    fork-context process pool — true multicore, but ``fn``, the items
    and the results must all be picklable.  All three produce identical
    results for deterministic ``fn``; only wall-clock differs.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; expected one of {BACKENDS}"
        )
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    width = min(workers or 1, len(items))
    if width <= 1 or backend == "serial":
        return [fn(item) for item in items]
    pool: Executor
    if backend == "process":
        pool = ProcessPoolExecutor(
            max_workers=width, mp_context=_fork_context()
        )
    else:
        pool = ThreadPoolExecutor(
            max_workers=width, thread_name_prefix=thread_name_prefix
        )
    with pool:
        futures = [pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise


class WorkerError(RuntimeError):
    """A persistent worker's task raised; carries the child traceback."""

    def __init__(self, worker_id: int, child_traceback: str) -> None:
        super().__init__(
            f"persistent worker {worker_id} failed:\n{child_traceback}"
        )
        self.worker_id = worker_id
        self.child_traceback = child_traceback


@dataclass
class WorkerStats:
    """Utilisation bookkeeping of one persistent worker (parent-side)."""

    tasks: int = 0
    busy_seconds: float = 0.0
    resyncs: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "tasks": self.tasks,
            "busy_seconds": self.busy_seconds,
            "resyncs": self.resyncs,
        }


def _worker_main(initializer, payload, conn) -> None:
    """Child loop of one persistent worker.

    Builds the handler once from the fork-inherited payload, then serves
    ``(tag, body)`` requests until the parent sends ``None`` or closes
    the pipe.  Task failures are caught and shipped back as formatted
    tracebacks — a bad task must not kill the worker.
    """
    try:
        handler = initializer(payload)
    except BaseException:
        conn.send(("init_err", traceback.format_exc(), 0.0))
        conn.close()
        return
    conn.send(("ready", None, 0.0))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message is None:
            break
        tag, body = message
        started = time.perf_counter()
        try:
            result = handler(tag, body)
            status = "ok"
        except BaseException:
            result = traceback.format_exc()
            status = "err"
        conn.send((status, result, time.perf_counter() - started))
    conn.close()


class PersistentProcessPool:
    """Long-lived fork workers with warm, call-to-call state.

    Each worker is a forked child holding whatever the ``initializer``
    built from its (fork-inherited, never pickled) ``payload`` — e.g. a
    planner replica over a catalog copy.  Requests and responses travel
    over a per-worker pipe and *are* pickled, so keep them compact:
    deltas and ids, not whole catalogs.

    One request is outstanding per worker at a time;
    :meth:`scatter` overlaps workers by sending every request before
    collecting any response.  A task exception is returned (and raised
    parent-side as :class:`WorkerError`) without killing the worker.
    """

    def __init__(
        self,
        initializer: Callable[[Any], Callable[[str, Any], Any]],
        payloads: Sequence[Any],
        name: str = "persistent-pool",
    ) -> None:
        if not payloads:
            raise ValueError("a persistent pool needs at least one worker")
        ctx = _fork_context()
        self._procs = []
        self._conns = []
        self.stats: List[WorkerStats] = []
        self._closed = False
        for worker_id, payload in enumerate(payloads):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(initializer, payload, child_conn),
                name=f"{name}-{worker_id}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self.stats.append(WorkerStats())
        for worker_id, conn in enumerate(self._conns):
            status, result, _ = conn.recv()
            if status != "ready":
                failure = result
                self.terminate()
                raise WorkerError(worker_id, failure)

    def __len__(self) -> int:
        return len(self._procs)

    # ------------------------------------------------------------------ calls
    def _send(self, worker_id: int, tag: str, body: Any) -> None:
        if self._closed:
            raise RuntimeError("the persistent pool is closed")
        self._conns[worker_id].send((tag, body))

    def _recv(self, worker_id: int) -> Any:
        try:
            status, result, elapsed = self._conns[worker_id].recv()
        except EOFError:
            raise WorkerError(
                worker_id, "worker exited without replying (EOF)"
            ) from None
        stats = self.stats[worker_id]
        stats.tasks += 1
        stats.busy_seconds += elapsed
        if status == "err":
            raise WorkerError(worker_id, result)
        return result

    def call(self, worker_id: int, tag: str, body: Any = None) -> Any:
        """Run one task on one worker and return its result."""
        self._send(worker_id, tag, body)
        return self._recv(worker_id)

    def scatter(
        self, assignments: Mapping[int, Tuple[str, Any]]
    ) -> Dict[int, Any]:
        """Run one task per assigned worker, concurrently.

        Every request is sent before any response is collected, so the
        assigned workers execute in parallel.  On a task failure the
        remaining responses are still drained (the pipes must not
        desynchronise) before the first failing worker's
        :class:`WorkerError` is raised, in worker-id order.
        """
        ordered = sorted(assignments.items())
        for worker_id, (tag, body) in ordered:
            self._send(worker_id, tag, body)
        results: Dict[int, Any] = {}
        first_error: Optional[WorkerError] = None
        for worker_id, _ in ordered:
            try:
                results[worker_id] = self._recv(worker_id)
            except WorkerError as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return results

    def broadcast(self, tag: str, body: Any = None) -> List[Any]:
        """Run the same task on every worker; results in worker order."""
        return [
            result
            for _, result in sorted(
                self.scatter(
                    {worker_id: (tag, body) for worker_id in range(len(self))}
                ).items()
            )
        ]

    # -------------------------------------------------------------- lifecycle
    def close(self, timeout: float = 5.0) -> None:
        """Ask every worker to exit and join it; escalate to terminate."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for proc, conn in zip(self._procs, self._conns):
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
            conn.close()

    def terminate(self) -> None:
        """Kill every worker immediately (error paths, interpreter exit)."""
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(1.0)
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "PersistentProcessPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.terminate()
        except Exception:
            pass

    def worker_stats(self) -> List[Dict[str, float]]:
        """Per-worker utilisation counters (tasks, busy seconds, resyncs)."""
        return [stats.as_dict() for stats in self.stats]
