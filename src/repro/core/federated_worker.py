"""Worker-side protocol of the federated process execution backend.

The federated planner's process backend keeps one long-lived forked
worker per slot (:class:`~repro.utils.pool.PersistentProcessPool`), each
holding *warm shard replicas* — the per-site inner planners, their
:class:`~repro.core.model_builder.ModelReuseCache`\\ s and
:class:`~repro.dsps.catalog.SiteCatalogView`\\ s — inherited by fork at
pool creation and kept in sync from then on with compact picklable
deltas.  The wire format is the delta, not the state:

* **registrations** — a suffix of the catalog's registration log
  (:attr:`SystemCatalog.registration_log`); replaying it reproduces the
  parent's query/stream/operator ids exactly, because registration is a
  deterministic function of catalog state and item order;
* **dynamic catalog state** — host liveness, site partitions and WAN
  drift (:meth:`SystemCatalog.sync_state`), everything the churn
  harness mutates mid-run;
* **events** — replay-ready retire/drop/topology operations targeted at
  the worker's shards;
* **allocation ops** — per-collection set-difference operations
  (:func:`diff_allocation_ops`) shipped *back* from worker to parent,
  so the coordinator merges process-backend results exactly as it
  merges thread-backend results.

Every plan request carries the parent's expected shard fingerprint (the
O(1) rolling :meth:`Allocation.fingerprint`) and the catalog's
structural signature; any mismatch makes the worker answer
``resync`` instead of planning, and the parent falls back to a
full-state resync (pickled catalog + allocation dumps) before retrying.
Divergence can therefore cost a round-trip, never correctness.

Allocations themselves are deliberately unpicklable (their observed
containers refuse pickling to catch accidental cross-process sharing),
so the full-state fallback ships plain-tuple dumps
(:func:`dump_allocation` / :func:`load_allocation`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dsps.allocation import Allocation

__all__ = [
    "dump_allocation",
    "load_allocation",
    "snapshot_allocation",
    "diff_allocation_ops",
    "apply_allocation_ops",
    "sanitize_outcomes",
    "make_shard_worker",
]


# ------------------------------------------------------------ wire helpers
def dump_allocation(alloc: Allocation) -> Dict[str, Any]:
    """Flatten an allocation into plain picklable tuples (full-state sync)."""
    return {
        "flows": sorted(alloc.flows),
        "available": sorted(alloc.available),
        "placements": sorted(alloc.placements),
        "admitted": sorted(alloc.admitted_queries),
        "provided": sorted(alloc.provided.items()),
    }


def load_allocation(catalog, dump: Mapping[str, Any]) -> Allocation:
    """Rebuild an allocation over ``catalog`` from :func:`dump_allocation`.

    Insertion runs through the observed containers, so the rolling
    fingerprint and the touched-state accumulators come out exactly as
    if the contents had been planned locally.
    """
    alloc = Allocation(catalog)
    for stream_id, host in dump["provided"]:
        alloc.provided[stream_id] = host
    for key in dump["flows"]:
        alloc.flows.add(tuple(key))
    for key in dump["available"]:
        alloc.available.add(tuple(key))
    for key in dump["placements"]:
        alloc.placements.add(tuple(key))
    for query_id in dump["admitted"]:
        alloc.admitted_queries.add(query_id)
    return alloc


def snapshot_allocation(alloc: Allocation) -> Dict[str, Any]:
    """Plain-container snapshot of an allocation's contents (for diffing)."""
    return {
        "flows": set(alloc.flows),
        "available": set(alloc.available),
        "placements": set(alloc.placements),
        "admitted": set(alloc.admitted_queries),
        "provided": dict(alloc.provided),
    }


_SET_FIELDS = ("flows", "available", "placements", "admitted")


def diff_allocation_ops(
    before: Mapping[str, Any], alloc: Allocation
) -> Dict[str, Any]:
    """Replay-ready ops taking ``before`` to ``alloc``'s current contents.

    Sorted per-collection add/remove lists plus provided-stream
    set/unset pairs — compact (proportional to the change, not the
    state) and order-independent to apply.
    """
    after = snapshot_allocation(alloc)
    ops: Dict[str, Any] = {}
    for name in _SET_FIELDS:
        ops[name + "_add"] = sorted(after[name] - before[name])
        ops[name + "_del"] = sorted(before[name] - after[name])
    ops["provided_set"] = sorted(
        (stream_id, host)
        for stream_id, host in after["provided"].items()
        if before["provided"].get(stream_id) != host
    )
    ops["provided_del"] = sorted(
        stream_id
        for stream_id in before["provided"]
        if stream_id not in after["provided"]
    )
    return ops


def apply_allocation_ops(alloc: Allocation, ops: Mapping[str, Any]) -> None:
    """Apply :func:`diff_allocation_ops` output to ``alloc`` in place."""
    for stream_id in ops["provided_del"]:
        del alloc.provided[stream_id]
    for stream_id, host in ops["provided_set"]:
        alloc.provided[stream_id] = host
    collections = {
        "flows": alloc.flows,
        "available": alloc.available,
        "placements": alloc.placements,
        "admitted": alloc.admitted_queries,
    }
    for name, collection in collections.items():
        for key in ops[name + "_del"]:
            collection.discard(tuple(key) if isinstance(key, tuple) else key)
        for key in ops[name + "_add"]:
            collection.add(tuple(key) if isinstance(key, tuple) else key)


def sanitize_outcomes(outcomes: Sequence) -> List:
    """Strip unpicklable extras from a batch of outcomes, in place.

    ``solve_result`` holds live :class:`~repro.milp.expression.Variable`
    references into the worker's model cache — meaningless (and heavy)
    across the process boundary.
    """
    for outcome in outcomes:
        if "solve_result" in outcome.extras:
            outcome.extras["solve_result"] = None
    return list(outcomes)


# ------------------------------------------------------------- worker state
class _ShardWorker:
    """The child-process half: warm shard replicas plus the sync cursor."""

    def __init__(self, payload: Mapping[str, Any]) -> None:
        self.catalog = payload["catalog"]
        self.views = dict(payload["views"])
        self.shards = dict(payload["shards"])
        self.inner_cls = payload["inner_cls"]
        self.inner_name = payload["inner_name"]
        self.config = payload["config"]
        self.cursor = payload["cursor"]

    def __call__(self, tag: str, body: Any) -> Any:
        return getattr(self, "_op_" + tag)(body)

    # ------------------------------------------------------------- sync ops
    def _apply_registrations(self, items: Sequence) -> None:
        self.catalog.replay_registrations(items)
        self.cursor += len(items)

    def _apply_events(self, events: Sequence[Tuple]) -> None:
        for kind, site, extra in events:
            if kind == "retire":
                self.shards[site].retire(extra)
            elif kind == "drop":
                shard = self.shards[site]
                stale = [
                    qid
                    for qid in extra
                    if qid in shard.allocation.admitted_queries
                ]
                if stale:
                    shard.allocation = shard.allocation.without_queries(stale)
            elif kind == "topology":
                for view in self.views.values():
                    view.refresh()
                for shard in self.shards.values():
                    shard.on_topology_change()
            else:  # pragma: no cover - protocol bug guard
                raise ValueError(f"unknown shard event kind {kind!r}")

    def _apply_foreign(self, foreign: Mapping[int, Optional[Mapping]]) -> None:
        for site, dump in foreign.items():
            view = self.views.get(site)
            if view is None:
                continue
            view.set_foreign_allocation(
                None if dump is None else load_allocation(self.catalog, dump)
            )

    # ------------------------------------------------------------- handlers
    def _op_plan(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        if self.catalog.structure_signature() != body["struct_sig"]:
            return {"status": "resync", "reason": "structure"}
        self._apply_registrations(body["registrations"])
        self.catalog.apply_sync_state(body["sync"])
        self._apply_events(body["events"])
        self._apply_foreign(body["foreign"])
        for group in body["groups"]:
            shard = self.shards[group["site"]]
            if group["alloc"] is not None:
                shard.allocation = load_allocation(self.catalog, group["alloc"])
            if shard.allocation.fingerprint() != group["expect_fp"]:
                return {"status": "resync", "reason": "fingerprint"}
        results = []
        for group in body["groups"]:
            shard = self.shards[group["site"]]
            before = shard.allocation
            before_snapshot = snapshot_allocation(before)
            before_fp = before.fingerprint()
            queries = [self.catalog.get_query(q) for q in group["query_ids"]]
            outcomes = shard.submit_batch(
                queries, time_limit=body["time_limit"]
            )
            changed = (
                shard.allocation is not before
                or shard.allocation.fingerprint() != before_fp
            )
            results.append(
                {
                    "site": group["site"],
                    "outcomes": sanitize_outcomes(outcomes),
                    "ops": diff_allocation_ops(
                        before_snapshot, shard.allocation
                    ),
                    "post_fp": shard.allocation.fingerprint(),
                    "changed": changed,
                }
            )
        return {"status": "ok", "groups": results}

    def _op_resync(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Full-state fallback: adopt the parent's catalog and allocations."""
        if body["catalog"] is not None:
            self.catalog = body["catalog"]
        self.cursor = body["cursor"]
        from repro.dsps.catalog import SiteCatalogView

        self.views = {}
        self.shards = {}
        for site, dump in body["sites"].items():
            view = SiteCatalogView(self.catalog, site)
            shard = self.inner_cls(view, config=self.config)
            shard.name = f"{self.inner_name}@site{site}"
            shard.allocation = load_allocation(self.catalog, dump)
            self.views[site] = view
            self.shards[site] = shard
        self._apply_foreign(body["foreign"])
        return {"status": "ok"}

    def _op_stats(self, body: Any) -> Dict[str, Any]:
        totals = {"hits": 0, "misses": 0}
        for shard in self.shards.values():
            stats = getattr(shard, "reuse_stats", None)
            if stats:
                for key in totals:
                    totals[key] += stats.get(key, 0)
        return {"reuse": totals, "cursor": self.cursor}


def make_shard_worker(payload: Mapping[str, Any]) -> _ShardWorker:
    """Top-level initializer for :class:`PersistentProcessPool` workers."""
    return _ShardWorker(payload)
