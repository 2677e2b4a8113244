"""Cross-backend determinism of the planning fabric (satellite of the
multiprocess-planning PR).

The execution backend must never change observable output: serial,
thread and process planning of the same workload yield identical
admission decisions and identical allocation fingerprints — including
after catalog churn, parent-side single submits (which leave worker
replicas stale), retires, topology changes and a forced mid-run
full-state resync.

The worker protocol itself (:mod:`repro.core.federated_worker`) is also
exercised *in process* — wire-format round trips and the ``_op_plan`` /
``_op_resync`` handlers driven directly against a replica planner — so
the child-side code paths are covered without depending on forked
subprocess coverage collection.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import PlannerConfig, create_planner
from repro.core.federated import FederatedPlanner
from repro.core.federated_worker import (
    apply_allocation_ops,
    diff_allocation_ops,
    dump_allocation,
    load_allocation,
    make_shard_worker,
    sanitize_outcomes,
    snapshot_allocation,
)
from repro.dsps.allocation import Allocation
from repro.exceptions import PlanningError
from repro.experiments.federated import federated_scenario, site_local_workload
from repro.utils.pool import process_backend_available

needs_fork = pytest.mark.skipif(
    not process_backend_available(),
    reason="process backend needs the 'fork' start method",
)

ALL_BACKENDS = ("serial", "thread", "process")


def make_setup(num_sites=3, queries_per_site=3, seed=7):
    scenario = federated_scenario(num_sites, seed=seed)
    catalog = scenario.build_catalog()
    workload = site_local_workload(scenario, queries_per_site=queries_per_site)
    return scenario, catalog, workload


def run_trace(backend, *, num_sites=3, queries_per_site=3, seed=7, workers=2):
    """One churny planning run; returns (decision trace, final fingerprint)."""
    _, catalog, workload = make_setup(num_sites, queries_per_site, seed)
    planner = create_planner(
        "federated:sqpr", catalog, workers=workers, backend=backend
    )
    trace = []
    split = max(1, len(workload) // 2)
    batch1 = planner.submit_batch(workload[:split])
    trace.append(tuple((o.query.query_id, o.admitted) for o in batch1))
    admitted = [o.query.query_id for o in batch1 if o.admitted]
    if admitted:
        planner.retire(admitted[0])
    host = sorted(catalog.hosts.ids)[0]
    catalog.hosts.deactivate(host)
    trace.append(tuple(sorted(planner.on_topology_change())))
    batch2 = planner.submit_batch(workload[split:])
    trace.append(tuple((o.query.query_id, o.admitted) for o in batch2))
    fingerprint = planner.allocation.fingerprint()
    planner.close()
    return tuple(trace), fingerprint


class TestBackendParity:
    @needs_fork
    def test_all_backends_identical_through_churn(self):
        reference = run_trace("serial")
        for backend in ("thread", "process"):
            assert run_trace(backend) == reference, backend

    def test_serial_thread_identical(self):
        assert run_trace("thread") == run_trace("serial")

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 3])
    def test_process_worker_count_is_invisible(self, workers):
        assert run_trace("process", workers=workers) == run_trace("serial")

    @needs_fork
    def test_single_submit_then_batch_stays_in_sync(self):
        # A parent-side single submit leaves the worker replica behind;
        # the next batch must ship the allocation proactively (stale-site
        # dump), not diverge.
        def run(backend):
            _, catalog, workload = make_setup()
            planner = create_planner(
                "federated:sqpr", catalog, workers=2, backend=backend
            )
            planner.submit_batch(workload[:4])
            single = planner.submit(workload[4])
            batch = planner.submit_batch(workload[5:])
            trace = (
                (single.query.query_id, single.admitted),
                tuple((o.query.query_id, o.admitted) for o in batch),
                planner.allocation.fingerprint(),
            )
            resyncs = sum(
                w["resyncs"] for w in planner.worker_stats()["workers"]
            )
            planner.close()
            return trace, resyncs

        reference, _ = run("serial")
        process_trace, resyncs = run("process")
        assert process_trace == reference
        assert resyncs == 0  # proactive dump, no mismatch round trip

    @needs_fork
    def test_forced_resync_recovers_and_matches(self):
        # Sabotage the stale-site bookkeeping so the worker sees a
        # fingerprint mismatch: the fallback must resync and the final
        # results still match the serial reference.
        _, catalog, workload = make_setup()
        planner = create_planner(
            "federated:sqpr", catalog, workers=2, backend="process"
        )
        planner.submit_batch(workload[:4])
        planner.submit(workload[4])
        assert planner._stale_sites  # the single submit marked its site
        planner._stale_sites.clear()  # ...which we now forget on purpose
        batch = planner.submit_batch(workload[5:])
        resyncs = sum(w["resyncs"] for w in planner.worker_stats()["workers"])
        assert resyncs >= 1
        fingerprint = planner.allocation.fingerprint()
        decisions = tuple((o.query.query_id, o.admitted) for o in batch)
        planner.close()

        _, catalog2, workload2 = make_setup()
        serial = create_planner("federated:sqpr", catalog2, backend="serial")
        serial.submit_batch(workload2[:4])
        serial.submit(workload2[4])
        expected = serial.submit_batch(workload2[5:])
        assert decisions == tuple(
            (o.query.query_id, o.admitted) for o in expected
        )
        assert fingerprint == serial.allocation.fingerprint()

    @needs_fork
    def test_structure_change_triggers_resync_and_matches(self):
        # Growing the topology after the fork changes the structural
        # signature: the worker must refuse the delta path, take the
        # full-catalog resync, and still match serial.
        def run(backend):
            _, catalog, workload = make_setup(num_sites=2)
            planner = create_planner(
                "federated:sqpr", catalog, workers=2, backend=backend
            )
            planner.submit_batch(workload[:3])
            catalog.add_host(6.0, 300.0, name="late", site=0)
            planner.on_topology_change()
            batch = planner.submit_batch(workload[3:])
            trace = (
                tuple((o.query.query_id, o.admitted) for o in batch),
                planner.allocation.fingerprint(),
            )
            planner.close()
            return trace

        assert run("process") == run("serial")

    @needs_fork
    def test_reset_tears_pool_down(self):
        _, catalog, workload = make_setup(num_sites=2)
        planner = create_planner(
            "federated:sqpr", catalog, workers=2, backend="process"
        )
        planner.submit_batch(workload[:3])
        assert planner._pool is not None
        planner.reset()
        assert planner._pool is None
        # And the next batch lazily re-forks a fresh pool.
        planner.submit_batch(workload[:3])
        assert planner._pool is not None
        planner.close()

    def test_unknown_backend_rejected(self):
        _, catalog, _ = make_setup(num_sites=2)
        with pytest.raises(PlanningError, match="unknown execution backend"):
            FederatedPlanner(catalog, backend="quantum")

    def test_config_exec_backend_is_the_default(self):
        _, catalog, _ = make_setup(num_sites=2)
        planner = FederatedPlanner(
            catalog, config=PlannerConfig(exec_backend="serial")
        )
        assert planner.backend == "serial"

    @needs_fork
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=1, max_value=50))
    def test_property_process_matches_serial(self, seed):
        assert run_trace(
            "process", num_sites=2, queries_per_site=2, seed=seed
        ) == run_trace("serial", num_sites=2, queries_per_site=2, seed=seed)


@needs_fork
class TestMatrixBackendParity:
    def test_quick_sweep_identical_across_backends(self):
        from repro.experiments.matrix import run_matrix

        kwargs = dict(
            scenarios=["baseline", "site_partition"],
            planners=["heuristic", "sqpr"],
            scales=["quick"],
            workers=2,
        )
        thread = run_matrix(backend="thread", **kwargs)
        process = run_matrix(backend="process", **kwargs)
        assert process.fingerprints() == thread.fingerprints()
        assert process.golden_payload() == thread.golden_payload()


# ------------------------------------------------------------ wire protocol
class TestWireFormat:
    def _planned_allocation(self):
        _, catalog, workload = make_setup(num_sites=2)
        planner = create_planner("federated:sqpr", catalog, backend="serial")
        planner.submit_batch(workload)
        return catalog, planner.allocation

    def test_dump_load_round_trip(self):
        catalog, alloc = self._planned_allocation()
        rebuilt = load_allocation(catalog, dump_allocation(alloc))
        assert rebuilt.fingerprint() == alloc.fingerprint()
        assert set(rebuilt.flows) == set(alloc.flows)
        assert dict(rebuilt.provided) == dict(alloc.provided)

    def test_dump_is_plain_picklable_data(self):
        import pickle

        _, alloc = self._planned_allocation()
        dump = dump_allocation(alloc)
        assert pickle.loads(pickle.dumps(dump)) == dump

    def test_diff_apply_round_trip(self):
        catalog, alloc = self._planned_allocation()
        before = snapshot_allocation(alloc)
        # Mutate: drop one admitted query (removes placements, flows and
        # availability entries in one shot).
        victim = sorted(alloc.admitted_queries)[0]
        mutated = alloc.without_queries([victim])
        ops = diff_allocation_ops(before, mutated)
        replay = load_allocation(catalog, dump_allocation(alloc))
        apply_allocation_ops(replay, ops)
        assert replay.fingerprint() == mutated.fingerprint()

    def test_empty_diff_is_compact(self):
        _, alloc = self._planned_allocation()
        ops = diff_allocation_ops(snapshot_allocation(alloc), alloc)
        assert all(not v for v in ops.values())

    def test_sanitize_strips_solve_results(self):
        _, catalog, workload = make_setup(num_sites=2)
        planner = create_planner("federated:sqpr", catalog, backend="serial")
        outcomes = planner.submit_batch(workload[:3])
        sanitize_outcomes(outcomes)
        assert all(
            o.extras.get("solve_result") is None for o in outcomes
        )


class TestShardWorkerInProcess:
    """Drive the child-side handlers directly (no fork) for coverage."""

    def _twin_planners(self, seed=7):
        # Two independently built but identical worlds: the "parent" and
        # the worker's fork-inherited replica.
        scenario = federated_scenario(2, seed=seed)
        parent_catalog = scenario.build_catalog()
        replica_catalog = federated_scenario(2, seed=seed).build_catalog()
        parent = FederatedPlanner(parent_catalog, backend="serial")
        replica = FederatedPlanner(replica_catalog, backend="serial")
        workload = site_local_workload(scenario, queries_per_site=3)
        return parent, replica, workload

    def _worker_for(self, replica):
        return make_shard_worker(
            {
                "catalog": replica.catalog,
                "views": replica._views,
                "shards": replica._shards,
                "inner_cls": replica._inner_cls,
                "inner_name": replica.inner_name,
                "config": replica.config,
                "cursor": replica.catalog.num_registrations,
            }
        )

    def _plan_body(self, parent, groups, **overrides):
        body = {
            "registrations": parent.catalog.registration_log,
            "sync": parent.catalog.sync_state(),
            "struct_sig": parent.catalog.structure_signature(),
            "events": [],
            "foreign": {},
            "groups": groups,
            "time_limit": None,
        }
        body.update(overrides)
        return body

    def test_op_plan_matches_parent_side_solve(self):
        parent, replica, workload = self._twin_planners()
        worker = self._worker_for(replica)
        queries = [parent._resolve_query(item) for item in workload]
        site0 = [q for q in queries if parent.route(q) == 0]
        expect_fp = replica._shards[0].allocation.fingerprint()
        response = worker(
            "plan",
            self._plan_body(
                parent,
                [
                    {
                        "site": 0,
                        "query_ids": [q.query_id for q in site0],
                        "expect_fp": expect_fp,
                        "alloc": None,
                    }
                ],
            ),
        )
        assert response["status"] == "ok"
        (entry,) = response["groups"]
        # The parent plans the same group on its own shard: decisions
        # and post-solve fingerprints must be bit-identical.
        parent_outcomes = parent._shards[0].submit_batch(
            [parent.catalog.get_query(q.query_id) for q in site0]
        )
        assert [o.admitted for o in entry["outcomes"]] == [
            o.admitted for o in parent_outcomes
        ]
        assert (
            entry["post_fp"] == parent._shards[0].allocation.fingerprint()
        )
        # And replaying the ops on a fresh copy reproduces that state.
        fresh = Allocation(parent.catalog)
        apply_allocation_ops(fresh, entry["ops"])
        assert fresh.fingerprint() == entry["post_fp"]

    def test_op_plan_refuses_structure_drift(self):
        parent, replica, workload = self._twin_planners()
        worker = self._worker_for(replica)
        parent.catalog.add_host(6.0, 300.0, name="late", site=0)
        response = worker("plan", self._plan_body(parent, []))
        assert response == {"status": "resync", "reason": "structure"}

    def test_op_plan_refuses_fingerprint_drift(self):
        parent, replica, workload = self._twin_planners()
        worker = self._worker_for(replica)
        [parent._resolve_query(item) for item in workload]
        response = worker(
            "plan",
            self._plan_body(
                parent,
                [
                    {
                        "site": 0,
                        "query_ids": [],
                        "expect_fp": 12345,  # never the real fingerprint
                        "alloc": None,
                    }
                ],
            ),
        )
        assert response == {"status": "resync", "reason": "fingerprint"}

    def test_op_resync_adopts_full_state_then_plans(self):
        parent, replica, workload = self._twin_planners()
        worker = self._worker_for(replica)
        queries = [parent._resolve_query(item) for item in workload]
        site0 = [q for q in queries if parent.route(q) == 0]
        # Parent plans first; the replica is now behind.
        parent._shards[0].submit_batch(
            [parent.catalog.get_query(q.query_id) for q in site0[:1]]
        )
        response = worker(
            "resync",
            {
                "catalog": parent.catalog,
                "cursor": parent.catalog.num_registrations,
                "sites": {
                    site: dump_allocation(parent._shards[site].allocation)
                    for site in parent._shards
                },
                "foreign": {site: None for site in parent._shards},
            },
        )
        assert response == {"status": "ok"}
        # After adoption the worker plans the rest identically.
        rest = site0[1:]
        expect_fp = parent._shards[0].allocation.fingerprint()
        response = worker(
            "plan",
            self._plan_body(
                parent,
                [
                    {
                        "site": 0,
                        "query_ids": [q.query_id for q in rest],
                        "expect_fp": expect_fp,
                        "alloc": None,
                    }
                ],
                registrations=[],
            ),
        )
        assert response["status"] == "ok"
        parent_outcomes = parent._shards[0].submit_batch(
            [parent.catalog.get_query(q.query_id) for q in rest]
        )
        (entry,) = response["groups"]
        assert (
            entry["post_fp"] == parent._shards[0].allocation.fingerprint()
        )
        assert [o.admitted for o in entry["outcomes"]] == [
            o.admitted for o in parent_outcomes
        ]

    def test_events_replay_retire_and_drop(self):
        parent, replica, workload = self._twin_planners()
        worker = self._worker_for(replica)
        queries = [parent._resolve_query(item) for item in workload]
        site0 = [q for q in queries if parent.route(q) == 0]
        group = {
            "site": 0,
            "query_ids": [q.query_id for q in site0],
            "expect_fp": replica._shards[0].allocation.fingerprint(),
            "alloc": None,
        }
        response = worker("plan", self._plan_body(parent, [group]))
        admitted = [
            o.query.query_id
            for o in response["groups"][0]["outcomes"]
            if o.admitted
        ]
        assert len(admitted) >= 2
        # Mirror parent-side retire + drop on its own shard.
        parent._shards[0].submit_batch(
            [parent.catalog.get_query(q.query_id) for q in site0]
        )
        parent._shards[0].retire(admitted[0])
        parent_alloc = parent._shards[0].allocation.without_queries(
            [admitted[1]]
        )
        parent._shards[0].allocation = parent_alloc
        response = worker(
            "plan",
            self._plan_body(
                parent,
                [
                    {
                        "site": 0,
                        "query_ids": [],
                        "expect_fp": parent_alloc.fingerprint(),
                        "alloc": None,
                    }
                ],
                registrations=[],
                events=[
                    ("retire", 0, admitted[0]),
                    ("drop", 0, [admitted[1]]),
                ],
            ),
        )
        assert response["status"] == "ok"

    def test_op_stats_reports_reuse_and_cursor(self):
        parent, replica, workload = self._twin_planners()
        worker = self._worker_for(replica)
        stats = worker("stats", None)
        assert set(stats["reuse"]) == {"hits", "misses"}
        assert stats["cursor"] == 0

    def test_unknown_event_kind_rejected(self):
        parent, replica, _ = self._twin_planners()
        worker = self._worker_for(replica)
        with pytest.raises(ValueError, match="unknown shard event"):
            worker(
                "plan",
                self._plan_body(parent, [], events=[("explode", 0, None)]),
            )


class TestCatalogSyncHelpers:
    def test_registration_log_replays_identically(self):
        scenario = federated_scenario(2, seed=9)
        catalog_a = scenario.build_catalog()
        catalog_b = federated_scenario(2, seed=9).build_catalog()
        workload = site_local_workload(scenario, queries_per_site=2)
        queries = [catalog_a.register_query(item) for item in workload]
        assert catalog_a.num_registrations == len(workload)
        catalog_b.replay_registrations(catalog_a.registration_log)
        for query in queries:
            twin = catalog_b.get_query(query.query_id)
            assert twin.base_streams == query.base_streams
            assert twin.result_stream == query.result_stream
            assert twin.candidate_operators == query.candidate_operators

    def test_sync_state_round_trip(self):
        scenario = federated_scenario(2, seed=9)
        catalog_a = scenario.build_catalog()
        catalog_b = federated_scenario(2, seed=9).build_catalog()
        host = sorted(catalog_a.hosts.ids)[0]
        catalog_a.hosts.deactivate(host)
        catalog_a.partition_site(1)
        catalog_a.set_wan_drift(0.5)
        catalog_b.apply_sync_state(catalog_a.sync_state())
        assert catalog_b.sync_state() == catalog_a.sync_state()
        # Healing converges too.
        catalog_a.hosts.activate(host)
        catalog_a.heal_site(1)
        catalog_b.apply_sync_state(catalog_a.sync_state())
        assert catalog_b.sync_state() == catalog_a.sync_state()

    def test_structure_signature_tracks_growth(self):
        scenario = federated_scenario(2, seed=9)
        catalog = scenario.build_catalog()
        twin = federated_scenario(2, seed=9).build_catalog()
        assert catalog.structure_signature() == twin.structure_signature()
        catalog.add_host(6.0, 300.0, name="late", site=0)
        assert catalog.structure_signature() != twin.structure_signature()

    def test_structure_signature_ignores_dynamic_state(self):
        scenario = federated_scenario(2, seed=9)
        catalog = scenario.build_catalog()
        before = catalog.structure_signature()
        catalog.hosts.deactivate(sorted(catalog.hosts.ids)[0])
        catalog.set_wan_drift(0.25)
        assert catalog.structure_signature() == before
