"""Unit tests for the live re-optimization daemon."""

import asyncio
import contextlib
import dataclasses

import numpy as np
import pytest

from repro.cluster.state import ClusterState
from repro.core.metrics import InvariantViolation
from repro.core.migration import MigrationStep
from repro.core.primal_dual import ApproG
from repro.serve import (
    AdmissionGateway,
    GatewayClient,
    GatewayConfig,
    QueryFactory,
    ReoptimizerConfig,
)
from repro.serve.reoptimizer import (
    Reoptimizer,
    apply_step,
    build_window_instance,
    demand_weights,
    plan_cycle,
    total_variation,
)
from repro.util.validation import ValidationError


def run(coro):
    return asyncio.run(coro)


@contextlib.asynccontextmanager
async def running_gateway(instance, **config):
    gateway = AdmissionGateway(instance, GatewayConfig(**config))
    await gateway.start()
    try:
        yield gateway
    finally:
        if not gateway._closed.is_set():
            await gateway.stop()


@pytest.fixture(scope="module")
def serve_instance(small_topology):
    from repro.util.rng import spawn_rng
    from repro.workload.params import PaperDefaults
    from repro.workload.queries import generate_workload

    return generate_workload(small_topology, spawn_rng(5, "serve"), PaperDefaults())


class TestConfigValidation:
    def test_bad_drift_threshold(self):
        with pytest.raises(ValidationError, match="drift_threshold"):
            ReoptimizerConfig(drift_threshold=1.5)

    def test_bad_planner(self):
        with pytest.raises(ValidationError, match="planner"):
            ReoptimizerConfig(planner="oracle")

    def test_min_window_above_window(self):
        with pytest.raises(ValidationError, match="min_window"):
            ReoptimizerConfig(window=8, min_window=9)

    def test_negative_cap(self):
        with pytest.raises(ValidationError, match="max_migration_gb"):
            ReoptimizerConfig(max_migration_gb=-1.0)

    def test_bad_moves(self):
        with pytest.raises(ValidationError, match="max_moves_per_dataset"):
            ReoptimizerConfig(max_moves_per_dataset=0)


class TestDemandWindow:
    def test_weights_count_demand_pairs(self, tiny_instance):
        q0, q1 = tiny_instance.queries[0], tiny_instance.queries[1]
        weights = demand_weights([q0, q1], [0, 1])
        # q0 demands {0}, q1 demands {0, 1}: dataset 0 twice, dataset 1 once.
        assert weights == pytest.approx([2 / 3, 1 / 3])

    def test_empty_window_is_uniform(self):
        assert demand_weights([], [0, 1, 2, 3]) == pytest.approx([0.25] * 4)

    def test_total_variation_bounds(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_window_instance_renumbers_dense(self, serve_instance):
        factory = QueryFactory(serve_instance, seed=1)
        queries = [factory.make() for _ in range(7)]
        shuffled = [dataclasses.replace(q, query_id=q.query_id + 100) for q in queries]
        win = build_window_instance(serve_instance, shuffled)
        assert [q.query_id for q in win.queries] == list(range(7))
        assert win.max_replicas == serve_instance.max_replicas
        assert win.topology is serve_instance.topology

    def test_factory_rotate_shifts_popularity(self, serve_instance):
        plain = QueryFactory(serve_instance, seed=3)
        shifted = QueryFactory(serve_instance, seed=3, rotate=3)
        ids = sorted(serve_instance.datasets)
        a = demand_weights([plain.make() for _ in range(200)], ids)
        b = demand_weights([shifted.make() for _ in range(200)], ids)
        assert total_variation(a, b) > 0.1


class TestPlanCycle:
    def test_empty_window_plans_nothing(self, serve_instance):
        plan, info = plan_cycle(serve_instance, [], {}, [], ReoptimizerConfig())
        assert not plan and info["reason"] == "window-too-small"

    def test_drifted_window_finds_gain(self, serve_instance):
        factory = QueryFactory(serve_instance, seed=5)
        warm = build_window_instance(
            serve_instance, [factory.make() for _ in range(30)]
        )
        state = ClusterState(warm)
        ApproG().solve_on_state(warm, state)
        drifted = QueryFactory(serve_instance, seed=5, rotate=4)
        window = [drifted.make() for _ in range(30)]
        plan, info = plan_cycle(
            serve_instance, window, state.replicas.replica_map(), [],
            ReoptimizerConfig(max_migration_gb=100.0, max_moves_per_dataset=None),
        )
        assert info["gain_gb"] > 0
        assert plan.steps
        assert plan.migration_gb <= 100.0 * (1.0 + 1e-9)

    def test_respects_moves_budget(self, serve_instance):
        factory = QueryFactory(serve_instance, seed=5)
        warm = build_window_instance(
            serve_instance, [factory.make() for _ in range(30)]
        )
        state = ClusterState(warm)
        ApproG().solve_on_state(warm, state)
        drifted = QueryFactory(serve_instance, seed=5, rotate=4)
        window = [drifted.make() for _ in range(30)]
        plan, _info = plan_cycle(
            serve_instance, window, state.replicas.replica_map(), [],
            ReoptimizerConfig(max_migration_gb=100.0, max_moves_per_dataset=2),
        )
        mutations: dict[int, int] = {}
        for step in plan.steps:
            mutations[step.dataset_id] = (
                mutations.get(step.dataset_id, 0)
                + (step.add_node is not None)
                + (step.drop_node is not None)
            )
        assert all(count <= 2 for count in mutations.values())

    def test_lp_planner_runs(self, serve_instance):
        factory = QueryFactory(serve_instance, seed=5)
        window = [factory.make() for _ in range(15)]
        plan, info = plan_cycle(
            serve_instance, window, {}, [],
            ReoptimizerConfig(planner="lp", max_migration_gb=100.0),
        )
        assert info["target_gb"] > 0
        for step in plan.steps:
            if step.add_node is not None:
                assert step.ship_from is not None


class TestApplyStep:
    @pytest.fixture()
    def state(self, tiny_instance):
        return ClusterState(tiny_instance)

    def test_pure_add_applies_and_ships_nothing_new(self, tiny_instance, state):
        origin = tiny_instance.dataset(0).origin_node
        target = next(
            v for v in tiny_instance.placement_nodes if v != origin
        )
        step = MigrationStep(0, target, None, 2.0, origin, 0.1)
        assert apply_step(state, step) == "applied"
        assert state.replicas.has(0, target)

    def test_origin_is_never_dropped(self, tiny_instance, state):
        origin = tiny_instance.dataset(0).origin_node
        step = MigrationStep(0, None, origin)
        assert apply_step(state, step) == "skipped:origin-copy"
        assert state.replicas.has(0, origin)

    def test_already_placed_is_skipped(self, tiny_instance, state):
        origin = tiny_instance.dataset(0).origin_node
        step = MigrationStep(0, origin, None, 2.0, origin, 0.0)
        assert apply_step(state, step) == "skipped:already-placed"

    def test_k_bound_refuses_bare_add(self, tiny_instance, state):
        # tiny_instance has K=2: origin + one copy exhausts the slots.
        origin = tiny_instance.dataset(0).origin_node
        others = [v for v in tiny_instance.placement_nodes if v != origin]
        state.replicas.place(0, others[0])
        step = MigrationStep(0, others[1], None, 2.0, origin, 0.1)
        assert apply_step(state, step) == "skipped:k-bound"

    def test_move_swaps_at_k_bound(self, tiny_instance, state):
        origin = tiny_instance.dataset(0).origin_node
        others = [v for v in tiny_instance.placement_nodes if v != origin]
        state.replicas.place(0, others[0])
        step = MigrationStep(0, others[1], others[0], 2.0, origin, 0.1)
        assert apply_step(state, step) == "applied"
        assert state.replicas.has(0, others[1])
        assert not state.replicas.has(0, others[0])

    def test_in_use_copy_is_not_dropped(self, tiny_instance, state):
        query = tiny_instance.queries[0]
        dataset = tiny_instance.dataset(0)
        origin = dataset.origin_node
        target = next(v for v in tiny_instance.placement_nodes if v != origin)
        assignment = state.serve(query, dataset, target)
        step = MigrationStep(0, None, target)
        assert apply_step(state, step, [assignment]) == "skipped:replica-in-use"
        assert apply_step(state, step) == "applied"  # released: drop is fine

    def test_last_live_copy_survives(self, tiny_instance, state):
        origin = tiny_instance.dataset(0).origin_node
        target = next(v for v in tiny_instance.placement_nodes if v != origin)
        state.replicas.place(0, target)
        state.mark_down(origin)  # origin record survives but is not live
        step = MigrationStep(0, None, target)
        assert apply_step(state, step) == "skipped:last-live-copy"

    def test_down_add_node_is_skipped(self, tiny_instance, state):
        origin = tiny_instance.dataset(0).origin_node
        target = next(v for v in tiny_instance.placement_nodes if v != origin)
        state.mark_down(target)
        step = MigrationStep(0, target, None, 2.0, origin, 0.1)
        assert apply_step(state, step) == "skipped:add-node-down"

    def test_invariant_violation_rolls_back(self, tiny_instance, state):
        # A non-placement node passes the permissive ReplicaStore but
        # fails check_invariants inside the transaction: full rollback.
        before = state.replicas.replica_map()
        bogus = MigrationStep(0, 999_999, None, 2.0, None, 0.0)
        assert apply_step(state, bogus) == "rolled-back"
        assert state.replicas.replica_map() == before
        state.check_invariants()


class TestDaemon:
    def test_observe_bounds_window(self, serve_instance):
        gateway = AdmissionGateway(
            serve_instance,
            GatewayConfig(reopt=ReoptimizerConfig(window=4, min_window=2)),
        )
        factory = QueryFactory(serve_instance, seed=2)
        for _ in range(10):
            gateway.reoptimizer.observe(factory.make())
        assert len(gateway.reoptimizer._window) == 4

    def test_small_window_cycle_is_noop(self, serve_instance):
        gateway = AdmissionGateway(
            serve_instance, GatewayConfig(reopt=ReoptimizerConfig(min_window=8))
        )
        report = run(gateway.reoptimizer.run_cycle())
        assert report.reason == "window-too-small"
        assert not report.migrated

    def test_first_window_sets_reference_then_gates_on_drift(self, serve_instance):
        gateway = AdmissionGateway(
            serve_instance,
            GatewayConfig(reopt=ReoptimizerConfig(window=32, min_window=8)),
        )
        daemon = gateway.reoptimizer
        factory = QueryFactory(serve_instance, seed=2)
        for _ in range(32):
            daemon.observe(factory.make())
        first = run(daemon.run_cycle())
        assert first.reason == "reference-set"
        for _ in range(16):  # same distribution: drift stays low
            daemon.observe(factory.make())
        second = run(daemon.run_cycle())
        assert second.reason == "drift-below-threshold"
        assert second.drift < daemon.config.drift_threshold

    def test_forced_cycle_migrates_toward_demand(self, serve_instance):
        gateway = AdmissionGateway(
            serve_instance,
            GatewayConfig(
                reopt=ReoptimizerConfig(
                    window=64, min_window=8, max_migration_gb=200.0,
                    max_moves_per_dataset=None,
                )
            ),
        )
        daemon = gateway.reoptimizer
        factory = QueryFactory(serve_instance, seed=7, rotate=3)
        for _ in range(40):
            daemon.observe(factory.make())
        report = run(daemon.run_cycle(force=True))
        # Origin-only replicas vs a concentrated Zipf window: replanning
        # must find gain and the executor must apply it.
        assert report.gain_gb > 0
        assert report.applied > 0
        assert report.migration_gb <= 200.0 * (1.0 + 1e-9)
        gateway.state.check_invariants()
        status = daemon.status()
        assert status["migrated_steps"] == report.applied
        assert status["last_cycle"]["cycle"] == report.cycle

    def test_cycle_reports_accumulate_in_history(self, serve_instance):
        gateway = AdmissionGateway(
            serve_instance, GatewayConfig(reopt=ReoptimizerConfig(history=2))
        )
        daemon = gateway.reoptimizer
        for _ in range(3):
            run(daemon.run_cycle())
        assert len(daemon._history) == 2
        assert daemon.status()["cycles"] == 3


class TestProtocol:
    def test_reopt_op_disabled_errors(self, tiny_instance):
        async def scenario():
            async with running_gateway(tiny_instance) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    response = await client.reopt()
                assert response["ok"] is False
                assert response["error"] == "re-optimizer not enabled"
                assert "reopt" not in gateway.status()

        run(scenario())

    def test_reopt_op_runs_cycle(self, serve_instance):
        async def scenario():
            async with running_gateway(
                serve_instance,
                reopt=ReoptimizerConfig(interval_s=3600.0, min_window=4),
            ) as gateway:
                host, port = gateway.address
                factory = QueryFactory(serve_instance, seed=9)
                async with await GatewayClient.connect(host, port) as client:
                    for _ in range(8):
                        await client.submit(factory.make())
                    response = await client.reopt()
                    assert response["ok"] is True
                    assert response["cycle"] >= 1
                    assert response["observed"] == 8
                    status = await client.status()
                assert status["reopt"]["cycles"] >= 1
                assert gateway.status()["reopt"]["window"] == 8

        run(scenario())

    def test_forced_reopt_over_wire(self, serve_instance):
        async def scenario():
            async with running_gateway(
                serve_instance,
                reopt=ReoptimizerConfig(
                    interval_s=3600.0, min_window=4, max_migration_gb=200.0,
                    max_moves_per_dataset=None,
                ),
            ) as gateway:
                host, port = gateway.address
                factory = QueryFactory(serve_instance, seed=9, rotate=4)
                async with await GatewayClient.connect(host, port) as client:
                    for _ in range(12):
                        await client.submit(factory.make())
                    response = await client.reopt(force=True)
                assert response["ok"] is True
                assert response["reason"] in ("", "gain-below-threshold", "no-diff")
                gateway.state.check_invariants(
                    [a for g in gateway._inflight.values() for a in g]
                )

        run(scenario())

    def test_daemon_task_spawned_and_cancelled(self, serve_instance):
        async def scenario():
            async with running_gateway(
                serve_instance, reopt=ReoptimizerConfig(interval_s=3600.0)
            ) as gateway:
                assert len(gateway._tasks) == 2  # worker + reopt daemon
            assert all(t.cancelled() or t.done() for t in gateway._tasks or [])

        run(scenario())


class TestCrashToleranthold:
    def test_release_after_crash_eviction_is_silent(self, tiny_instance):
        async def scenario():
            async with running_gateway(tiny_instance, hold_factor=100.0) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    response = await client.submit(tiny_instance.queries[0])
                assert response["result"] == "admitted"
                victim = response["assignments"][0]["node"]
                gateway.state.mark_down(victim)
                gateway.state.evict_allocations(victim)
                gateway.state.drop_replicas(victim)
                # The hold timer now points at an evicted tag; releasing
                # must not raise (it used to CapacityError in the loop).
                q_id = tiny_instance.queries[0].query_id
                gateway._release_query(q_id)
                assert q_id not in gateway._inflight

        run(scenario())
