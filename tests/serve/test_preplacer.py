"""Tests for the predictive pre-placement daemon and its planner."""

import asyncio
import contextlib

import numpy as np
import pytest

from repro.cluster.state import ClusterState
from repro.serve import (
    AdmissionGateway,
    GatewayClient,
    GatewayConfig,
    PreplacerConfig,
    QueryFactory,
)
from repro.serve.preplacer import Preplacer, plan_preplacements
from repro.util.rng import spawn_rng
from repro.util.validation import ValidationError
from repro.workload.forecast import region_labels
from repro.workload.params import PaperDefaults
from repro.workload.queries import generate_workload
from repro.workload.trace import zipf_weights


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def serve_instance(small_topology):
    return generate_workload(small_topology, spawn_rng(5, "serve"), PaperDefaults())


@contextlib.asynccontextmanager
async def running_gateway(instance, **config):
    gateway = AdmissionGateway(instance, GatewayConfig(**config))
    await gateway.start()
    try:
        yield gateway
    finally:
        if not gateway._closed.is_set():
            await gateway.stop()


def _roster(instance):
    """Region roster + anchors in the daemon's canonical order."""
    labels = region_labels(instance.topology)
    regions, anchors = [], []
    seen = set()
    for node_id in sorted(labels):
        if labels[node_id] not in seen:
            seen.add(labels[node_id])
            regions.append(labels[node_id])
            anchors.append(node_id)
    return tuple(regions), tuple(anchors)


def _origin_map(instance):
    return {d: [instance.dataset(d).origin_node] for d in instance.datasets}


class TestPreplacerConfig:
    def test_defaults_valid(self):
        cfg = PreplacerConfig()
        assert cfg.forecast_config().num_buckets == cfg.num_buckets

    def test_min_window_must_fit_window(self):
        with pytest.raises(ValidationError, match="min_window"):
            PreplacerConfig(window=8, min_window=9)

    def test_threshold_bounds(self):
        with pytest.raises(ValidationError, match="threshold"):
            PreplacerConfig(threshold=1.5)
        with pytest.raises(ValidationError, match="threshold"):
            PreplacerConfig(threshold=-0.1)

    def test_improvement_positive(self):
        with pytest.raises(ValidationError, match="improvement"):
            PreplacerConfig(improvement=0.0)

    def test_estimator_validated_via_forecast(self):
        with pytest.raises(ValidationError, match="estimator"):
            PreplacerConfig(estimator="oracle")

    def test_bucketing_shape(self):
        fc = PreplacerConfig(window=256, num_buckets=8).forecast_config()
        assert fc.bucket == 32

    def test_shard_scoped_gateway_rejected(self):
        with pytest.raises(ValidationError, match="shard"):
            GatewayConfig(predict=PreplacerConfig(), shard_nodes=(1, 2))


class TestPlanPreplacements:
    def test_shape_mismatch_rejected(self, serve_instance):
        regions, anchors = _roster(serve_instance)
        with pytest.raises(ValidationError, match="shape"):
            plan_preplacements(
                serve_instance, regions, anchors,
                np.zeros((1, 1)), _origin_map(serve_instance), [],
            )

    def test_zero_demand_plans_nothing(self, serve_instance):
        regions, anchors = _roster(serve_instance)
        shape = (len(regions), len(serve_instance.datasets))
        steps, info = plan_preplacements(
            serve_instance, regions, anchors,
            np.zeros(shape), _origin_map(serve_instance), [],
        )
        assert not steps
        assert info["reason"] == "no-demand"

    def test_below_threshold_plans_nothing(self, serve_instance):
        regions, anchors = _roster(serve_instance)
        shape = (len(regions), len(serve_instance.datasets))
        # Uniform demand: every cell's share is 1/(R×N), far below 2%.
        steps, info = plan_preplacements(
            serve_instance, regions, anchors,
            np.ones(shape), _origin_map(serve_instance), [],
        )
        assert not steps
        assert info["reason"] == "no-candidates"

    def _hot_cell_plan(self, instance, config=None, replica_map=None):
        regions, anchors = _roster(instance)
        dataset_ids = sorted(instance.datasets)
        predicted = np.zeros((len(regions), len(dataset_ids)))
        predicted[4, 0] = 10.0
        return plan_preplacements(
            instance, regions, anchors, predicted,
            replica_map or _origin_map(instance), [], config,
        ), (regions, anchors, dataset_ids)

    def test_hot_cell_earns_add_only_step(self, serve_instance):
        (steps, info), (regions, anchors, ids) = self._hot_cell_plan(serve_instance)
        assert len(steps) == 1
        step = steps[0]
        assert step.dataset_id == ids[0]
        assert step.drop_node is None  # add-only, never drops
        origin = serve_instance.dataset(ids[0]).origin_node
        assert step.ship_from == origin
        assert step.add_node != origin
        assert step.volume_gb == serve_instance.dataset(ids[0]).volume_gb
        assert step.ship_cost_s >= 0.0

    def test_step_improves_probe_latency(self, serve_instance):
        (steps, _), (regions, anchors, ids) = self._hot_cell_plan(serve_instance)
        step = steps[0]
        dataset = serve_instance.dataset(step.dataset_id)
        anchor = anchors[4]
        home_vec = serve_instance.home_delay_vectors.get(anchor)
        if home_vec is None:
            home_vec = serve_instance.paths.placement_delays_to(anchor)
        lat = dataset.volume_gb * (serve_instance.proc_delays + 0.7 * home_vec)
        idx = serve_instance.node_index
        assert lat[idx[step.add_node]] < lat[idx[step.ship_from]]

    def test_respects_slot_slack(self, serve_instance):
        # Dataset already at K - slot_slack copies: no further adds.
        ids = sorted(serve_instance.datasets)
        origin = serve_instance.dataset(ids[0]).origin_node
        others = [v for v in serve_instance.placement_nodes if v != origin]
        full_map = _origin_map(serve_instance)
        full_map[ids[0]] = [origin] + others[: serve_instance.max_replicas - 2]
        (steps, info), _ = self._hot_cell_plan(
            serve_instance, replica_map=full_map
        )
        assert not steps
        assert info["reason"] == "no-candidates"

    def test_churn_cap_defers(self, serve_instance):
        config = PreplacerConfig(max_preplace_gb=1e-6)
        (steps, info), _ = self._hot_cell_plan(serve_instance, config=config)
        assert not steps
        assert info["deferred"] == 1

    def test_max_adds_per_dataset(self, serve_instance):
        regions, anchors = _roster(serve_instance)
        ids = sorted(serve_instance.datasets)
        predicted = np.zeros((len(regions), len(ids)))
        # The same dataset is hot from three regions.
        predicted[2, 0] = predicted[5, 0] = predicted[8, 0] = 10.0
        steps, _ = plan_preplacements(
            serve_instance, regions, anchors, predicted,
            _origin_map(serve_instance), [],
            PreplacerConfig(max_adds_per_dataset=1),
        )
        assert len(steps) == 1

    def test_deterministic(self, serve_instance):
        regions, anchors = _roster(serve_instance)
        ids = sorted(serve_instance.datasets)
        rng = spawn_rng(7, "pred")
        predicted = rng.random((len(regions), len(ids))) * 5.0
        make = lambda: plan_preplacements(
            serve_instance, regions, anchors, predicted,
            _origin_map(serve_instance), [],
        )
        assert make()[0] == make()[0]

    def test_down_candidates_excluded(self, serve_instance):
        (baseline, _), (regions, anchors, ids) = self._hot_cell_plan(serve_instance)
        target = baseline[0].add_node
        regions2, anchors2 = _roster(serve_instance)
        predicted = np.zeros((len(regions2), len(ids)))
        predicted[4, 0] = 10.0
        steps, _ = plan_preplacements(
            serve_instance, regions2, anchors2, predicted,
            _origin_map(serve_instance), [target],
        )
        assert all(s.add_node != target for s in steps)


class TestQueryFactoryTraceModes:
    def test_unknown_mode_rejected(self, serve_instance):
        with pytest.raises(ValidationError, match="mode"):
            QueryFactory(serve_instance, mode="sawtooth")

    def test_stationary_path_unchanged(self, serve_instance):
        plain = QueryFactory(serve_instance, seed=4)
        explicit = QueryFactory(serve_instance, seed=4, mode="stationary")
        for _ in range(50):
            assert plain.make() == explicit.make()

    def test_flash_crowd_stationary_until_period(self, serve_instance):
        plain = QueryFactory(serve_instance, seed=4)
        flash = QueryFactory(serve_instance, seed=4, mode="flash-crowd", period=30)
        for _ in range(30):
            assert plain.make() == flash.make()
        # After the ramp begins the streams diverge in demand, and each
        # stays deterministic for its seed.
        post_flash = [flash.make() for _ in range(60)]
        assert [plain.make() for _ in range(60)] != post_flash
        replay = QueryFactory(serve_instance, seed=4, mode="flash-crowd", period=30)
        assert [replay.make() for _ in range(90)][30:] == post_flash

    def test_flash_crowd_concentrates_on_cold_dataset(self, serve_instance):
        factory = QueryFactory(
            serve_instance, seed=4, mode="flash-crowd", period=20
        )
        target_rank = int(np.argmin(factory._weights))
        target = sorted(serve_instance.datasets)[target_rank]
        pre = [factory.make() for _ in range(20)]
        # Skip the ramp, sample the saturated flash regime.
        for _ in range(10):
            factory.make()
        post = [factory.make() for _ in range(60)]
        share_pre = sum(target in q.demanded for q in pre) / len(pre)
        share_post = sum(target in q.demanded for q in post) / len(post)
        assert share_post > max(0.8, share_pre + 0.2)

    def test_burst_alternates_phases(self, serve_instance):
        factory = QueryFactory(serve_instance, seed=4, mode="burst", period=25)
        base = factory._weights_at(0)
        hot = factory._weights_at(25)
        cooled = factory._weights_at(50)
        np.testing.assert_array_equal(base, factory._weights)
        np.testing.assert_array_equal(cooled, base)
        assert hot.max() > base.max()
        assert hot.sum() == pytest.approx(1.0)

    def test_diurnal_rotates_full_turn(self, serve_instance):
        period = 30
        factory = QueryFactory(
            serve_instance, seed=4, mode="diurnal", period=period
        )
        n = len(factory._weights)
        start = factory._weights_at(0)
        # One full turn every 2 × period draws.
        np.testing.assert_array_equal(factory._weights_at(2 * period), start)
        mid = factory._weights_at(period)
        np.testing.assert_allclose(np.sort(mid), np.sort(start))
        assert not np.array_equal(mid, start)

    def test_rotate_permutes_weight_vector(self, serve_instance):
        plain = QueryFactory(serve_instance, seed=3)
        rotated = QueryFactory(serve_instance, seed=3, rotate=4)
        # Same dataset support, same multiset of weights, shifted ranks.
        assert plain._dataset_ids == rotated._dataset_ids
        np.testing.assert_allclose(
            np.sort(plain._weights), np.sort(rotated._weights)
        )
        np.testing.assert_array_equal(
            np.roll(plain._weights, 4), rotated._weights
        )
        assert not np.array_equal(plain._weights, rotated._weights)


class TestPreplacerDaemon:
    def _gateway_stub(self, instance):
        """The daemon only reads instance/state/_inflight off the gateway."""

        class Stub:
            pass

        stub = Stub()
        stub.instance = instance
        stub.state = ClusterState(instance)
        stub._inflight = {}
        return stub

    def test_observe_feeds_forecaster(self, serve_instance):
        pre = Preplacer(self._gateway_stub(serve_instance))
        factory = QueryFactory(serve_instance, seed=2)
        q = factory.make()
        pre.observe(q)
        assert pre.forecaster.observed == len(q.demanded)

    def test_observe_unknown_home_ignored(self, serve_instance):
        import dataclasses

        pre = Preplacer(self._gateway_stub(serve_instance))
        q = dataclasses.replace(
            QueryFactory(serve_instance, seed=2).make(), home_node=10_000
        )
        pre.observe(q)  # must not raise
        assert pre.forecaster.observed == 0

    def test_cycle_gated_until_min_window(self, serve_instance):
        pre = Preplacer(
            self._gateway_stub(serve_instance),
            PreplacerConfig(min_window=50),
        )
        factory = QueryFactory(serve_instance, seed=2)
        pre.observe(factory.make())
        report = run(pre.run_cycle())
        assert report.reason == "window-too-small"
        assert not report.preplaced

    def test_forced_cycle_applies_adds_transactionally(self, serve_instance):
        stub = self._gateway_stub(serve_instance)
        pre = Preplacer(stub, PreplacerConfig(window=10_000, min_window=10_000))
        factory = QueryFactory(
            serve_instance, seed=8, mode="flash-crowd", period=10
        )
        for _ in range(40):
            pre.observe(factory.make())
        before = stub.state.replicas.total_replicas()
        report = run(pre.run_cycle(force=True))
        assert report.applied > 0
        assert report.rolled_back == 0
        after = stub.state.replicas.total_replicas()
        assert after == before + report.applied
        stub.state.check_invariants(())
        # Re-running on the same forecast converges: the copies exist now.
        again = run(pre.run_cycle(force=True))
        assert again.applied < report.applied or again.reason == "no-candidates"

    def test_status_payload(self, serve_instance):
        pre = Preplacer(self._gateway_stub(serve_instance))
        payload = pre.status()
        assert payload["cycles"] == 0
        assert payload["observed"] == 0
        assert payload["estimator"] == "ewma"
        assert payload["last_cycle"] is None
        run(pre.run_cycle())
        payload = pre.status()
        assert payload["cycles"] == 1
        assert payload["last_cycle"]["reason"] == "window-too-small"


class TestPredictProtocol:
    def test_predict_not_enabled_errors(self, serve_instance):
        async def scenario():
            async with running_gateway(serve_instance) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    response = await client.predict()
                    assert response["ok"] is False
                    assert response["error"] == "predictor not enabled"

        run(scenario())

    def test_predict_over_the_wire(self, serve_instance):
        async def scenario():
            config = PreplacerConfig(interval_s=1e9, min_window=4)
            async with running_gateway(
                serve_instance, hold_factor=100.0, predict=config
            ) as gateway:
                host, port = gateway.address
                factory = QueryFactory(
                    serve_instance, seed=8, mode="flash-crowd", period=10
                )
                async with await GatewayClient.connect(host, port) as client:
                    for _ in range(30):
                        await client.submit(factory.make())
                    report = await client.predict(force=True)
                    assert report["ok"] is True
                    assert report["applied"] > 0
                    assert report["preplaced"] is True
                    status = await client.status()
                    predict = status["predict"]
                    assert predict["preplaced_steps"] == report["applied"]
                    rendered = GatewayClient.render_status(status)
                    assert "predict:" in rendered
                gateway.state.check_invariants(
                    tuple(
                        a for group in gateway._inflight.values() for a in group
                    )
                )

        run(scenario())


class TestPreplacerGoldenParity:
    """An enabled-but-gated predictor is invisible byte-for-byte.

    Same strictly-sequential stream twice: plain gateway vs. predictor
    enabled with an unreachable ``min_window`` (fast daemon interval plus
    explicit unforced cycles mid-stream).  Observation only mutates the
    forecaster, never cluster state, so every decision, every counter,
    and the final checkpoint must match the baseline exactly.
    """

    def _drive(self, serve_instance, path, predict):
        async def scenario():
            results = []
            async with running_gateway(
                serve_instance,
                hold_factor=100.0,
                checkpoint_path=str(path),
                predict=predict,
            ) as gateway:
                host, port = gateway.address
                factory = QueryFactory(serve_instance, seed=8)
                async with await GatewayClient.connect(host, port) as client:
                    for i in range(40):
                        response = await client.submit(factory.make())
                        results.append(response["result"])
                        if predict is not None and i in (19, 39):
                            cycle = await client.predict()
                            assert cycle["ok"] is True
                            assert cycle["reason"] == "window-too-small"
                status = gateway.status()
                await gateway.stop()  # writes the final checkpoint
                return results, status, dict(gateway.counters)

        return run(scenario())

    def test_gated_predictor_is_bit_identical(self, serve_instance, tmp_path):
        plain_path = tmp_path / "plain.ckpt.json"
        predict_path = tmp_path / "predict.ckpt.json"
        config = PreplacerConfig(
            interval_s=0.01, window=10_000, min_window=10_000
        )

        plain_results, plain_status, plain_counters = self._drive(
            serve_instance, plain_path, None
        )
        predict_results, predict_status, predict_counters = self._drive(
            serve_instance, predict_path, config
        )

        assert predict_results == plain_results
        assert predict_counters == plain_counters
        assert predict_path.read_bytes() == plain_path.read_bytes()

        # The daemon ran (explicit cycles at least) but placed nothing.
        assert "predict" not in plain_status
        daemon = predict_status["predict"]
        assert daemon["cycles"] >= 2
        assert daemon["preplaced_steps"] == 0
        assert daemon["preplaced_gb"] == 0.0
        assert daemon["observed"] > 0
