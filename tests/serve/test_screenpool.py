"""Parity and protocol tests for the parallel screening engine.

Three layers, mirroring the contract in ``docs/performance.md``:

* the batch kernel (:func:`repro.serve.screenpool.screen_rows`) is
  element-for-element ``ClusterState.can_serve_mask(...).any()`` per
  demanded pair — the mask ``tests/core/test_vector_parity.py`` pins to
  scalar ``can_serve``;
* the shared-memory views round-trip arrays consistently under the
  seqlock protocol;
* a gateway screening with the kernel (inline or pooled) makes the same
  decisions — and writes the same checkpoints — as one screening with
  the ``can_serve_mask`` reference.
"""

import asyncio
import contextlib
import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.io.serialize import state_to_dict
from repro.serve import (
    AdmissionGateway,
    GatewayConfig,
    GatewayClient,
    QueryFactory,
    ScreenPool,
    ScreenStatics,
    SharedStateViews,
)
from repro.serve.gateway import _MAX_RESCREENS
from repro.serve.screenpool import (
    build_rows,
    screen_rows,
    snapshot_state,
    verdicts_from_pairs,
)
from repro.util.rng import spawn_rng
from repro.util.validation import ValidationError
from repro.workload.params import PaperDefaults
from repro.workload.queries import generate_workload


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def screen_instance(small_topology):
    """A compact workload instance for screening tests."""
    return generate_workload(small_topology, spawn_rng(7, "screen"), PaperDefaults())


@contextlib.asynccontextmanager
async def running_gateway(instance, **config):
    gateway = AdmissionGateway(instance, GatewayConfig(**config))
    await gateway.start()
    try:
        yield gateway
    finally:
        if not gateway._closed.is_set():
            await gateway.stop()


def churn_state(gateway, queries, *, down=()):
    """Admit a workload slice (and fail nodes) so screens see real state."""
    state = gateway.state
    for query in queries:
        for d_id in query.demanded:
            dataset = gateway.instance.dataset(d_id)
            for node in gateway.instance.placement_nodes:
                if state.can_serve(query, dataset, node):
                    state.serve(query, dataset, node)
                    break
    for node in down:
        state.mark_down(node)


def mask_verdicts(state, queries):
    """Reference screen: every demanded pair has a servable node."""
    return [
        all(
            state.can_serve_mask(q, state.instance.dataset(d)).any()
            for d in q.demanded
        )
        for q in queries
    ]


class TestKernelParity:
    """screen_rows == ClusterState.can_serve_mask, verdict for verdict."""

    def _assert_parity(self, gateway, queries):
        statics = ScreenStatics.from_instance(gateway.instance)
        batch = [SimpleNamespace(query=q) for q in queries]
        available = gateway.state.available_array()
        expected = mask_verdicts(gateway.state, queries)
        rows = build_rows(queries, statics)
        view = snapshot_state(gateway.state, statics)
        np.testing.assert_array_equal(view.free_ghz, available)
        pair_ok = screen_rows(statics, view, rows)
        actual = verdicts_from_pairs(rows, pair_ok, len(batch))
        assert actual == expected

    def test_fresh_state(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        self._assert_parity(gateway, list(screen_instance.queries[:32]))

    def test_after_churn(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        churn_state(gateway, screen_instance.queries[:40])
        self._assert_parity(gateway, list(screen_instance.queries))

    def test_with_down_nodes(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        churn_state(
            gateway,
            screen_instance.queries[:40],
            down=screen_instance.placement_nodes[:2],
        )
        self._assert_parity(gateway, list(screen_instance.queries))

    def test_dataset_without_live_copy(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        # The only copy (the origin) of a demanded dataset goes down: idle
        # up nodes have room for a replica but nothing to clone it from,
        # so no pair of that dataset may pass.
        state = gateway.state
        d_id = screen_instance.queries[0].demanded[0]
        churn_state(gateway, (), down=sorted(state.replicas.nodes(d_id)))
        assert not state.has_live_copy(d_id)
        self._assert_parity(gateway, list(screen_instance.queries))

    def test_exhausted_slots_gate(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        # Burn every replica slot of the hottest datasets.
        state = gateway.state
        for d_id in list(screen_instance.datasets)[:5]:
            for node in screen_instance.placement_nodes:
                if state.replicas.remaining_slots(d_id) <= 0:
                    break
                if state.replicas.can_place(d_id, node):
                    state.replicas.place(d_id, node)
        self._assert_parity(gateway, list(screen_instance.queries))

    def test_tight_deadlines(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        squeezed = [
            dataclasses.replace(q, deadline_s=q.deadline_s * f)
            for q, f in zip(
                screen_instance.queries, [1.0, 0.5, 0.1, 0.01, 1e-6] * 100
            )
        ]
        self._assert_parity(gateway, squeezed[: len(screen_instance.queries)])


class TestBuildRows:
    def test_flattens_pairs_in_order(self, screen_instance):
        statics = ScreenStatics.from_instance(screen_instance)
        queries = list(screen_instance.queries[:8])
        rows = build_rows(queries, statics)
        expected_pairs = [
            (i, d) for i, q in enumerate(queries) for d in q.demanded
        ]
        assert len(rows) == len(expected_pairs)
        for r, (i, d_id) in enumerate(expected_pairs):
            assert rows.query_row[r] == i
            assert statics.dataset_ids[rows.dataset_idx[r]] == d_id
            assert rows.home[r] == queries[i].home_node
            assert rows.alpha[r] == queries[i].alpha_for(d_id)

    def test_statics_match_scalar_accessors(self, screen_instance):
        statics = ScreenStatics.from_instance(screen_instance)
        inst = screen_instance
        for r, d_id in enumerate(statics.dataset_ids):
            assert statics.volumes_gb[r] == inst.dataset(d_id).volume_gb
        for home in {q.home_node for q in inst.queries}:
            np.testing.assert_array_equal(
                statics.home_delays[home], inst.paths.placement_delays_to(home)
            )


class TestSharedViews:
    def test_publish_read_round_trip(self):
        free = np.array([1.5, 2.0, 0.25])
        up = np.array([True, False, True])
        slots = np.array([0, 2], dtype=np.int64)
        presence = np.array([[True, False, True], [False, False, True]])
        with SharedStateViews.create(2, 3) as views:
            views.publish(7, free, up, slots, presence)
            snap = views.read_snapshot()
            assert snap.generation == 7
            np.testing.assert_array_equal(snap.free_ghz, free)
            np.testing.assert_array_equal(snap.up, up)
            np.testing.assert_array_equal(snap.slots_left, slots)
            np.testing.assert_array_equal(snap.presence, presence)
            assert snap.any_down

    def test_snapshot_is_a_copy(self):
        with SharedStateViews.create(1, 2) as views:
            views.publish(
                1,
                np.array([1.0, 2.0]),
                np.ones(2, dtype=bool),
                np.array([1], dtype=np.int64),
                np.ones((1, 2), dtype=bool),
            )
            snap = views.read_snapshot()
            views.publish(
                2,
                np.array([9.0, 9.0]),
                np.ones(2, dtype=bool),
                np.array([0], dtype=np.int64),
                np.zeros((1, 2), dtype=bool),
            )
            np.testing.assert_array_equal(snap.free_ghz, [1.0, 2.0])
            assert views.read_snapshot().generation == 2

    def test_attach_sees_writer(self):
        with SharedStateViews.create(1, 2) as writer:
            writer.publish(
                3,
                np.array([4.0, 5.0]),
                np.ones(2, dtype=bool),
                np.array([2], dtype=np.int64),
                np.zeros((1, 2), dtype=bool),
            )
            reader = SharedStateViews.attach(writer.name, 1, 2)
            try:
                snap = reader.read_snapshot()
                assert snap.generation == 3
                np.testing.assert_array_equal(snap.free_ghz, [4.0, 5.0])
            finally:
                reader.close()

    def test_in_flight_write_blocks_readers(self):
        with SharedStateViews.create(1, 1) as views:
            views._header[0] = 1  # simulate a writer mid-publish (odd seq)
            with pytest.raises(RuntimeError, match="consistent view"):
                views.read_snapshot(max_retries=4)

    def test_size_mismatch_rejected(self):
        with SharedStateViews.create(1, 1) as views:
            with pytest.raises(ValueError, match="smaller"):
                SharedStateViews(views._shm, 100, 100, owner=False)


class TestScreenPool:
    def test_pool_matches_inline_kernel(self, screen_instance):
        gateway = AdmissionGateway(screen_instance)
        churn_state(gateway, screen_instance.queries[:30])
        statics = ScreenStatics.from_instance(screen_instance)
        rows = build_rows(list(screen_instance.queries), statics)
        view = snapshot_state(gateway.state, statics)
        expected = screen_rows(statics, view, rows)
        with ScreenPool(statics, num_workers=2) as pool:
            generation = pool.publish(gateway.state)
            assert generation == gateway.state.generation
            pair_ok, oldest = pool.screen(rows, generation)
            assert oldest == generation
            np.testing.assert_array_equal(pair_ok, expected)

    def test_generation_tracks_mutation(self, screen_instance):
        statics = ScreenStatics.from_instance(screen_instance)
        gateway = AdmissionGateway(screen_instance)
        with ScreenPool(statics, num_workers=1) as pool:
            first = pool.publish(gateway.state)
            churn_state(gateway, screen_instance.queries[:3])
            second = pool.publish(gateway.state)
            assert second > first

    def test_bad_worker_count_rejected(self, screen_instance):
        statics = ScreenStatics.from_instance(screen_instance)
        with pytest.raises(ValidationError):
            ScreenPool(statics, num_workers=0)

    def test_screen_before_start_raises(self, screen_instance):
        statics = ScreenStatics.from_instance(screen_instance)
        pool = ScreenPool(statics, num_workers=1)
        rows = build_rows(list(screen_instance.queries[:2]), statics)
        with pytest.raises(RuntimeError, match="not started"):
            pool.screen(rows, 0)


async def drive(
    instance, n_queries, *, seed=13, fail_at=None, reference=False, **config
):
    """Run one gateway scenario; returns (responses, checkpoint dict).

    ``reference`` swaps the batch screen for :func:`mask_verdicts`.
    """
    responses = []
    async with running_gateway(instance, hold_factor=50.0, **config) as gateway:
        if reference:

            async def reference_screen(batch):
                return mask_verdicts(gateway.state, [p.query for p in batch])

            gateway._screen = reference_screen
        host, port = gateway.address
        factory = QueryFactory(instance, seed=seed)
        async with await GatewayClient.connect(host, port) as client:
            for i in range(n_queries):
                if fail_at is not None and i == fail_at:
                    gateway.state.mark_down(instance.placement_nodes[0])
                response = await client.submit(factory.make())
                responses.append(response)
        checkpoint = state_to_dict(gateway.state)
    return responses, checkpoint


class TestGoldenParity:
    """kernel screen == can_serve_mask screen, decisions and checkpoints
    alike."""

    def test_batch_engine_is_decision_identical(self, screen_instance):
        reference = run(drive(screen_instance, 60, reference=True))
        batch = run(drive(screen_instance, 60))
        assert json.dumps(batch[0]) == json.dumps(reference[0])
        assert json.dumps(batch[1]) == json.dumps(reference[1])

    def test_parity_survives_faults(self, screen_instance):
        reference = run(
            drive(screen_instance, 60, fail_at=25, reference=True)
        )
        batch = run(drive(screen_instance, 60, fail_at=25))
        assert json.dumps(batch[0]) == json.dumps(reference[0])
        assert json.dumps(batch[1]) == json.dumps(reference[1])

    def test_pooled_engine_matches_decisions(self, screen_instance):
        inline = run(drive(screen_instance, 50, screen_workers=1))
        pooled = run(drive(screen_instance, 50, screen_workers=2))
        assert [r["result"] for r in pooled[0]] == [
            r["result"] for r in inline[0]
        ]
        assert json.dumps(pooled[1]) == json.dumps(inline[1])


class TestStaleRescreen:
    def test_persistent_staleness_falls_back_inline(self, screen_instance):
        async def scenario():
            async with running_gateway(
                screen_instance, screen_workers=2
            ) as gateway:
                statics = gateway._statics
                queries = list(screen_instance.queries[:8])
                rows = build_rows(queries, statics)

                def always_stale(rows, generation):
                    return np.ones(len(rows), dtype=bool), generation - 1

                gateway._pool.screen = always_stale
                batch = [SimpleNamespace(query=q) for q in queries]
                verdict = await gateway._screen(batch)
                # Inline fallback still produced the exact screen.
                assert verdict == mask_verdicts(gateway.state, queries)
                assert gateway.screen_stale_rescreens == _MAX_RESCREENS

        run(scenario())

    def test_stale_counter_stays_out_of_checkpoints(self, screen_instance, tmp_path):
        async def scenario():
            path = tmp_path / "ckpt.json"
            async with running_gateway(
                screen_instance, checkpoint_path=str(path)
            ) as gateway:
                gateway.screen_stale_rescreens = 99
                gateway.checkpoint()
            payload = json.loads(path.read_text())
            assert "screen_stale_rescreens" not in payload["counters"]

        run(scenario())


class TestStatusScreenPayload:
    def test_status_reports_screen_and_histogram(self, screen_instance):
        async def scenario():
            async with running_gateway(screen_instance) as gateway:
                host, port = gateway.address
                factory = QueryFactory(screen_instance, seed=2)
                async with await GatewayClient.connect(host, port) as client:
                    for _ in range(20):
                        await client.submit(factory.make())
                    status = await client.status()
                screen = status["screen"]
                assert screen["workers"] == 1
                assert screen["screen_s"]["count"] > 0
                assert screen["commit_s"]["count"] > 0
                hist = status["admission_latency"]
                assert len(hist["counts"]) == len(hist["buckets_le_s"]) + 1
                # Fast-rejects never reach the batch loop, so the
                # histogram counts only batched decisions.
                batched = (
                    status["counters"]["admitted"]
                    + status["counters"]["rejected"]
                )
                assert sum(hist["counts"]) == batched > 0
                assert hist["p50_s"] is not None
                rendered = GatewayClient.render_status(status)
                assert "screen: workers=1" in rendered
                assert "admission latency" in rendered

        run(scenario())
