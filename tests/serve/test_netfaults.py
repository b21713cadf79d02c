"""Tests for the gateway's network-dynamics daemon and its parity contract.

Covers the daemon cycle machinery (forced cycles, schedule exhaustion,
partition eviction), the golden disabled-parity pin (a gateway whose
dynamics never fire is byte-identical — responses, counters, checkpoint
bytes — to one with no dynamics configured at all), that the
gateway's fast-reject and the front router's classification read the
recomputed delays after an epoch bump, the mobility trace mode, and the
sync-taxed greedy rule.
"""

import asyncio
import contextlib
import dataclasses

import numpy as np
import pytest

from repro.cluster.consistency import ConsistencyModel
from repro.core.greedy import make_sync_greedy_place_pair
from repro.network.dynamics import LinkFaultConfig
from repro.serve import (
    AdmissionGateway,
    FrontRouter,
    GatewayClient,
    GatewayConfig,
    NetFaultConfig,
    QueryFactory,
)
from repro.serve.protocol import OPS, decode_request, encode_message
from repro.util.rng import spawn_rng
from repro.util.validation import ValidationError
from repro.workload.params import PaperDefaults
from repro.workload.queries import generate_workload


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


def _serve_instance(small_topology):
    """A fresh instance per call: dynamics mutate the path cache."""
    return generate_workload(small_topology, spawn_rng(5, "serve"), PaperDefaults())


#: A daemon config whose background loop never fires during a test
#: (interval >> test wall-clock) but whose schedule is dense, so forced
#: cycles deterministically apply events.
_DENSE = NetFaultConfig(
    interval_s=60.0,
    horizon_s=50.0,
    faults=LinkFaultConfig(
        mean_time_to_event_s=0.2,
        mean_repair_s=1.0,
        partition_prob=0.3,
        seed=9,
    ),
)

#: Dynamics configured but with an empty schedule: the daemon exists,
#: runs, and must change nothing (the parity pin's hard mode).
_EMPTY = NetFaultConfig(
    interval_s=60.0,
    horizon_s=50.0,
    faults=LinkFaultConfig(max_events=0),
)


class TestConfigValidation:
    def test_bad_interval(self):
        with pytest.raises(ValidationError, match="interval_s"):
            NetFaultConfig(interval_s=0.0)

    def test_bad_horizon(self):
        with pytest.raises(ValidationError, match="horizon_s"):
            NetFaultConfig(horizon_s=-1.0)

    def test_incompatible_with_shards(self, tiny_instance):
        with pytest.raises(ValidationError, match="shard-scoped"):
            GatewayConfig(
                netfaults=_DENSE,
                shard_nodes=tuple(tiny_instance.placement_nodes[:2]),
            )

    def test_netfault_op_registered(self):
        assert "netfault" in OPS
        decode_request(encode_message({"op": "netfault", "id": 1}).strip())


class TestDaemonCycles:
    def test_forced_cycle_applies_events(self, small_topology):
        instance = _serve_instance(small_topology)

        async def scenario():
            async with running_gateway(instance, netfaults=_DENSE) as gateway:
                daemon = gateway.netfaults
                assert daemon is not None and len(daemon._schedule) > 0
                report = await daemon.run_cycle(force=True)
                assert report.applied >= 1
                assert report.generation == instance.paths.generation > 0
                assert report.applied == (
                    report.degrades + report.severs + report.restores
                )
                assert 0.0 <= report.link_availability <= 1.0
                payload = report.to_dict()
                assert payload["cycle"] == 1 and payload["applied"] >= 1

        run(scenario())

    def test_unforced_cycle_waits_for_clock(self, small_topology):
        instance = _serve_instance(small_topology)
        sparse = dataclasses.replace(
            _DENSE,
            faults=LinkFaultConfig(mean_time_to_event_s=1e6, seed=9),
        )

        async def scenario():
            async with running_gateway(instance, netfaults=sparse) as gateway:
                report = await gateway.netfaults.run_cycle()
                assert report.applied == 0
                assert instance.paths.generation == 0

        run(scenario())

    def test_schedule_exhausts(self, small_topology):
        instance = _serve_instance(small_topology)

        async def scenario():
            async with running_gateway(instance, netfaults=_EMPTY) as gateway:
                report = await gateway.netfaults.run_cycle(force=True)
                assert report.applied == 0
                assert report.reason == "schedule-exhausted"
                status = gateway.netfaults.status()
                assert status["events_remaining"] == 0
                assert status["generation"] == 0

        run(scenario())

    def test_netfault_op_over_tcp(self, small_topology):
        instance = _serve_instance(small_topology)

        async def scenario():
            async with running_gateway(instance, netfaults=_DENSE) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    response = await client.netfault(force=True)
                    assert response["ok"] and response["applied"] >= 1
                status = gateway.status()
                assert status["netfault"]["cycles"] == 1

        run(scenario())

    def test_netfault_op_errors_when_disabled(self, tiny_instance):
        async def scenario():
            async with running_gateway(tiny_instance) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    response = await client.netfault(force=True)
                    assert not response["ok"]
                    assert response["error"] == "network dynamics not enabled"

        run(scenario())

    def test_stop_restores_base_delays(self, small_topology):
        instance = _serve_instance(small_topology)
        base = np.array(instance.paths.delays_matrix())

        async def scenario():
            async with running_gateway(instance, netfaults=_DENSE) as gateway:
                for _ in range(4):
                    await gateway.netfaults.run_cycle(force=True)
                assert instance.paths.generation >= 4

        run(scenario())
        # stop() healed every link and recomputed: values match the
        # pristine table even though the generation stamp moved on.
        np.testing.assert_array_equal(instance.paths.delays_matrix(), base)


class TestPartitionEviction:
    def test_partitioned_inflight_query_is_evicted(self, tiny_instance):
        async def scenario():
            async with running_gateway(
                tiny_instance, netfaults=_DENSE, hold_factor=100.0
            ) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    response = await client.submit(tiny_instance.queries[0])
                assert response["result"] == "admitted"
                home = tiny_instance.queries[0].home_node
                if all(a["node"] == home for a in response["assignments"]):
                    pytest.skip("query served at home; severing cannot cut it")
                daemon = gateway.netfaults
                for link in tiny_instance.topology.link_delays:
                    if home in link:
                        daemon.link_state.sever(link)
                gateway.instance.paths.recompute(
                    daemon.link_state.effective_delays()
                )
                gateway.refresh_network_statics()
                evicted = daemon._evict_partitioned()
                assert evicted == 1
                assert not gateway._inflight
                assert gateway.state.total_allocated() == 0.0
                gateway.state.check_invariants(
                    [], link_state=daemon.link_state, homes={}
                )

        run(scenario())


def _responses_and_checkpoint(small_topology, tmp_path, tag, **extra):
    """Drive one gateway over a fixed stream; return (responses, bytes)."""
    instance = _serve_instance(small_topology)
    path = tmp_path / f"{tag}.ckpt"

    async def scenario():
        results = []
        async with running_gateway(
            instance, checkpoint_path=str(path), hold_factor=100.0, **extra
        ) as gateway:
            host, port = gateway.address
            factory = QueryFactory(instance, seed=17)
            async with await GatewayClient.connect(host, port) as client:
                for _ in range(25):
                    results.append(await client.submit(factory.make()))
                await client.snapshot()
            counters = dict(gateway.counters)
        return results, counters

    results, counters = run(scenario())
    return results, counters, path.read_bytes()


class TestDisabledParity:
    """Golden pin: dynamics that never fire change nothing, byte for byte."""

    def test_empty_schedule_daemon_is_byte_identical(
        self, small_topology, tmp_path
    ):
        base_res, base_ctr, base_ckpt = _responses_and_checkpoint(
            small_topology, tmp_path, "plain"
        )
        nf_res, nf_ctr, nf_ckpt = _responses_and_checkpoint(
            small_topology, tmp_path, "armed", netfaults=_EMPTY
        )
        assert nf_res == base_res
        assert nf_ctr == base_ctr
        assert nf_ckpt == base_ckpt


def _single_pair(query, d_id, deadline_s):
    """``query`` narrowed to one demanded dataset, with a new deadline."""
    return dataclasses.replace(
        query,
        demanded=(d_id,),
        selectivity=(query.alpha_for(d_id),),
        deadline_s=deadline_s,
    )


def _slowed_pair(instance, before):
    """A (query, dataset) pair whose best latency grew since ``before``."""
    for query in instance.queries:
        for d_id in query.demanded:
            now = instance.pair_latency_vector(query, instance.dataset(d_id))
            if now.min() > before[query.query_id, d_id]:
                return query, d_id, float(now.min())
    return None


class TestGenerationInvalidation:
    def test_gateway_fast_reject_reads_recomputed_delays(self, small_topology):
        instance = _serve_instance(small_topology)
        before = {
            (q.query_id, d_id): float(
                instance.pair_latency_vector(q, instance.dataset(d_id)).min()
            )
            for q in instance.queries
            for d_id in q.demanded
        }

        async def scenario():
            async with running_gateway(instance, netfaults=_DENSE) as gateway:
                daemon = gateway.netfaults
                slowed = None
                while slowed is None:
                    report = await daemon.run_cycle(force=True)
                    assert report.applied >= 1
                    slowed = _slowed_pair(instance, before)
                query, d_id, after = slowed
                # A deadline between the pristine and the degraded best
                # latency: met before the recompute, missed everywhere
                # after it.
                mid = (before[query.query_id, d_id] + after) / 2.0
                probe = _single_pair(query, d_id, mid)
                assert gateway._deadline_infeasible(probe)
            # stop() recomputed the paths on the pristine delays.
            assert instance.paths.generation > 0
            assert not gateway._deadline_infeasible(probe)

        run(scenario())

    def test_router_classification_rederived(self, small_topology):
        """Satellite: the front router's argmin shard classification is
        re-derived from the degraded delays after an epoch bump."""
        instance = _serve_instance(small_topology)
        placement = list(instance.placement_nodes)
        half = len(placement) // 2
        router = FrontRouter(
            instance,
            [
                (("127.0.0.1", 1), placement[:half]),
                (("127.0.0.1", 2), placement[half:]),
            ],
        )
        pristine = [router._route(q) for q in instance.queries]
        degraded = {
            link: delay * 50.0
            for link, delay in instance.topology.link_delays.items()
        }
        instance.paths.recompute(degraded)
        try:
            rerouted = [router._route(q) for q in instance.queries]
        finally:
            # Heal for the session-scoped topology's other consumers.
            instance.paths.recompute(dict(instance.topology.link_delays))
        assert rerouted != pristine
        assert [router._route(q) for q in instance.queries] == pristine


class TestMobilityTraceMode:
    def test_stationary_until_first_rotation(self, tiny_instance):
        stationary = QueryFactory(tiny_instance, seed=3, period=10)
        mobile = QueryFactory(tiny_instance, seed=3, mode="mobility", period=10)
        for _ in range(10):
            assert mobile.make() == stationary.make()

    def test_homes_churn_after_period(self, tiny_instance):
        stationary = QueryFactory(tiny_instance, seed=3, period=5)
        mobile = QueryFactory(tiny_instance, seed=3, mode="mobility", period=5)
        pairs = [(stationary.make(), mobile.make()) for _ in range(40)]
        churned = [(s, m) for s, m in pairs[5:] if s.home_node != m.home_node]
        assert churned  # the anchor moved at least once after rotation
        for s, m in pairs:
            # Only the home shifts: demand shape is draw-for-draw identical.
            assert m.demanded == s.demanded
            assert m.selectivity == s.selectivity
            assert m.deadline_s == s.deadline_s

    def test_bad_mode_rejected(self, tiny_instance):
        with pytest.raises(ValidationError, match="mode"):
            QueryFactory(tiny_instance, mode="teleport")


class TestSyncGreedyRule:
    def test_serves_from_existing_copy_without_tax(self, tiny_instance):
        from repro.cluster.state import ClusterState

        state = ClusterState(tiny_instance)
        rule = make_sync_greedy_place_pair()
        assignment = rule(state, tiny_instance.queries[0], 0)
        assert assignment is not None

    def test_tax_blocks_remote_replica(self, tiny_instance):
        from repro.cluster.state import ClusterState

        query = tiny_instance.queries[0]
        origin = tiny_instance.dataset(0).origin_node
        # Deadline feasible at the origin, but any *new* copy pays a
        # crushing horizon of delta syncs and fails.
        taxed = make_sync_greedy_place_pair(
            ConsistencyModel(), horizon_days=1e6
        )
        state = ClusterState(tiny_instance)
        assignment = taxed(state, query, 0)
        assert assignment is not None
        assert assignment.node == origin  # only the sunk copy is affordable
