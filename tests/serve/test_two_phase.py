"""Two-phase reserve/commit/abort: unit semantics + crash schedules.

The cross-shard admission saga holds resources *for real* at reserve
time, so the properties that matter are equalities of state: an aborted
(or expired) reservation must restore the shard exactly, a committed one
must hold exactly what it reserved, and no schedule of reserves,
commits, aborts, expiries, and injected node crashes may ever leave a
shard violating :meth:`ClusterState.check_invariants`.
"""

import asyncio
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import AdmissionGateway, GatewayConfig, ShardPlan
from repro.serve.protocol import ProtocolError
from repro.util.rng import spawn_rng
from repro.workload.params import PaperDefaults
from repro.workload.queries import generate_workload


@pytest.fixture(scope="module")
def shard_instance(small_topology):
    return generate_workload(small_topology, spawn_rng(5, "serve"), PaperDefaults())


def make_shard_gateways(instance, num_shards=2):
    """Shard gateways driven directly (no TCP, no admission worker)."""
    plan = ShardPlan.build(instance, num_shards)
    return plan, [
        AdmissionGateway(
            instance,
            GatewayConfig(shard_nodes=nodes, shard_id=sid, hold_factor=50.0),
        )
        for sid, nodes in enumerate(plan.members)
    ]


def reservable_query(gateway, instance):
    """First workload query the shard can actually reserve in full."""
    state = gateway.state
    for query in instance.queries:
        if all(
            state.can_serve_mask(query, instance.dataset(d_id)).any()
            for d_id in query.demanded
        ):
            return query
    pytest.skip("no shard-reservable query in this workload")


def state_fingerprint(state):
    """Everything an abort must restore, in comparable form."""
    return (
        state.available_array().tobytes(),
        {
            d_id: frozenset(state.replicas.nodes(d_id))
            for d_id in state.instance.datasets
        },
        {v: dict(n.snapshot()) for v, n in state.nodes.items()},
    )


class TestReserveCommit:
    def test_reserve_commit_holds_resources(self, shard_instance):
        async def scenario():
            _, (gw, _) = make_shard_gateways(shard_instance)
            query = reservable_query(gw, shard_instance)
            before = gw.state.total_allocated()
            response = gw._reserve_query("r1", query, tuple(query.demanded))
            assert response["result"] == "reserved"
            assert len(response["assignments"]) == len(query.demanded)
            assert gw.state.pending_reservations() == 1
            assert gw.state.total_allocated() > before

            held = gw.state.total_allocated()
            committed = gw._commit_reservation("r1")
            assert committed["committed"] is True
            assert committed["response_s"] == pytest.approx(
                max(a["latency_s"] for a in response["assignments"])
            )
            # Commit changes bookkeeping only: the resources stay held.
            assert gw.state.total_allocated() == held
            assert gw.state.pending_reservations() == 0
            assert query.query_id in gw._inflight
            gw.state.check_invariants(gw._inflight[query.query_id])
            assert gw.reserve_counters["reserved"] == 1
            assert gw.reserve_counters["committed"] == 1

        asyncio.run(scenario())

    def test_commit_unknown_reservation_errors(self, shard_instance):
        _, (gw, _) = make_shard_gateways(shard_instance)
        with pytest.raises(ProtocolError, match="no pending reservation"):
            gw._commit_reservation("ghost")

    def test_duplicate_reservation_id_rejected(self, shard_instance):
        _, (gw, _) = make_shard_gateways(shard_instance)
        query = reservable_query(gw, shard_instance)
        assert gw._reserve_query("dup", query, tuple(query.demanded))[
            "result"
        ] == "reserved"
        with pytest.raises(ProtocolError, match="already pending"):
            gw._reserve_query("dup", query, tuple(query.demanded))

    def test_infeasible_reserve_leaves_state_untouched(self, shard_instance):
        _, (gw, _) = make_shard_gateways(shard_instance)
        query = dataclasses.replace(
            reservable_query(gw, shard_instance), deadline_s=1e-9
        )
        before = state_fingerprint(gw.state)
        response = gw._reserve_query("r1", query, tuple(query.demanded))
        assert response["result"] == "rejected"
        assert state_fingerprint(gw.state) == before
        assert gw.state.pending_reservations() == 0
        assert gw.reserve_counters["rejected"] == 1


class TestAbort:
    def test_abort_restores_state_exactly(self, shard_instance):
        """Regression: an aborted reserve leaks neither compute capacity
        nor replica slots — the shard is byte-identical to before."""
        _, (gw, _) = make_shard_gateways(shard_instance)
        query = reservable_query(gw, shard_instance)
        before = state_fingerprint(gw.state)
        slots_before = {
            d_id: gw.state.replicas.remaining_slots(d_id)
            for d_id in query.demanded
        }
        assert gw._reserve_query("r1", query, tuple(query.demanded))[
            "result"
        ] == "reserved"
        assert gw._abort_reservation("r1") == {"found": True}
        assert state_fingerprint(gw.state) == before
        assert {
            d_id: gw.state.replicas.remaining_slots(d_id)
            for d_id in query.demanded
        } == slots_before
        assert gw.state.pending_reservations() == 0
        gw.state.check_invariants()

    def test_abort_is_idempotent(self, shard_instance):
        _, (gw, _) = make_shard_gateways(shard_instance)
        assert gw._abort_reservation("never-reserved") == {"found": False}
        query = reservable_query(gw, shard_instance)
        gw._reserve_query("r1", query, tuple(query.demanded))
        assert gw._abort_reservation("r1") == {"found": True}
        assert gw._abort_reservation("r1") == {"found": False}
        assert gw.reserve_counters["aborted"] == 1

    def test_expiry_acts_as_abort(self, shard_instance):
        _, (gw, _) = make_shard_gateways(shard_instance)
        query = reservable_query(gw, shard_instance)
        before = state_fingerprint(gw.state)
        gw._reserve_query("r1", query, tuple(query.demanded))
        gw._expire_reservation("r1")
        assert state_fingerprint(gw.state) == before
        assert gw.reserve_counters["expired"] == 1
        # A late router abort after the TTL fired is a safe no-op.
        assert gw._abort_reservation("r1") == {"found": False}
        gw.state.check_invariants()

    def test_abort_after_crash_never_leaks(self, shard_instance):
        """A shard crash between reserve and abort must not corrupt the
        undo: evicted allocations and dropped replicas are tolerated."""
        _, (gw, _) = make_shard_gateways(shard_instance)
        query = reservable_query(gw, shard_instance)
        response = gw._reserve_query("r1", query, tuple(query.demanded))
        assert response["result"] == "reserved"
        victim = response["assignments"][0]["node"]
        gw.state.mark_down(victim)
        gw.state.evict_allocations(victim)
        gw.state.drop_replicas(victim)
        gw.state.check_invariants()
        assert gw._abort_reservation("r1") == {"found": True}
        gw.state.check_invariants()
        assert gw.state.pending_reservations() == 0


# -- Hypothesis: arbitrary schedules with injected crashes -----------------

ACTIONS = ("reserve", "commit", "abort", "expire", "crash", "recover")


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),  # shard
            st.sampled_from(ACTIONS),
            st.integers(min_value=0, max_value=63),  # query / node selector
        ),
        max_size=14,
    )
)
def test_schedules_preserve_invariants(shard_instance, steps):
    """No interleaving of two-phase ops and crashes breaks a shard."""

    async def scenario():
        plan, gateways = make_shard_gateways(shard_instance)
        pending: list[list[str]] = [[], []]
        next_rid = 0
        next_qid = 10_000
        queries = shard_instance.queries

        for shard, action, selector in steps:
            gw = gateways[shard]
            state = gw.state
            if action == "reserve":
                nonlocal_rid = f"r{next_rid}"
                next_rid += 1
                query = dataclasses.replace(
                    queries[selector % len(queries)], query_id=next_qid
                )
                next_qid += 1
                response = gw._reserve_query(
                    nonlocal_rid, query, tuple(query.demanded)
                )
                if response["result"] == "reserved":
                    pending[shard].append(nonlocal_rid)
            elif action == "commit" and pending[shard]:
                rid = pending[shard].pop(selector % len(pending[shard]))
                gw._commit_reservation(rid)
            elif action == "abort" and pending[shard]:
                rid = pending[shard].pop(selector % len(pending[shard]))
                assert gw._abort_reservation(rid) == {"found": True}
            elif action == "expire" and pending[shard]:
                rid = pending[shard].pop(selector % len(pending[shard]))
                gw._expire_reservation(rid)
                assert not state.has_reservation(rid)
            elif action == "crash":
                up = [v for v in state.nodes if state.is_up(v)]
                if len(up) > 1:  # keep at least one node serving
                    victim = up[selector % len(up)]
                    state.mark_down(victim)
                    state.evict_allocations(victim)
                    state.drop_replicas(victim)
            elif action == "recover":
                down = sorted(state.down_nodes())
                if down:
                    state.mark_up(down[selector % len(down)])
            for g in gateways:
                g.state.check_invariants()

        # Drain: abort whatever is still pending; shards must come back
        # clean (no leaked allocations from reservations).
        for shard, gw in enumerate(gateways):
            for rid in pending[shard]:
                gw._abort_reservation(rid)
            gw.state.check_invariants()
            assert gw.state.pending_reservations() == 0

    asyncio.run(scenario())
