"""Long-running service hygiene: quiet shutdown and bounded memory.

* Tearing a gateway or router down while client connections are still
  open must not leak a ``CancelledError`` out of a connection handler —
  asyncio's stream callback would log it as "Exception in callback".
* A gateway and router that served thousands of submits and let every
  hold lapse must be back to empty bookkeeping: no per-submit state may
  survive its query.
"""

import asyncio
import socket
import threading

import pytest

from repro.serve import (
    AdmissionGateway,
    FrontRouter,
    GatewayClient,
    GatewayConfig,
    GatewayThread,
    QueryFactory,
    RouterThread,
    ShardPlan,
)
from repro.util.rng import spawn_rng
from repro.workload.params import PaperDefaults
from repro.workload.queries import generate_workload


@pytest.fixture(scope="module")
def lifecycle_instance(small_topology):
    return generate_workload(small_topology, spawn_rng(5, "serve"), PaperDefaults())


def watch_loop(loop):
    """Route ``loop``'s exception-handler calls into a returned list."""
    seen = []
    installed = threading.Event()

    def install():
        loop.set_exception_handler(lambda _loop, context: seen.append(context))
        installed.set()

    loop.call_soon_threadsafe(install)
    assert installed.wait(5.0)
    return seen


class _StuckWriter:
    """A stream writer whose close never completes (peer not reading)."""

    def write(self, data):
        pass

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        await asyncio.Event().wait()


class TestQuietShutdown:
    def test_stop_with_idle_connections_logs_nothing(self, lifecycle_instance):
        for _ in range(3):
            gateway = GatewayThread(
                AdmissionGateway(lifecycle_instance, GatewayConfig())
            )
            gateway_address = gateway.start()
            router = RouterThread(
                FrontRouter(
                    lifecycle_instance,
                    [(gateway_address, lifecycle_instance.placement_nodes)],
                )
            )
            router_address = router.start()
            seen_gateway = watch_loop(gateway._loop)
            seen_router = watch_loop(router._loop)
            idle = [
                socket.create_connection(address, timeout=5.0)
                for address in (gateway_address, router_address)
            ]
            for sock in idle:
                # One answered request: the server has accepted the
                # connection, whose handler then idles in readline().
                sock.sendall(b'{"id": 1, "op": "status"}\n')
                with sock.makefile("rb") as lines:
                    assert lines.readline().startswith(b'{"id":1,"ok":true')
            try:
                router.stop()
                gateway.stop()
            finally:
                for sock in idle:
                    sock.close()
            assert not router._thread.is_alive()
            assert not gateway._thread.is_alive()
            assert seen_gateway == []
            assert seen_router == []

    @pytest.mark.parametrize("server", ["gateway", "router"])
    def test_cancel_while_closing_ends_the_handler(
        self, lifecycle_instance, server
    ):
        """Teardown cancelling a handler that is already waiting for its
        connection to close must end the handler, not escape from it."""
        if server == "gateway":
            service = AdmissionGateway(lifecycle_instance)
        else:
            service = FrontRouter(
                lifecycle_instance,
                [(("127.0.0.1", 1), lifecycle_instance.placement_nodes)],
            )

        async def scenario():
            seen = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, context: seen.append(context))
            reader = asyncio.StreamReader()
            reader.feed_eof()  # the peer hung up: straight to teardown
            task = asyncio.create_task(
                service._handle_connection(reader, _StuckWriter())
            )
            # What asyncio's stream protocol does with a handler task.
            task.add_done_callback(lambda t: t.exception())
            for _ in range(5):
                await asyncio.sleep(0)  # parks in wait_closed()
            assert not task.done()
            task.cancel()
            await asyncio.wait([task], timeout=5.0)
            await asyncio.sleep(0)  # run the done callback
            return task, seen

        task, seen = asyncio.run(scenario())
        assert task.done() and not task.cancelled()
        assert seen == []


class TestBoundedMemory:
    def test_bookkeeping_drains_after_holds_lapse(self, paper_instance):
        """Thousands of submits with fresh selectivities leave nothing
        behind once their holds lapse — no per-submit cache, hold or
        reservation entry survives its query."""
        plan = ShardPlan.build(paper_instance, 2)
        submits = 2000

        async def scenario():
            gateways = [
                AdmissionGateway(
                    paper_instance,
                    GatewayConfig(
                        shard_nodes=nodes, shard_id=sid, hold_factor=1e-3
                    ),
                )
                for sid, nodes in enumerate(plan.members)
            ]
            for gateway in gateways:
                await gateway.start()
            router = FrontRouter(
                paper_instance,
                [(g.address, nodes) for g, nodes in zip(gateways, plan.members)],
            )
            await router.start()
            factory = QueryFactory(paper_instance, seed=21)
            queries = [factory.make() for _ in range(submits)]
            alphas = {a for q in queries for a in q.selectivity}
            assert len(alphas) > 1000  # fresh selectivities, not a replay
            try:
                async with await GatewayClient.connect(*router.address) as client:
                    for start in range(0, submits, 100):
                        responses = await asyncio.gather(
                            *(client.submit(q) for q in queries[start : start + 100])
                        )
                        assert all(r["ok"] for r in responses)
                deadline = asyncio.get_running_loop().time() + 10.0
                while any(g._holds or g._reservation_timers for g in gateways):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                return gateways, router
            finally:
                await router.stop()
                for gateway in gateways:
                    await gateway.stop()

        gateways, router = asyncio.run(scenario())
        assert router.counters["submitted"] == submits
        assert sum(g.counters["admitted"] for g in gateways) > 0
        assert router.counters["routed_cross"] > 0
        for gateway in gateways:
            assert gateway._holds == {}
            assert gateway._inflight == {}
            assert gateway._inflight_homes == {}
            assert gateway._reserved_homes == {}
            assert gateway._reservation_timers == {}
            assert gateway.state.total_allocated() == 0.0
        for obj in (*gateways, router):
            for name, value in vars(obj).items():
                if isinstance(value, (dict, set)):
                    assert len(value) < 1000, (type(obj).__name__, name)
