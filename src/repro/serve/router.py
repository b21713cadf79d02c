"""Front router for the sharded control plane.

The router is the thin tier clients talk to when the control plane runs
as ``N`` shard gateways (:mod:`repro.serve.shard`).  It speaks the same
newline-delimited JSON protocol as a gateway, holds one pipelined
:class:`~repro.serve.client.GatewayClient` link per shard, and carries
*no placement state* — only the instance's pair-latency vectors (the
same arithmetic as the gateway's fast-reject) and the shard membership
map.

Routing one ``submit``
----------------------
For each demanded dataset the router computes the deadline-feasible node
set from the pair-latency vector (state-free, identical to the
gateway's ``_deadline_infeasible`` arithmetic):

* some dataset has **no** feasible node anywhere → the query is
  forwarded whole to the shard of that dataset's minimum-latency node,
  whose own fast-reject produces the canonical rejection (this keeps the
  router byte-transparent: a 1-shard deployment answers bit-identically
  to a bare gateway);
* every dataset's best feasible node lands on **one** shard → direct
  forward, response relayed verbatim (``routed_local``);
* the targets span shards → **two-phase admission** (``routed_cross``).

Two-phase cross-shard admission
-------------------------------
A miniature saga over the shards' ``reserve``/``commit``/``abort`` ops:

1. *Reserve* the per-shard dataset subsets concurrently under one fresh
   reservation id (each shard holds resources for real, guarded by its
   ``reserve_ttl_s`` expiry);
2. unanimous ``reserved`` → *commit* everywhere and answer ``admitted``
   (response time is the max over all shard assignments);
3. anything else — a rejection, a shed, an RPC timeout or a dead shard —
   → *abort* everywhere best-effort and answer ``rejected`` (or ``shed``
   when backpressure, not infeasibility, broke the round).

A commit RPC that fails after unanimous reservation is counted
(``commit_failures``) but the client still sees ``admitted``: the shard
that missed its commit expires the reservation at the TTL and releases
the hold.  The inconsistency window is bounded by the TTL and always
errs toward *freeing* capacity — the documented weakness of two-phase
commit without a durable coordinator log, acceptable here because holds
are short-lived leases, not durable placements.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.instance import ProblemInstance
from repro.core.types import Query
from repro.obs import get_registry
from repro.serve.client import GatewayClient
from repro.serve.gateway import _drive_stop_from_thread
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    encode_message,
    error_response,
    parse_submit_query,
)
from repro.util.validation import ValidationError, check_positive

__all__ = ["FrontRouter", "RouterConfig", "RouterThread"]


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of the front router.

    Parameters
    ----------
    host, port:
        Listen address (port 0 binds an ephemeral port).
    rpc_timeout_s:
        Bound on every shard RPC the router issues on behalf of a
        client.  A reserve that exceeds it is treated as an abort vote;
        a forwarded submit that exceeds it is answered ``shed`` (the
        shard is alive but drowning, or gone — either way the client
        should retry elsewhere in time).
    """

    host: str = "127.0.0.1"
    port: int = 0
    rpc_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        check_positive("rpc_timeout_s", self.rpc_timeout_s)


class FrontRouter:
    """Stateless admission front-end over ``N`` shard gateways.

    Parameters
    ----------
    instance:
        The problem instance (for latency vectors and the placement
        node universe).
    shards:
        ``[(address, node_ids), ...]`` in shard-id order — the bound
        ``(host, port)`` of each shard gateway and the placement nodes
        it owns.  The groups must disjointly cover every placement node.
    config:
        Router tunables (defaults are fine for tests/benches).
    """

    def __init__(
        self,
        instance: ProblemInstance,
        shards: Sequence[tuple[tuple[str, int], Sequence[int]]],
        config: RouterConfig | None = None,
    ) -> None:
        if not shards:
            raise ValidationError("router needs at least one shard")
        self.instance = instance
        self.config = config or RouterConfig()
        self.shard_addresses: list[tuple[str, int]] = []
        members: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for address, node_ids in shards:
            nodes = tuple(node_ids)
            if not nodes:
                raise ValidationError(f"shard at {address} owns no nodes")
            overlap = seen.intersection(nodes)
            if overlap:
                raise ValidationError(
                    f"nodes {sorted(overlap)} appear in more than one shard"
                )
            seen.update(nodes)
            self.shard_addresses.append((str(address[0]), int(address[1])))
            members.append(nodes)
        universe = set(instance.placement_nodes)
        if seen != universe:
            missing = sorted(universe - seen)
            extra = sorted(seen - universe)
            raise ValidationError(
                f"shard groups must cover the placement nodes exactly "
                f"(missing {missing}, unknown {extra})"
            )
        self.members = tuple(members)
        shard_of = {v: s for s, nodes in enumerate(members) for v in nodes}
        #: Shard index per *placement position* — argmin over a latency
        #: vector lands directly on a shard id.
        self._shard_of_index = np.fromiter(
            (shard_of[v] for v in instance.placement_nodes),
            dtype=np.intp,
            count=len(instance.placement_nodes),
        )
        self.counters: dict[str, int] = {
            "submitted": 0,
            "routed_local": 0,
            "routed_cross": 0,
            "admitted": 0,
            "rejected": 0,
            "shed": 0,
            "two_phase_commits": 0,
            "two_phase_aborts": 0,
            "commit_failures": 0,
            "protocol_errors": 0,
        }
        self._links: list[GatewayClient] = []
        self._server: asyncio.AbstractServer | None = None
        self._closed = asyncio.Event()
        self._stopping = False
        self._next_reservation = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port) — valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("router is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Connect to every shard, then bind the listener."""
        try:
            for host, port in self.shard_addresses:
                self._links.append(await GatewayClient.connect(host, port))
        except BaseException:
            await self._close_links()
            raise
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )

    async def stop(self) -> None:
        """Stop accepting, drop the shard links."""
        if self._server is None:
            return
        if self._stopping:
            # A shutdown request and RouterThread.stop can race; the
            # second caller waits for the first teardown, never re-runs it.
            await self._closed.wait()
            return
        self._stopping = True
        try:
            self._server.close()
            await self._server.wait_closed()
            await self._close_links()
        finally:
            # Waiters (main(), RouterThread, ShardCluster) must unblock
            # even if teardown raised, or shutdown hangs forever.
            self._closed.set()

    async def _close_links(self) -> None:
        for link in self._links:
            with contextlib.suppress(Exception):
                await link.close()
        self._links.clear()

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` (or a shutdown request) completes."""
        await self._closed.wait()

    async def run_for(self, duration_s: float) -> None:
        """Serve (already started) for at most ``duration_s``, then stop."""
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._closed.wait(), timeout=duration_s)
        if not self._closed.is_set():
            await self.stop()

    # -- routing -----------------------------------------------------------

    def _route(self, query: Query) -> int | dict[int, list[int]]:
        """Pick the shard(s) a query must touch.

        Returns a single shard id for a direct forward, or a
        ``shard -> dataset_ids`` map (more than one entry) for
        two-phase.  Deterministic: numpy's ``argmin`` breaks latency
        ties toward the lower placement index.  Latencies come from the
        instance, so a network-dynamics path recompute re-derives the
        classification from the degraded delays.
        """
        inst = self.instance
        targets: dict[int, list[int]] = {}
        for d_id in query.demanded:
            vec = inst.pair_latency_vector(query, inst.dataset(d_id))
            feasible = vec <= query.deadline_s
            if not feasible.any():
                # Deadline-infeasible everywhere: forward whole to the
                # closest node's shard — its state-free fast-reject
                # answers canonically (byte-parity with a bare gateway).
                return int(self._shard_of_index[int(np.argmin(vec))])
            masked = np.where(feasible, vec, np.inf)
            shard = int(self._shard_of_index[int(np.argmin(masked))])
            targets.setdefault(shard, []).append(d_id)
        if len(targets) == 1:
            return next(iter(targets))
        return targets

    async def _forward_submit(
        self,
        request_id: Any,
        query: Query,
        shard: int,
        respond: Callable[[dict[str, Any]], Any],
    ) -> None:
        """Relay a shard-local submit; the response passes through
        verbatim (re-keyed to the client's request id)."""
        obs = get_registry()
        self.counters["routed_local"] += 1
        obs.inc("serve.router.routed_local")
        try:
            payload = await asyncio.wait_for(
                self._links[shard].submit(query),
                timeout=self.config.rpc_timeout_s,
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            self.counters["shed"] += 1
            obs.inc("serve.router.shed")
            await respond(
                {
                    "id": request_id,
                    "ok": True,
                    "result": "shed",
                    "retry_after_s": self.config.rpc_timeout_s,
                }
            )
            return
        result = payload.get("result")
        if result in ("admitted", "rejected", "shed"):
            self.counters[result] += 1
            obs.inc(f"serve.router.{result}")
        await respond(
            {"id": request_id, **{k: v for k, v in payload.items() if k != "id"}}
        )

    async def _two_phase_submit(
        self,
        request_id: Any,
        query: Query,
        targets: dict[int, list[int]],
        respond: Callable[[dict[str, Any]], Any],
    ) -> None:
        """Coordinate one cross-shard admission (see the module docs)."""
        obs = get_registry()
        self.counters["routed_cross"] += 1
        obs.inc("serve.router.routed_cross")
        self._next_reservation += 1
        rid = f"x{self._next_reservation}"
        shard_ids = list(targets)
        timeout = self.config.rpc_timeout_s

        async def reserve_on(sid: int) -> dict[str, Any]:
            return await asyncio.wait_for(
                self._links[sid].reserve(rid, query, targets[sid]),
                timeout=timeout,
            )

        votes = await asyncio.gather(
            *(reserve_on(sid) for sid in shard_ids), return_exceptions=True
        )
        reserved = [
            isinstance(v, dict) and v.get("ok") and v.get("result") == "reserved"
            for v in votes
        ]

        if all(reserved):
            commits = await asyncio.gather(
                *(
                    asyncio.wait_for(self._links[sid].commit(rid), timeout=timeout)
                    for sid in shard_ids
                ),
                return_exceptions=True,
            )
            failures = sum(
                1
                for c in commits
                if not (isinstance(c, dict) and c.get("ok") and c.get("committed"))
            )
            if failures:
                # The reserved-but-uncommitted shard expires the hold at
                # its TTL — capacity is freed, never leaked, so the
                # admitted answer stands (see the module docs).
                self.counters["commit_failures"] += failures
                obs.inc("serve.router.commit_failures", failures)
            self.counters["two_phase_commits"] += 1
            self.counters["admitted"] += 1
            obs.inc("serve.router.two_phase_commits")
            obs.inc("serve.router.admitted")
            by_dataset = {
                a["dataset_id"]: a
                for v in votes
                if isinstance(v, dict)
                for a in v.get("assignments", ())
            }
            assignments = [by_dataset[d_id] for d_id in query.demanded]
            await respond(
                {
                    "id": request_id,
                    "ok": True,
                    "result": "admitted",
                    "response_s": max(a["latency_s"] for a in assignments),
                    "assignments": assignments,
                }
            )
            return

        # Abort everywhere best-effort (idempotent on the shards; a
        # reserve that never landed answers ``found: false``).
        self.counters["two_phase_aborts"] += 1
        obs.inc("serve.router.two_phase_aborts")
        await asyncio.gather(
            *(
                asyncio.wait_for(self._links[sid].abort(rid), timeout=timeout)
                for sid in shard_ids
            ),
            return_exceptions=True,  # a missed abort falls to the shard's TTL
        )
        rejected = any(
            isinstance(v, dict) and v.get("ok") and v.get("result") == "rejected"
            for v in votes
        )
        if rejected:
            self.counters["rejected"] += 1
            obs.inc("serve.router.rejected")
            await respond(
                {
                    "id": request_id,
                    "ok": True,
                    "result": "rejected",
                    "reason": "infeasible",
                }
            )
            return
        shed = next(
            (
                v
                for v in votes
                if isinstance(v, dict) and v.get("result") == "shed"
            ),
            None,
        )
        retry = (
            shed.get("retry_after_s", timeout) if shed is not None else timeout
        )
        self.counters["shed"] += 1
        obs.inc("serve.router.shed")
        await respond(
            {
                "id": request_id,
                "ok": True,
                "result": "shed",
                "retry_after_s": retry,
            }
        )

    # -- aggregation ops ---------------------------------------------------

    async def _aggregate_status(self) -> dict[str, Any]:
        """Router counters + per-shard status + summed shard counters."""
        payloads = await asyncio.gather(
            *(link.status() for link in self._links), return_exceptions=True
        )
        shards: list[dict[str, Any]] = []
        totals: dict[str, int] = {}
        for payload in payloads:
            if isinstance(payload, dict):
                shards.append(
                    {k: v for k, v in payload.items() if k not in ("id", "ok")}
                )
                counters = payload.get("counters")
                if isinstance(counters, dict):
                    for key, value in counters.items():
                        if isinstance(value, (int, float)):
                            totals[key] = totals.get(key, 0) + value
            else:
                shards.append({"error": str(payload)})
        return {
            "router": {
                **self.counters,
                "num_shards": len(self.shard_addresses),
            },
            "counters": totals,
            "shards": shards,
        }

    # -- the server --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        obs = get_registry()
        write_lock = asyncio.Lock()
        message_tasks: set[asyncio.Task] = set()

        async def respond(payload: dict[str, Any]) -> None:
            async with write_lock:
                writer.write(encode_message(payload))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    self.counters["protocol_errors"] += 1
                    obs.inc("serve.router.protocol_errors")
                    with contextlib.suppress(Exception):
                        await respond(
                            error_response(
                                None,
                                f"message exceeds {MAX_LINE_BYTES} bytes",
                            )
                        )
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                try:
                    request = decode_request(line)
                except ProtocolError as exc:
                    self.counters["protocol_errors"] += 1
                    obs.inc("serve.router.protocol_errors")
                    await respond(error_response(None, str(exc)))
                    continue
                task = asyncio.create_task(self._dispatch(request, respond))
                message_tasks.add(task)
                task.add_done_callback(message_tasks.discard)
        except asyncio.CancelledError:
            pass
        finally:
            for task in message_tasks:
                task.cancel()
            writer.close()
            # Teardown may cancel this handler while it waits here too;
            # the cancellation must end the handler, not escape into the
            # stream protocol's done-callback.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _dispatch(
        self,
        request: dict[str, Any],
        respond: Callable[[dict[str, Any]], Any],
    ) -> None:
        obs = get_registry()
        request_id = request["id"]
        op = request["op"]
        try:
            if op == "submit":
                self.counters["submitted"] += 1
                obs.inc("serve.router.submitted")
                query = parse_submit_query(request)
                route = self._route(query)
                if isinstance(route, int):
                    await self._forward_submit(request_id, query, route, respond)
                else:
                    await self._two_phase_submit(
                        request_id, query, route, respond
                    )
            elif op == "status":
                payload = await self._aggregate_status()
                await respond({"id": request_id, "ok": True, **payload})
            elif op == "snapshot":
                results = await asyncio.gather(
                    *(link.snapshot() for link in self._links),
                    return_exceptions=True,
                )
                paths = [
                    r.get("path") if isinstance(r, dict) else None
                    for r in results
                ]
                await respond({"id": request_id, "ok": True, "paths": paths})
            elif op == "shutdown":
                for link in self._links:
                    with contextlib.suppress(Exception):
                        await asyncio.wait_for(
                            link.shutdown(), timeout=self.config.rpc_timeout_s
                        )
                await respond({"id": request_id, "ok": True, "stopping": True})
                asyncio.create_task(self.stop())
            else:
                # reopt / reserve / commit / abort are shard-side ops; a
                # client never coordinates two-phase through the router.
                raise ProtocolError(f"router does not serve op {op!r}")
        except ProtocolError as exc:
            self.counters["protocol_errors"] += 1
            obs.inc("serve.router.protocol_errors")
            await respond(error_response(request_id, str(exc)))
        except (ConnectionError, OSError) as exc:
            await respond(error_response(request_id, f"shard link failed: {exc}"))


class RouterThread:
    """Run a router on a dedicated event-loop thread.

    The synchronous mirror of
    :class:`~repro.serve.gateway.GatewayThread`, for the CLI and bench
    harnesses that drive a :class:`~repro.serve.shard.ShardCluster` from
    a plain thread.
    """

    def __init__(self, router: FrontRouter) -> None:
        self.router = router
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        """Start the loop thread and the router; returns the bound address."""
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.router.address

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            try:
                await self.router.start()
            except BaseException as exc:  # surface bind errors to start()
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.router.wait_closed()

        try:
            self._loop.run_until_complete(main())
        finally:
            # Open connection handlers may still be parked in readline();
            # cancel them so the loop closes without destroying tasks.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    def stop(self) -> None:
        """Stop the router and join the thread."""
        if self._loop is None or self._thread is None:
            return
        if not self.router._closed.is_set():
            _drive_stop_from_thread(
                self.router.stop, self.router._closed, self._loop, self._thread
            )
        self._thread.join(timeout=30)
