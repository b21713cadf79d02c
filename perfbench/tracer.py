"""In-memory spans and counts around the program's layer entry points.

:func:`install` wraps the public functions each layer exposes, in the
module namespaces where the gateway and the router look them up, so the
program runs unmodified.  Aggregates stay in memory; the launcher writes
them out once, at shutdown.  The parent benchmark turns them into the
per-layer metrics (see ``README.md``).

Recording starts on ``SIGUSR1`` and stops on ``SIGUSR2``, which the
benchmark sends at the edges of its timed phases, so the spans cover
the same window as the CPU time it reads from ``/proc``.
"""

from __future__ import annotations

import contextlib
import functools
import signal
import threading
import time
from collections import defaultdict
from typing import Any, Callable

perf_counter = time.perf_counter
thread_time = time.thread_time


class Tracer:
    """Span totals, samples and counts, recorded only while ``on``."""

    def __init__(self) -> None:
        self.on = False
        #: name -> [calls, seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        #: Wall time of outermost spans (no enclosing span on the thread).
        self.covered_s = 0.0
        self._local = threading.local()

    def start(self, *_: Any) -> None:
        self.spans.clear()
        self.samples.clear()
        self.counts.clear()
        self.covered_s = 0.0
        self.on = True

    def stop(self, *_: Any) -> None:
        self.on = False

    def listen_for_signals(self) -> None:
        signal.signal(signal.SIGUSR1, self.start)
        signal.signal(signal.SIGUSR2, self.stop)

    def dump(self) -> dict[str, Any]:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counts": dict(self.counts),
            "covered_s": self.covered_s,
        }

    # -- wrappers ----------------------------------------------------------

    def span(
        self,
        name: str,
        fn: Callable,
        after: Callable[[Any, tuple], None] | None = None,
    ) -> Callable:
        """Wrap a synchronous callable in a span; ``after(result, args)``
        records counts from its result."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                local.depth = depth
                record = self.spans[name]
                record[0] += 1
                record[1] += elapsed
                if depth == 0:
                    self.covered_s += elapsed
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def transaction(self, orig: Callable) -> Callable:
        """Wrap ``ClusterState.transaction``: time from entry to exit, and
        count transactions that rolled back."""
        local = self._local

        @contextlib.contextmanager
        @functools.wraps(orig)
        def wrapper(state):
            if not self.on:
                with orig(state) as txn:
                    yield txn
                return
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            started = perf_counter()
            txn = None
            try:
                with orig(state) as txn:
                    yield txn
            finally:
                elapsed = perf_counter() - started
                local.depth = depth
                record = self.spans["state.transaction"]
                record[0] += 1
                record[1] += elapsed
                if depth == 0:
                    self.covered_s += elapsed
                if txn is None or not txn.committed:
                    self.counts["state.rollbacks"] += 1

        return wrapper

    def rpc(self, name: str, orig: Callable) -> Callable:
        """Wrap an async request: wall time from call to answer.  Waiting
        is not work, so these spans add nothing to ``covered_s``."""

        @functools.wraps(orig)
        async def wrapper(*args, **kwargs):
            if not self.on:
                return await orig(*args, **kwargs)
            started = perf_counter()
            try:
                return await orig(*args, **kwargs)
            finally:
                record = self.spans[name]
                record[0] += 1
                record[1] += perf_counter() - started

        return wrapper

    def steps(self, name: str, orig: Callable) -> Callable:
        """Wrap a coroutine function: sum the thread CPU time of its
        steps between suspensions (the work done outside awaited RPCs)."""

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            coro = orig(*args, **kwargs)
            if not self.on:
                return coro
            return _drive(_StepTimed(self, name, coro))

        return wrapper


async def _drive(awaitable: "_StepTimed") -> Any:
    return await awaitable


class _StepTimed:
    """Awaitable driving a coroutine step by step, timing each step."""

    def __init__(self, tracer: Tracer, name: str, coro: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def __await__(self):
        coro, total = self._coro, 0.0
        local = self._tracer._local
        value: Any = None
        error: BaseException | None = None
        try:
            while True:
                depth = getattr(local, "depth", 0)
                local.depth = depth + 1
                started = thread_time()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    total += thread_time() - started
                    local.depth = depth
                try:
                    value, error = (yield yielded), None
                except BaseException as exc:  # relayed into the coroutine
                    value, error = None, exc
        finally:
            record = self._tracer.spans[self._name]
            record[0] += 1
            record[1] += total
            self._tracer.covered_s += total


# -- installation ------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.serve.gateway as gateway  # noqa: PLC0415
    from repro.cluster.state import ClusterState  # noqa: PLC0415
    from repro.core.instance import ProblemInstance  # noqa: PLC0415
    from repro.serve.batcher import MicroBatcher  # noqa: PLC0415
    from repro.serve.client import GatewayClient  # noqa: PLC0415
    from repro.serve.router import FrontRouter  # noqa: PLC0415

    counts = tracer.counts

    def after_decode(request: dict, _args: tuple) -> None:
        if request.get("op") == "submit":
            counts["gateway.submits"] += 1

    def after_encode(line: bytes, _args: tuple) -> None:
        counts["protocol.response_bytes"] += len(line)

    def after_rows(rows: Any, _args: tuple) -> None:
        counts["screen.pairs"] += len(rows)
        counts["screen.batches"] += 1

    def after_verdicts(verdicts: list, _args: tuple) -> None:
        counts["screen.queries"] += len(verdicts)
        counts["screen.passed"] += sum(1 for v in verdicts if v)

    # Protocol codec, in the gateway's namespace.
    gateway.decode_request = tracer.span(
        "protocol.decode_request", gateway.decode_request, after_decode
    )
    gateway.parse_submit_query = tracer.span(
        "protocol.parse_submit_query", gateway.parse_submit_query
    )
    gateway.encode_message = tracer.span(
        "protocol.encode", gateway.encode_message, after_encode
    )
    # Screen kernel, in the gateway's namespace.
    gateway.build_rows = tracer.span("screen.build_rows", gateway.build_rows, after_rows)
    gateway.snapshot_state = tracer.span("screen.snapshot_state", gateway.snapshot_state)
    gateway.screen_rows = tracer.span("screen.screen_rows", gateway.screen_rows)
    gateway.verdicts_from_pairs = tracer.span(
        "screen.verdicts", gateway.verdicts_from_pairs, after_verdicts
    )
    # Instance latency vectors (fast-reject and probe cache misses).
    ProblemInstance.pair_latency_vector = tracer.span(
        "instance.latency_vector", ProblemInstance.pair_latency_vector
    )
    # Cluster state.
    ClusterState.transaction = tracer.transaction(ClusterState.transaction)
    for method, name in (
        ("serve", "state.serve"),
        ("release", "state.release"),
        ("available_array", "state.available_array"),
        ("total_allocated", "state.total_allocated"),
    ):
        setattr(ClusterState, method, tracer.span(name, getattr(ClusterState, method)))
    # Micro-batcher: wait from enqueue to batch start, and batch size.
    next_batch = MicroBatcher.next_batch

    @functools.wraps(next_batch)
    async def traced_next_batch(self):
        batch = await next_batch(self)
        if tracer.on:
            now = perf_counter()
            waits = tracer.samples["batcher.wait_s"]
            for item in batch:
                enqueued = getattr(item, "enqueued_at", None)
                if enqueued is not None:
                    waits.append(now - enqueued)
            counts["batcher.batches"] += 1
            counts["batcher.items"] += len(batch)
        return batch

    MicroBatcher.next_batch = traced_next_batch
    # Router: CPU time of its own steps per request, and shard RPCs.
    FrontRouter._dispatch = tracer.steps("router.dispatch", FrontRouter._dispatch)
    GatewayClient.request = tracer.rpc("router.shard_rpc", GatewayClient.request)
