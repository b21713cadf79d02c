"""End-to-end admission benchmark.

Usage::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` in turn) through the program's public
entry points: the serving side in its own process (``launcher.py``),
this process as the one-connection load generator, each pinned to its
own CPU.  Every answer is checked by ``checker.py``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the
per-layer metrics with ``--trace 1``).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launcher.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, os.path.join(ROOT, "src"))

from checker import Oracle, Tally, check_online, check_run  # noqa: E402
from loadgen import Connection, Phase, closed_loop, open_loop  # noqa: E402
from procstat import cpu_seconds, peak_rss_mb, pin, plan_cpus, steal_seconds  # noqa: E402
from workloads import INSTANCE_SEED, WARMUP, WARMUP_SEED, WINDOW, WORKLOADS, Workload  # noqa: E402

clock = time.perf_counter

#: Setup probes per run before the measured server starts; its own
#: start is one more sample, and ``setup_s`` is the median.
SETUP_PROBES = 4
#: A closed-loop phase in which the server was busy for less than this
#: share of the CPU time it was offered (wall time minus hypervisor
#: steal) waited for the client: the client set the pace, and the run is
#: refused.
MIN_SERVER_BUSY = 0.80
#: How long holds may take to lapse after the last answer.
DRAIN_TIMEOUT_S = 15.0

#: End-to-end metrics (untraced runs): name -> unit.  Open-loop latency
#: is not among them: on the reference host its run-to-run spread is set
#: by hypervisor stalls, far beyond any usable bound (see README.md), so
#: it is reported with the per-layer metrics, unbounded.
END_TO_END = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "admitted_gb_per_s": "GB/s",
    "admitted_gb": "GB",
    "rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.  A layer the workload
#: does not run reads 0.
PER_LAYER = {
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.response_bytes": "bytes",
    "instance.latency_vector_calls_per_submit": "count",
    "instance.latency_vector_us": "us",
    "state.total_allocated_us": "us",
    "batcher.wait_us_p50": "us",
    "batcher.wait_us_p99": "us",
    "batcher.batch_size": "count",
    "screen.us_per_batch": "us",
    "screen.pairs_per_batch": "count",
    "screen.pass_ratio": "ratio",
    "state.transaction_us": "us",
    "state.serve_us": "us",
    "state.release_us": "us",
    "state.available_array_us": "us",
    "state.rollback_ratio": "ratio",
    "router.route_us": "us",
    "router.shard_rpc_us": "us",
    "router.cross_shard_ratio": "ratio",
    "router.commit_ratio": "ratio",
    "router.copies_per_dataset_max": "count",
    "online.decide_us": "us",
    "sim.events_per_arrival": "count",
    "server.cpu_us_per_decision": "us",
    "server.busy_ratio": "ratio",
    "loadgen.busy_ratio": "ratio",
    "loadgen.late_ms_p99": "ms",
    "loadgen.latency_p50_ms": "ms",
    "loadgen.latency_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
    "setup.import_share": "ratio",
}


class InvalidRun(RuntimeError):
    """The run measured another regime than the workload declares."""


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything generated from the seed, before any timing."""

    oracle: Oracle
    queries: list[dict]
    lines: list[bytes]


def make_inputs(workload: Workload, seed: int, count: int) -> Inputs:
    """The seeded query stream (``QueryFactory``), encoded once."""
    from repro.experiments.runner import make_instance  # noqa: PLC0415
    from repro.io.serialize import query_to_dict  # noqa: PLC0415
    from repro.serve import QueryFactory  # noqa: PLC0415
    from repro.topology.twotier import TwoTierConfig  # noqa: PLC0415
    from repro.workload.params import PaperDefaults  # noqa: PLC0415

    instance = make_instance(TwoTierConfig(), PaperDefaults(), INSTANCE_SEED, 0)
    params = PaperDefaults()
    if workload.deadline_s_per_gb is not None:
        params = PaperDefaults(deadline_s_per_gb=workload.deadline_s_per_gb)
    # The warmup stream is the same for every seed: the replicas its
    # admissions place persist, so every seed is measured from one layout.
    warmup = QueryFactory(instance, seed=WARMUP_SEED, params=params)
    factory = QueryFactory(instance, seed=seed, params=params)
    queries = [query_to_dict(warmup.make()) for _ in range(min(count, WARMUP))]
    for qid in range(len(queries), count):
        query = query_to_dict(factory.make())
        query["query_id"] = qid
        query["name"] = f"load-{qid}"
        queries.append(query)
    lines = [
        b'{"op":"submit","id":%d,"query":%s}\n'
        % (q["query_id"], json.dumps(q, separators=(",", ":")).encode())
        for q in queries
    ]
    topology = instance.topology
    oracle = Oracle(
        proc_delay={v: topology.proc_delay(v) for v in topology.placement_nodes},
        links=topology.link_delays,
        volumes={d: ds.volume_gb for d, ds in instance.datasets.items()},
        max_replicas=instance.max_replicas,
    )
    return Inputs(oracle=oracle, queries=queries, lines=lines)


# -- the serving process -----------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    setup_s: float
    import_s: float
    host: str = ""
    port: int = 0
    conn: Connection | None = None

    def stop(self) -> str:
        """Shut down over the wire; return the rest of its output."""
        try:
            if self.conn is not None and self.proc.poll() is None:
                self.conn.request({"op": "shutdown", "id": -2})
                self.conn.close()
            out, _ = self.proc.communicate(timeout=60)
            return out
        finally:
            kill(self.proc)


def kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _read_until(proc: subprocess.Popen, marker: str) -> tuple[str, float]:
    """Read lines until one contains ``marker``; return it and the import time."""
    import_s = float("nan")
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited before {marker!r} (code {proc.wait()})")
        if line.startswith("IMPORT "):
            import_s = float(line.split()[1])
        if marker in line:
            return line, import_s


def spawn(workload: Workload, cpu: int | None, trace: int, extra: tuple = ()) -> Server:
    """Start the serving process; setup ends at its first answered request
    (the ``READY`` line for the online session)."""
    cmd = [sys.executable, LAUNCHER, "--workload", workload.name, "--trace", str(trace)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    started = clock()
    proc = subprocess.Popen(
        [*cmd, *extra], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    try:
        if workload.mode == "online":
            _, import_s = _read_until(proc, "READY")
            return Server(proc=proc, setup_s=clock() - started, import_s=import_s)
        line, import_s = _read_until(proc, "listening on ")
        host, port = line.split("listening on ")[1].split()[0].rsplit(":", 1)
        conn = Connection(host, int(port))
        conn.request({"op": "status", "id": -1})
        return Server(
            proc=proc,
            setup_s=clock() - started,
            import_s=import_s,
            host=host,
            port=int(port),
            conn=conn,
        )
    except BaseException:
        kill(proc)
        raise


def probe_setup(workload: Workload, cpu: int | None, extra: tuple = ()) -> list[tuple[float, float]]:
    """Start and stop the serving process ``SETUP_PROBES`` times; return
    each start's ``(setup_s, import_s)``."""
    samples = []
    for _ in range(SETUP_PROBES):
        server = spawn(workload, cpu, 0, extra)
        server.stop()
        samples.append((server.setup_s, server.import_s))
    return samples


# -- TCP workloads -----------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def own_cpu() -> float:
    t = os.times()
    return t.user + t.system


def drain(server: Server, sharded: bool) -> dict:
    """Wait until every hold lapsed; return the final status."""
    deadline = clock() + DRAIN_TIMEOUT_S
    while True:
        status = server.conn.request({"op": "status", "id": -3})
        shards = status.get("shards", []) if sharded else [status]
        busy = sum(
            s.get("inflight_queries", 0) + s.get("two_phase", {}).get("pending", 0)
            for s in shards
        )
        if busy == 0 or clock() > deadline:
            return status
        time.sleep(0.05)


def check_conservation(status: dict, tally: Tally, sharded: bool) -> None:
    """Client tallies equal the program's counters; once holds lapse no
    query is in flight and allocated compute is back to ~0."""
    if sharded:
        counters = status["router"]
        pairs = [
            ("submitted", tally.attempted),
            ("admitted", tally.admitted),
            ("rejected", tally.rejected),
            ("shed", tally.shed),
        ]
        shards = status["shards"]
    else:
        counters = status["counters"]
        pairs = [
            ("submitted", tally.attempted),
            ("admitted", tally.admitted),
            ("rejected", tally.rejected - tally.fast_rejected),
            ("fast_rejected", tally.fast_rejected),
            ("shed", tally.shed),
        ]
        shards = [status]
    for name, seen in pairs:
        if counters[name] != seen:
            tally.error(f"counter {name}={counters[name]} but the client saw {seen}")
    for shard in shards:
        if shard["inflight_queries"] != 0:
            tally.error(f"{shard['inflight_queries']} queries in flight after holds lapsed")
        if abs(shard["inflight_ghz"]) > 1e-6:
            tally.error(f"{shard['inflight_ghz']} GHz allocated after holds lapsed")


@dataclass
class TcpPass:
    """One serving process driven through warmup, closed and open phases."""

    setup_s: float
    import_s: float
    closed: Phase
    open: Phase
    tally: Tally
    closed_tally: Tally
    status: dict
    rss_mb: float
    server_cpu_closed: float
    steal_closed: float
    own_cpu_closed: float
    server_cpu_window: float
    trace: dict | None

    @property
    def busy(self) -> float:
        """Server CPU over the CPU time it was offered in the closed loop
        (wall time less hypervisor steal on its CPU)."""
        return self.server_cpu_closed / (self.closed.wall_s - self.steal_closed)


def tcp_pass(
    workload: Workload, inputs: Inputs, seed: int, seconds: float, cpus, trace: int
) -> TcpPass:
    """Spawn the server, run warmup, closed and open phases, drain, check."""
    import numpy as np  # noqa: PLC0415

    sharded = workload.mode == "sharded"
    server = spawn(workload, cpus[0], trace)
    try:
        pid = server.proc.pid
        lines = inputs.lines
        warm, n_closed = WARMUP, workload.closed_count(seconds)
        n_open = workload.open_count(seconds)
        rng = np.random.default_rng([seed, 7])
        offsets = np.cumsum(rng.exponential(1.0 / workload.open_rate, n_open)).tolist()
        conn = Connection(server.host, server.port)
        # A collection pass in the load generator would make it late.
        gc.collect()
        gc.disable()
        try:
            warmup = closed_loop(conn, lines[:warm], 0, WINDOW)
            if trace:
                os.kill(pid, signal.SIGUSR1)
            cpu0, own0, steal0 = cpu_seconds(pid), own_cpu(), steal_seconds(cpus[0])
            closed = closed_loop(conn, lines[warm : warm + n_closed], warm, WINDOW)
            cpu1, own1, steal1 = cpu_seconds(pid), own_cpu(), steal_seconds(cpus[0])
            opened = open_loop(conn, lines[warm + n_closed :], warm + n_closed, offsets)
            cpu2 = cpu_seconds(pid)
            if trace:
                os.kill(pid, signal.SIGUSR2)
        finally:
            gc.enable()
            conn.close()
        status = drain(server, sharded)
        rss = peak_rss_mb(pid)
        out = server.stop()
    except BaseException:
        kill(server.proc)
        raise
    answers: dict[int, dict] = {}
    for phase in (warmup, closed, opened):
        for rid, raw in phase.answers.items():
            answers[phase.first + rid] = json.loads(raw)
    duplicates = warmup.duplicates + closed.duplicates + opened.duplicates
    shards = (
        [s["shard"]["nodes"] for s in status["shards"]] if sharded else None
    )
    tally = check_run(inputs.oracle, inputs.queries, answers, duplicates, shards)
    check_conservation(status, tally, sharded)
    closed_tally = check_run(
        inputs.oracle,
        inputs.queries[warm : warm + n_closed],
        {rid: answers[warm + rid] for rid in closed.answers},
    )
    return TcpPass(
        setup_s=server.setup_s,
        import_s=server.import_s,
        closed=closed,
        open=opened,
        tally=tally,
        closed_tally=closed_tally,
        status=status,
        rss_mb=rss,
        server_cpu_closed=cpu1 - cpu0,
        steal_closed=steal1 - steal0,
        own_cpu_closed=own1 - own0,
        server_cpu_window=cpu2 - cpu0,
        trace=_parse_tagged(out, "TRACE") if trace else None,
    )


def _parse_tagged(out: str, tag: str) -> dict:
    for line in out.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1 :])
    raise RuntimeError(f"server wrote no {tag} line")


def check_validity(workload: Workload, tally: Tally, busy: float | None) -> None:
    """Refuse a run that measured another regime than declared.  ``busy``
    is ``None`` where no client sets the pace (the in-process session)."""
    if busy is not None and busy < MIN_SERVER_BUSY:
        raise InvalidRun(
            f"{workload.name}: server busy {busy:.2f} < {MIN_SERVER_BUSY} of its "
            "offered CPU in the closed loop; the client set the pace"
        )
    if tally.decided:
        ratio = tally.admitted / tally.decided
        low, high = workload.admit_band
        if not low <= ratio <= high:
            raise InvalidRun(
                f"{workload.name}: admit ratio {ratio:.3f} outside its band [{low}, {high}]"
            )


def tcp_metrics(p: TcpPass) -> dict[str, float]:
    closed = p.closed
    return {
        "decisions_per_s": len(closed.answers) / closed.wall_s,
        "admitted_gb_per_s": p.closed_tally.admitted_gb / closed.wall_s,
        "admitted_gb": p.tally.admitted_gb,
        "rss_mb": p.rss_mb,
    }


def process_metrics(p: TcpPass) -> dict[str, float]:
    opened = p.open
    late = [(opened.sent[i] - opened.due[i]) * 1e3 for i in range(opened.count)]
    latencies = [(opened.answered[i] - opened.due[i]) * 1e3 for i in opened.answers]
    return {
        "server.cpu_us_per_decision": p.server_cpu_closed / len(p.closed.answers) * 1e6,
        "server.busy_ratio": p.busy,
        "loadgen.busy_ratio": p.own_cpu_closed / p.closed.wall_s,
        "loadgen.late_ms_p99": quantile(late, 0.99),
        "loadgen.latency_p50_ms": quantile(latencies, 0.50),
        "loadgen.latency_p99_ms": quantile(latencies, 0.99),
    }


def run_tcp(workload: Workload, seed: int, seconds: float, trace: int, cpus) -> "Result":
    total = workload.total_submits(seconds)
    if trace:
        inputs, samples = make_inputs(workload, seed, total), []
    else:
        # The probes run on the server's CPU while this one makes the inputs.
        with ThreadPoolExecutor(1) as pool:
            probes = pool.submit(probe_setup, workload, cpus[0])
            inputs = make_inputs(workload, seed, total)
            samples = probes.result()
    untraced = tcp_pass(workload, inputs, seed, seconds, cpus, 0)
    samples.append((untraced.setup_s, untraced.import_s))
    setup_s = statistics.median(s for s, _ in samples)
    import_s = statistics.median(i for _, i in samples)
    check_validity(workload, untraced.tally, untraced.busy)
    e2e = {"setup_s": setup_s, **tcp_metrics(untraced)}
    info = {
        **process_metrics(untraced),
        "setup.import_share": import_s / setup_s,
        "admit_ratio": untraced.tally.admitted / max(1, untraced.tally.decided),
        "copies_per_dataset_max": untraced.tally.copies_max,
        "setup_samples": len(samples),
    }
    tallies = [untraced.tally]
    layers = None
    if trace:
        traced = tcp_pass(workload, inputs, seed, seconds, cpus, 1)
        tallies.append(traced.tally)
        layers = layer_metrics(traced, e2e)
        layers.update({k: v for k, v in info.items() if k in PER_LAYER})
    return Result(workload.name, e2e, layers, info, tallies)


def _span_stats(trace: dict):
    spans = trace["spans"]

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0))[0]

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    def per_call_us(name: str) -> float:
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    return calls, total, per_call_us


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def common_layers(trace: dict, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of the ``core`` rule and ``cluster.state``."""
    calls, _, per_call_us = _span_stats(trace)
    return {
        "state.transaction_us": per_call_us("state.transaction"),
        "state.serve_us": per_call_us("state.serve"),
        "state.release_us": per_call_us("state.release"),
        "state.available_array_us": per_call_us("state.available_array"),
        "state.rollback_ratio": _ratio(
            trace["counts"].get("state.rollbacks", 0), calls("state.transaction")
        ),
        "trace.unattributed_ratio": 1.0 - trace["covered_s"] / cpu_s,
    }


def layer_metrics(traced: TcpPass, e2e: dict) -> dict:
    trace = traced.trace
    calls, total, per_call_us = _span_stats(trace)
    counts, samples = trace["counts"], trace["samples"]
    submits = traced.closed.count + traced.open.count
    decodes = calls("protocol.decode_request")
    batches = counts.get("screen.batches", 0)
    waits = samples.get("batcher.wait_s", [])
    router = traced.status.get("router", {})
    screen_s = sum(
        total(n)
        for n in (
            "screen.build_rows",
            "screen.snapshot_state",
            "screen.screen_rows",
            "screen.verdicts",
        )
    )
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(
        {
            "protocol.decode_us": _ratio(
                total("protocol.decode_request") + total("protocol.parse_submit_query"),
                decodes,
            )
            * 1e6,
            "protocol.encode_us": per_call_us("protocol.encode"),
            "protocol.response_bytes": _ratio(
                counts.get("protocol.response_bytes", 0), calls("protocol.encode")
            ),
            "instance.latency_vector_calls_per_submit": calls("instance.latency_vector") / submits,
            "instance.latency_vector_us": per_call_us("instance.latency_vector"),
            "state.total_allocated_us": per_call_us("state.total_allocated"),
            "batcher.wait_us_p50": quantile(waits, 0.50) * 1e6 if waits else 0.0,
            "batcher.wait_us_p99": quantile(waits, 0.99) * 1e6 if waits else 0.0,
            "batcher.batch_size": _ratio(
                counts.get("batcher.items", 0), counts.get("batcher.batches", 0)
            ),
            "screen.us_per_batch": _ratio(screen_s, batches) * 1e6,
            "screen.pairs_per_batch": _ratio(counts.get("screen.pairs", 0), batches),
            "screen.pass_ratio": _ratio(
                counts.get("screen.passed", 0), counts.get("screen.queries", 0)
            ),
            "router.route_us": _ratio(total("router.dispatch"), submits) * 1e6,
            "router.shard_rpc_us": per_call_us("router.shard_rpc"),
            "router.cross_shard_ratio": _ratio(
                router.get("routed_cross", 0), router.get("submitted", 0)
            ),
            "router.commit_ratio": _ratio(
                router.get("two_phase_commits", 0), router.get("routed_cross", 0)
            ),
            "router.copies_per_dataset_max": traced.tally.copies_max,
            "trace.overhead_ratio": _ratio(
                len(traced.closed.answers) / traced.closed.wall_s, e2e["decisions_per_s"]
            ),
        }
    )
    layers.update(common_layers(trace, traced.server_cpu_window))
    return layers


# -- the online session --------------------------------------------------------


def online_pass(workload: Workload, cpus, trace: int, extra: tuple) -> tuple[Server, dict]:
    server = spawn(workload, cpus[0], trace, extra)
    own0, started = own_cpu(), clock()
    out = server.stop()
    result = _parse_tagged(out, "RESULT")
    result["loadgen_busy"] = (own_cpu() - own0) / (clock() - started)
    if trace:
        result["trace"] = _parse_tagged(out, "TRACE")
    return server, result


def run_online(workload: Workload, seed: int, seconds: float, trace: int, cpus) -> "Result":
    count = workload.total_submits(seconds)
    inputs = make_inputs(workload, seed, count)
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"online-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(inputs.queries, fh)
    extra = ("--inputs", path, "--seed", str(seed))
    samples: list[tuple[float, float]] = []
    try:
        if not trace:
            samples = probe_setup(workload, cpus[0], (*extra, "--probe"))
        server, result = online_pass(workload, cpus, 0, extra)
        samples.append((server.setup_s, server.import_s))
        traced = online_pass(workload, cpus, 1, extra)[1] if trace else None
    finally:
        os.remove(path)
    tallies = []
    for res in (result, traced):
        if res is not None:
            tallies.append(
                check_online(inputs.oracle, inputs.queries, res["outcomes"], res["admitted_volume_gb"])
            )
    tally = tallies[0]
    setup_s = statistics.median(s for s, _ in samples)
    import_s = statistics.median(i for _, i in samples)
    wall_s = result["wall_s"]
    e2e = {
        "setup_s": setup_s,
        "decisions_per_s": len(result["outcomes"]) / wall_s,
        "admitted_gb_per_s": tally.admitted_gb / wall_s,
        "admitted_gb": tally.admitted_gb,
        "rss_mb": result["rss_mb"],
    }
    info = {
        "server.cpu_us_per_decision": result["cpu_s"] / count * 1e6,
        "server.busy_ratio": result["cpu_s"] / wall_s,
        "loadgen.busy_ratio": result["loadgen_busy"],
        "loadgen.late_ms_p99": 0.0,
        "loadgen.latency_p50_ms": 0.0,
        "loadgen.latency_p99_ms": 0.0,
        "setup.import_share": import_s / setup_s,
        "admit_ratio": tally.admitted / max(1, tally.decided),
        "setup_samples": len(samples),
    }
    check_validity(workload, tally, None)
    layers = None
    if traced is not None:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update({k: v for k, v in info.items() if k in PER_LAYER})
        layers.update(common_layers(traced["trace"], traced["cpu_s"]))
        decide = traced["decide_s"]
        layers["online.decide_us"] = statistics.fmean(decide) * 1e6
        layers["sim.events_per_arrival"] = traced["events"] / len(decide)
        layers["trace.overhead_ratio"] = (
            len(traced["outcomes"]) / traced["wall_s"]
        ) / e2e["decisions_per_s"]
    return Result(workload.name, e2e, layers, info, tallies)


# -- output ------------------------------------------------------------------


@dataclass
class Result:
    workload: str
    e2e: dict[str, float]
    layers: dict[str, float] | None
    info: dict[str, float]
    tallies: list[Tally]

    @property
    def correct(self) -> bool:
        return not any(t.errors for t in self.tallies)

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.tallies)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies)

    def metrics(self) -> dict[str, dict]:
        if self.layers is not None:
            return {k: {"value": self.layers[k], "unit": u} for k, u in PER_LAYER.items()}
        return {k: {"value": self.e2e[k], "unit": u} for k, u in END_TO_END.items()}

    def line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics(),
        }


def describe(result: Result, host_cpus: int, cpus) -> None:
    """Human-readable lines ahead of the JSON result."""
    placement = (
        f"server on CPU {cpus[0]}, load generator on CPU {cpus[1]}"
        if cpus[0] is not None
        else "unpinned (fewer than 2 usable CPUs)"
    )
    print(f"[{result.workload}] host CPUs {host_cpus}; {placement}")
    for key, value in {**result.e2e, **result.info}.items():
        print(f"[{result.workload}]   {key:28s} {value:.6g}")
    for tally in result.tallies:
        print(
            f"[{result.workload}]   attempted {tally.attempted}: admitted {tally.admitted}, "
            f"rejected {tally.rejected} ({tally.fast_rejected} deadline-infeasible), "
            f"shed {tally.shed}, missing {tally.missing}, duplicates {tally.duplicates}, "
            f"not ok {tally.not_ok}; max serving copies per dataset {tally.copies_max}"
        )
        for error in tally.errors:
            print(f"[{result.workload}]   CHECK FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src: nothing to measure", file=sys.stderr)
        return 2
    server_cpu, loadgen_cpu, host_cpus = plan_cpus()
    cpus = (server_cpu, loadgen_cpu)
    pin(0, loadgen_cpu)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        runner = run_online if workload.mode == "online" else run_tcp
        try:
            result = runner(workload, args.seed, args.seconds, args.trace, cpus)
        except InvalidRun as exc:
            print(f"invalid run: {exc}", file=sys.stderr)
            return 3
        describe(result, host_cpus, cpus)
        # One workload prints exactly the result object; ``all`` prints one
        # per workload, each naming its workload.
        line = result.line() if len(names) == 1 else {"workload": name, **result.line()}
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
