"""Start the serving side of one workload as its own process.

Usage (the benchmark driver spawns it; not meant to be run by hand)::

    python3 perfbench/launcher.py --workload NAME [--cpu N] [--trace 0|1]
                                  [--inputs FILE --seed N] [--probe]

Lines written to standard output, in order:

* ``IMPORT <seconds>`` — time spent importing the program;
* ``gateway listening on HOST:PORT`` / ``router listening on ...`` or
  ``READY`` (``online``);
* after shutdown, ``TRACE <json>`` with the in-memory spans when traced,
  and ``RESULT <json>`` with the session outcome for ``online``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from procstat import peak_rss_mb, pin  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import HOLD_FACTOR, INSTANCE_SEED, SHARDS, WORKLOADS  # noqa: E402


def _emit(tag: str, payload: object) -> None:
    print(f"{tag} {json.dumps(payload, separators=(',', ':'))}", flush=True)


def _instance():
    """Import what building the instance needs, report the time spent
    importing so far, and build the ``repro serve --seed 0`` instance."""
    from repro.experiments.runner import make_instance  # noqa: PLC0415
    from repro.topology.twotier import TwoTierConfig  # noqa: PLC0415
    from repro.workload.params import PaperDefaults  # noqa: PLC0415

    print(f"IMPORT {time.perf_counter() - _STARTED}", flush=True)
    return make_instance(TwoTierConfig(), PaperDefaults(), INSTANCE_SEED, 0)


def serve_gateway(tracer: Tracer | None) -> None:
    """One ``AdmissionGateway`` built from ``GatewayConfig``."""
    import asyncio  # noqa: PLC0415

    from repro.serve import AdmissionGateway, GatewayConfig  # noqa: PLC0415

    instance = _instance()
    if tracer is not None:
        install(tracer)
    gateway = AdmissionGateway(instance, GatewayConfig(hold_factor=HOLD_FACTOR))

    async def run() -> None:
        await gateway.start()
        host, port = gateway.address
        print(f"gateway listening on {host}:{port}", flush=True)
        await gateway.wait_closed()

    asyncio.run(run())


def serve_sharded(tracer: Tracer | None) -> None:
    """Front router + shard gateways on loop threads of this process."""
    from repro.serve import (  # noqa: PLC0415
        GatewayConfig,
        RouterConfig,
        ShardCluster,
        ShardPlan,
    )

    instance = _instance()
    if tracer is not None:
        install(tracer)
    cluster = ShardCluster(
        instance,
        ShardPlan.build(instance, SHARDS),
        GatewayConfig(hold_factor=HOLD_FACTOR),
        RouterConfig(),
    )
    try:
        host, port = cluster.start()
        print(f"router listening on {host}:{port}", flush=True)
        # Returns once a shutdown request has stopped the router; the
        # join is interrupted to run the tracer's signal handlers.
        cluster.wait()
    finally:
        cluster.stop()


def run_online(inputs: str, seed: int, probe: bool, tracer: Tracer | None) -> None:
    """Build the instance from the generated queries and replay them."""
    from repro.core.instance import ProblemInstance  # noqa: PLC0415
    from repro.core.online import OnlineConfig, OnlineSession, appro_rule  # noqa: PLC0415
    from repro.io.serialize import query_from_dict  # noqa: PLC0415
    from repro.sim.engine import Simulator  # noqa: PLC0415

    base = _instance()
    with open(inputs) as fh:
        queries = [query_from_dict(q) for q in json.load(fh)]
    instance = ProblemInstance(
        base.topology, base.datasets, queries, base.max_replicas
    )
    print("READY", flush=True)
    if probe:
        return
    timings: dict = {}
    if tracer is not None:
        install(tracer)
        timings = _count_arrivals(Simulator)
    session = OnlineSession(OnlineConfig(seed=seed))
    if tracer is not None:
        tracer.start()
    cpu_started = time.process_time()
    started = time.perf_counter()
    report = session.run(instance, appro_rule)
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    if tracer is not None:
        tracer.stop()
    _emit(
        "RESULT",
        {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "rss_mb": peak_rss_mb(os.getpid()),
            "admitted_volume_gb": report.admitted_volume_gb,
            "outcomes": [
                [o.query_id, o.admitted, o.volume_gb] for o in report.outcomes
            ],
            **timings,
        },
    )


def _count_arrivals(simulator: type) -> dict:
    """Wrap ``Simulator`` to time each arrival's decision and count the
    events it processes.  The session schedules every arrival before it
    runs the simulator, so actions scheduled outside ``run`` are arrivals
    and the rest are hold releases.  Returns the dict the wrappers fill
    (``decide_s``: seconds per arrival, ``events``: events processed)."""
    timings: dict = {"decide_s": [], "events": 0}
    decide_s = timings["decide_s"]
    schedule, run = simulator.schedule, simulator.run
    clock = time.perf_counter

    def timed_schedule(self, at, action):
        if not getattr(self, "_bench_running", False):
            inner = action

            def action() -> None:
                started = clock()
                inner()
                decide_s.append(clock() - started)

        schedule(self, at, action)

    def counted_run(self, *args, **kwargs):
        self._bench_running = True
        before = self.events_processed
        try:
            return run(self, *args, **kwargs)
        finally:
            self._bench_running = False
            timings["events"] += self.events_processed - before

    simulator.schedule = timed_schedule
    simulator.run = counted_run
    return timings


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    pin(0, args.cpu)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None and workload.mode != "online":
        tracer.listen_for_signals()
    if workload.mode == "gateway":
        serve_gateway(tracer)
    elif workload.mode == "sharded":
        serve_sharded(tracer)
    else:
        run_online(args.inputs, args.seed, args.probe, tracer)
    if tracer is not None:
        _emit("TRACE", tracer.dump())


if __name__ == "__main__":
    main()
