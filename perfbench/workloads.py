"""Workload definitions shared by the benchmark driver and the launcher.

Every number here is an input the benchmark chooses; the program only
ever sees the instance seed, its config, and the generated queries.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Instance seed of every workload (``repro serve --seed 0``).  The
#: benchmark's ``--seed`` varies the query stream, not the topology, so
#: runs on different seeds measure the same cluster.
INSTANCE_SEED = 0

#: Seed of the warmup queries that open every run.  Replicas persist once
#: placed, so the first admissions fix the replica layout for the rest of
#: the run; a warmup shared by all seeds makes every seed measure the same
#: layout instead of one drawn by its own first few hundred queries.
WARMUP_SEED = 0
#: Submits (arrivals for ``online``) in the warmup.
WARMUP = 1000
#: Closed-loop requests in flight on the one connection: enough that the
#: server always has a backlog, so the loop measures the server.
WINDOW = 64
#: ``GatewayConfig.hold_factor`` of the TCP workloads.  Short holds let
#: capacity recycle, so most submits are admitted and compute stays far
#: below the watermark; with the default 1.0 nearly every cross-shard
#: reservation of ``sharded-2pc`` aborts.
HOLD_FACTOR = 0.01
#: Shard gateways behind the router of ``sharded-2pc``.
SHARDS = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Attributes
    ----------
    name:
        Workload name on the command line.
    mode:
        How the serving side is started: ``gateway``
        (``AdmissionGateway`` + ``GatewayConfig``), ``sharded``
        (``ShardCluster``: front router + shard gateways in one process)
        or ``online`` (in-process ``OnlineSession``).
    why:
        One line on what the workload exercises (``BENCHMARK.json``).
    closed_rate:
        Nominal decisions/s on the reference host.  It sizes the closed
        phase (or the arrival stream for ``online``) so that it lasts
        about half of ``--seconds`` (all of it for ``online``); the
        count is fixed, so every run attempts the same operations.
    open_rate:
        Open-loop offered rate (requests/s) over the other half; 0 for
        ``online``, which has no open loop.
    admit_band:
        Declared admit-ratio band of the whole run; a run outside it
        measured another regime and is refused.
    deadline_s_per_gb:
        ``PaperDefaults.deadline_s_per_gb`` of the query stream; ``None``
        keeps the paper default.
    """

    name: str
    mode: str
    why: str
    closed_rate: float
    open_rate: float
    admit_band: tuple[float, float]
    deadline_s_per_gb: tuple[float, float] | None = None

    def _share(self) -> float:
        return 0.5 if self.open_rate else 1.0

    def closed_count(self, seconds: float) -> int:
        return max(1, round(self.closed_rate * self._share() * seconds))

    def open_count(self, seconds: float) -> int:
        return round(self.open_rate * self._share() * seconds)

    def total_submits(self, seconds: float) -> int:
        return WARMUP + self.closed_count(seconds) + self.open_count(seconds)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="admit-heavy",
            mode="gateway",
            why=(
                "short holds and loose deadlines admit most submits, so the "
                "placement rule, ClusterState transactions and holds dominate"
            ),
            deadline_s_per_gb=(0.3, 0.6),
            closed_rate=2500.0,
            open_rate=800.0,
            admit_band=(0.45, 0.90),
        ),
        Workload(
            name="sharded-2pc",
            mode="sharded",
            why=(
                "front router and 2 shard gateways: router classification, "
                "relaying and two-phase reserve/commit/abort"
            ),
            deadline_s_per_gb=(0.3, 0.6),
            closed_rate=1600.0,
            open_rate=500.0,
            admit_band=(0.45, 0.90),
        ),
        Workload(
            name="online-replay",
            mode="online",
            why=(
                "in-process OnlineSession with the appro rule: bypasses serve, "
                "so wire and router changes predict no change here"
            ),
            closed_rate=3000.0,
            open_rate=0.0,
            admit_band=(0.45, 0.75),
        ),
    )
}
