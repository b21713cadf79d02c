"""Online variant: queries arrive over time and release compute on completion.

The paper solves a *static* batch (§2.4 explicitly defers dynamics).  This
extension runs the same placement machinery in an online session:

* queries arrive at Poisson instants;
* an admitted query holds its compute only while it runs (its analytic
  latency scaled by ``hold_factor``), then releases it;
* replicas placed along the way **persist** — they are proactive state
  that keeps serving later arrivals.

Because capacity churns, the primal-dual price term matters more than in
the batch setting: a node that is busy *now* prices itself out, and later
arrivals re-use the freed capacity.  ``OnlineSession`` accepts any
per-pair placement rule; adapters for Appro's kernel and the greedy walk
are provided.

With ``OnlineConfig.faults`` set, the session additionally injects seeded
node crash/recover events (:mod:`repro.sim.faults`) into the same
simulator.  A crash kills the node's replicas and in-flight allocations;
each running query hit by it attempts an all-or-nothing failover of its
lost pairs onto surviving replicas — the same
:func:`repro.core.repair.best_failover_candidate` rule as the static
repair pass — with bounded exponential-backoff retries.  The resulting
:class:`~repro.sim.faults.FaultReport` (availability curve, MTTR,
interrupted vs recovered queries, degraded-admission throughput) rides on
the :class:`OnlineReport`.  With faults disabled the session runs the
exact pre-fault code path, bit for bit.

With ``OnlineConfig.link_faults`` set, the *network* churns too
(:mod:`repro.network.dynamics`): seeded link degrade/sever/restore events
(including correlated partitions) recompute the instance's path cache
under an epoch stamp, so every later admission prices the inflated or
partitioned paths.  Running queries whose serving path is cut — home
unreachable, or the inflated latency bursts the deadline — are re-placed
onto reachable replicas all-or-nothing, and the severed-path invariant
(:meth:`~repro.cluster.state.ClusterState.check_invariants` check 5) is
re-asserted after every event.  The resulting
:class:`~repro.network.dynamics.NetworkReport` rides on the
:class:`OnlineReport`; with link faults disabled the path-cache
generation never moves and the session is bit-identical to before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.cluster.state import ClusterState
from repro.core.greedy import (
    _greedy_place_pair,
    _ship_greedy_place_pair,
    make_sync_greedy_place_pair,
)
from repro.core.instance import ProblemInstance
from repro.core.primal_dual import PrimalDualConfig, _Kernel
from repro.core.repair import best_failover_candidate
from repro.core.types import Assignment, Query
from repro.network.dynamics import (
    LinkEvent,
    LinkFaultConfig,
    LinkState,
    NetworkDynamics,
    NetworkReport,
    build_link_schedule,
)
from repro.obs import get_registry
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultConfig,
    FaultInjector,
    FaultReport,
    build_fault_schedule,
)
from repro.util.rng import spawn_rng
from repro.util.validation import check_positive

__all__ = [
    "OnlineConfig",
    "OnlineOutcome",
    "OnlineReport",
    "OnlineSession",
    "admit",
    "appro_rule",
    "greedy_rule",
    "ship_greedy_rule",
    "sync_greedy_rule",
]


class PlacementRule(Protocol):
    """Per-pair placement rule used by the online session."""

    def __call__(
        self, state: ClusterState, query: Query, dataset_id: int
    ) -> Assignment | None:
        """Serve the pair now, or return ``None`` to refuse."""
        ...


def admit(
    state: ClusterState,
    rule: PlacementRule,
    query: Query,
    dataset_ids: Sequence[int],
    *,
    available: np.ndarray | None = None,
    probe: bool = True,
) -> tuple[Assignment, ...] | None:
    """All-or-nothing admission of ``query``'s ``dataset_ids`` pairs.

    A vectorised pre-probe runs first: a pair with no servable node now
    cannot gain one inside the transaction (capacity only shrinks,
    replica slots are per-dataset and ``dataset_ids`` has no
    duplicates), and ``serve`` enforces exactly the ``can_serve``
    conditions — so when any pair has an all-false
    :meth:`~repro.cluster.state.ClusterState.can_serve_mask`, the
    admission is doomed and the rule/transaction machinery is skipped.
    Otherwise ``rule`` places each pair inside one
    :meth:`~repro.cluster.state.ClusterState.transaction`, committed only
    if every pair is placed.

    ``available`` is a caller-held available-compute vector shared across
    the probes (rebuilt when omitted); ``probe=False`` skips the probe
    when the caller holds a still-exact screen verdict — the rule stays
    the authoritative check.  Returns the assignments in ``dataset_ids``
    order, or ``None`` with every partial placement rolled back.
    """
    instance = state.instance
    if probe:
        if available is None:
            available = state.available_array()
        for d_id in dataset_ids:
            dataset = instance.dataset(d_id)
            if not state.can_serve_mask(query, dataset, available).any():
                return None
    assignments: list[Assignment] = []
    with state.transaction() as txn:
        for d_id in dataset_ids:
            a = rule(state, query, d_id)
            if a is None:
                return None  # uncommitted: the transaction rolls back
            assignments.append(a)
        txn.commit()
    return tuple(assignments)


def appro_rule(
    instance: ProblemInstance, config: PrimalDualConfig | None = None
) -> PlacementRule:
    """The primal-dual kernel as an online rule."""
    kernel = _Kernel(config or PrimalDualConfig(), instance)
    return kernel.place_pair


def greedy_rule(instance: ProblemInstance) -> PlacementRule:
    """The §4.1 greedy walk as an online rule."""
    del instance  # greedy needs no precomputation
    return _greedy_place_pair


def ship_greedy_rule(instance: ProblemInstance) -> PlacementRule:
    """The greedy walk with admission-time replication paying its
    shipping latency against the deadline (see
    :func:`repro.core.greedy._ship_greedy_place_pair`)."""
    del instance  # needs no precomputation
    return _ship_greedy_place_pair


def sync_greedy_rule(instance: ProblemInstance) -> PlacementRule:
    """The greedy walk with the §2.4 consistency tax on new replicas.

    Placing a *new* copy of a write-hot dataset charges the
    update-threshold sync cost (:class:`repro.cluster.consistency.ConsistencyModel`)
    against the pair's deadline — see
    :func:`repro.core.greedy.make_sync_greedy_place_pair`."""
    del instance  # the rule reads the model lazily per dataset
    return make_sync_greedy_place_pair()


@dataclass(frozen=True)
class OnlineConfig:
    """Online-session parameters.

    Attributes
    ----------
    mean_interarrival_s:
        Mean Poisson gap between query arrivals.
    hold_factor:
        Compute hold time = ``hold_factor`` × the query's analytic
        response latency (analytics jobs occupy their allocation for the
        duration of evaluation; >1 models result post-processing).
    seed:
        Arrival-draw seed.
    faults:
        Optional fault-injection parameters; ``None`` (the default) runs
        the fault-free session unchanged.
    link_faults:
        Optional link-dynamics parameters
        (:class:`~repro.network.dynamics.LinkFaultConfig`); ``None`` (the
        default) keeps the network static and the session bit-identical
        to pre-dynamics runs.
    """

    mean_interarrival_s: float = 0.2
    hold_factor: float = 1.0
    seed: int = 0
    faults: FaultConfig | None = None
    link_faults: LinkFaultConfig | None = None

    def __post_init__(self) -> None:
        check_positive("mean_interarrival_s", self.mean_interarrival_s)
        check_positive("hold_factor", self.hold_factor)


@dataclass(frozen=True)
class OnlineOutcome:
    """Decision record for one arrival."""

    query_id: int
    arrival_s: float
    admitted: bool
    volume_gb: float


@dataclass(frozen=True)
class OnlineReport:
    """Aggregate result of one online session.

    Attributes
    ----------
    outcomes:
        Per-arrival decisions, in arrival order.
    admitted_volume_gb:
        Σ volume of admitted queries' demanded datasets.
    throughput:
        Admitted / total arrivals.
    peak_allocated_ghz:
        Maximum total compute held at any instant.
    replicas_placed:
        Replicas beyond origins at session end.
    faults:
        Fault-injection outcome (availability curve, MTTR, interrupted vs
        recovered queries, …); ``None`` when faults were disabled.
    netfaults:
        Link-dynamics outcome (link availability curve, partitions,
        rerouted/interrupted/recovered queries, …); ``None`` when link
        faults were disabled.
    """

    outcomes: tuple[OnlineOutcome, ...]
    admitted_volume_gb: float
    throughput: float
    peak_allocated_ghz: float
    replicas_placed: int
    faults: FaultReport | None = None
    netfaults: NetworkReport | None = None


class _ActiveQuery:
    """Bookkeeping for one admitted query while its hold runs.

    Only maintained when fault injection is on: maps each demanded dataset
    to its live assignment so a crash can identify, evict, and fail over
    exactly the lost pairs.
    """

    __slots__ = ("query", "assignments", "pending", "hit", "lost_at")

    def __init__(self, query: Query, assignments: dict[int, Assignment]) -> None:
        self.query = query
        self.assignments = assignments  # dataset id → live assignment
        self.pending: set[int] = set()  # dataset ids awaiting failover
        self.hit = False  # ever lost a pair to a crash
        self.lost_at = 0.0  # instant of the most recent loss


class OnlineSession:
    """Run a problem instance's queries as an online arrival stream."""

    def __init__(self, config: OnlineConfig | None = None) -> None:
        self.config = config or OnlineConfig()

    def run(
        self,
        instance: ProblemInstance,
        rule_factory: Callable[[ProblemInstance], PlacementRule],
    ) -> OnlineReport:
        """Play all queries through ``rule_factory(instance)``.

        Queries arrive in id order at Poisson instants; each arrival is an
        all-or-nothing admission attempt against the *current* cluster
        state; admitted queries release their compute after their hold
        time.

        When :attr:`OnlineConfig.faults` is set, seeded crash/recover
        events are injected into the same simulator (arrivals win FIFO
        ties at equal instants).  Queries hit by a crash fail their lost
        pairs over to surviving replicas, all-or-nothing per query, with
        bounded exponential-backoff retries; a query whose service is
        never fully restored before its hold ends counts as interrupted.
        Failover does not extend the hold — the original completion
        instant stands.
        """
        rule = rule_factory(instance)
        state = ClusterState(instance)
        sim = Simulator()
        rng = spawn_rng(self.config.seed, "online/arrivals")
        obs = get_registry()
        fault_cfg = self.config.faults
        link_cfg = self.config.link_faults

        outcomes: list[OnlineOutcome] = []
        peak = [0.0]
        injector: FaultInjector | None = None
        dynamics: NetworkDynamics | None = None
        active: dict[int, _ActiveQuery] = {}

        def finish(q_id: int) -> None:
            # Hold expired: release whatever the query still has allocated.
            record = active.pop(q_id, None)
            if record is None:
                return  # interrupted earlier; nothing left to release
            for a in record.assignments.values():
                state.release(a)
            if record.pending:
                # The hold ended while lost pairs were still awaiting
                # failover: service was never fully restored.
                injector.note_interrupted()
            elif record.hit:
                injector.note_recovered()

        def interrupt(q_id: int) -> None:
            record = active.pop(q_id)
            for a in record.assignments.values():
                state.release(a)
            injector.note_interrupted()

        def attempt_failover(q_id: int, attempt: int) -> None:
            record = active.get(q_id)
            if record is None or not record.pending:
                return  # finished, interrupted, or already failed over
            query = record.query
            repaired: list[Assignment] = []
            ok = True
            with obs.time("online.failover_s"):
                with state.transaction() as txn:
                    for d_id in sorted(record.pending):
                        best = best_failover_candidate(
                            state, query, instance.dataset(d_id)
                        )
                        if best is None:
                            ok = False
                            break
                        repaired.append(
                            state.serve(query, instance.dataset(d_id), best.node)
                        )
                    if ok:
                        txn.commit()
            injector.note_failover(ok, sim.now - record.lost_at)
            if ok:
                for a in repaired:
                    record.assignments[a.dataset_id] = a
                record.pending.clear()
            elif attempt >= fault_cfg.failover_retries:
                interrupt(q_id)
            else:
                # Bounded exponential backoff; a node recovery in the
                # meantime can make the retry succeed.
                sim.schedule_in(
                    fault_cfg.failover_backoff_s * (2.0**attempt),
                    lambda: attempt_failover(q_id, attempt + 1),
                )

        def on_links_changed(event: LinkEvent) -> None:
            # Paths were just recomputed on the new effective delays.
            # Restores only improve latencies, so only degrades/severs can
            # cut a running query: its home became unreachable from the
            # serving node, or the inflated path burst the deadline.
            if event.kind == "restore" or not active:
                return
            for q_id in sorted(active):
                record = active.get(q_id)
                if record is None:
                    continue
                query = record.query
                cut: list[int] = []
                moved = False
                for d_id, a in record.assignments.items():
                    lat = instance.pair_latency(
                        query, instance.dataset(d_id), a.node
                    )
                    if not math.isfinite(lat) or lat > query.deadline_s:
                        cut.append(d_id)
                    elif lat != a.latency_s:
                        moved = True
                if not cut:
                    if moved:
                        dynamics.note_rerouted()
                    continue
                # Re-place the cut pairs onto reachable replicas,
                # all-or-nothing: QoS is per query, not per pair.
                repaired: list[Assignment] = []
                ok = True
                with obs.time("online.netfault_failover_s"):
                    with state.transaction() as txn:
                        for d_id in cut:
                            state.release(record.assignments[d_id])
                        for d_id in cut:
                            best = best_failover_candidate(
                                state, query, instance.dataset(d_id)
                            )
                            if best is None:
                                ok = False
                                break
                            repaired.append(
                                state.serve(
                                    query, instance.dataset(d_id), best.node
                                )
                            )
                        if ok:
                            txn.commit()
                if ok:
                    for a in repaired:
                        record.assignments[a.dataset_id] = a
                    dynamics.note_recovered()
                else:
                    # Rollback restored the original allocations; release
                    # them for real and interrupt the query.
                    record = active.pop(q_id)
                    for a in record.assignments.values():
                        state.release(a)
                    dynamics.note_interrupted()
            # The severed-path invariant must hold at every instant: no
            # surviving in-flight pair is served across a cut link.
            state.check_invariants(
                [
                    a
                    for rec in active.values()
                    for a in rec.assignments.values()
                ],
                link_state=dynamics.link_state,
                homes={
                    rec.query.query_id: rec.query.home_node
                    for rec in active.values()
                },
            )

        def on_pairs_lost(node: int, evicted: tuple[object, ...]) -> None:
            # A crash evicted these (query, dataset) allocations; mark the
            # pairs pending and drive failover per query, ascending id
            # (the same order the static repair pass uses).
            hit: set[int] = set()
            for q_id, d_id in evicted:
                record = active.get(q_id)
                if record is None:
                    continue
                record.assignments.pop(d_id, None)
                record.pending.add(d_id)
                record.hit = True
                record.lost_at = sim.now
                hit.add(q_id)
            for q_id in sorted(hit):
                attempt_failover(q_id, 0)

        def on_arrival(query: Query) -> None:
            if injector is not None:
                injector.note_arrival(state.has_down_nodes)
            with obs.time("online.admission_s"):
                admitted = admit(state, rule, query, query.demanded)
            if admitted is None:
                obs.inc("online.rejected")
                # Replicas placed during the failed probe are rolled back
                # with the transaction for *all* rules — the online setting
                # compares placement quality, not bookkeeping styles.
                outcomes.append(
                    OnlineOutcome(query.query_id, sim.now, False, 0.0)
                )
                return
            obs.inc("online.admitted")
            peak[0] = max(peak[0], state.total_allocated())
            response = max(a.latency_s for a in admitted)
            hold = response * self.config.hold_factor
            if injector is None and dynamics is None:
                for a in admitted:
                    sim.schedule_in(hold, lambda a=a: state.release(a))
            else:
                if injector is not None:
                    injector.note_admission(state.has_down_nodes)
                active[query.query_id] = _ActiveQuery(
                    query, {a.dataset_id: a for a in admitted}
                )
                sim.schedule_in(hold, lambda q=query.query_id: finish(q))
            volume = query.demanded_volume(instance.datasets)
            outcomes.append(
                OnlineOutcome(query.query_id, sim.now, True, volume)
            )

        with obs.span("online.session", queries=len(instance.queries)):
            t = 0.0
            for query in instance.queries:
                t += float(rng.exponential(self.config.mean_interarrival_s))
                sim.schedule(t, lambda q=query: on_arrival(q))
            if fault_cfg is not None:
                # The fault horizon is the last arrival instant; faults are
                # scheduled after the arrivals, so an arrival wins the FIFO
                # tie against a crash at the same instant.
                schedule = build_fault_schedule(
                    instance.placement_nodes, t, fault_cfg
                )
                injector = FaultInjector(sim, state, schedule, on_pairs_lost)
                injector.arm()
            if link_cfg is not None:
                # Link events share the horizon; they are armed last, so
                # node-fault semantics win FIFO ties at equal instants.
                link_schedule = build_link_schedule(
                    instance.topology, t, link_cfg
                )
                dynamics = NetworkDynamics(
                    sim,
                    LinkState(instance.topology),
                    instance.paths,
                    link_schedule,
                    inflation=link_cfg.inflation,
                    on_change=on_links_changed,
                )
                dynamics.arm()
            try:
                sim.run()
            finally:
                if dynamics is not None and instance.paths.generation > 0:
                    # Leave the (possibly shared) instance's path cache on
                    # the base delays: values return bit-identical to a
                    # pristine cache, only the generation stamp differs.
                    dynamics.link_state.restore_all()
                    instance.paths.recompute(
                        dynamics.link_state.effective_delays()
                    )

        admitted = [o for o in outcomes if o.admitted]
        return OnlineReport(
            outcomes=tuple(outcomes),
            admitted_volume_gb=sum(o.volume_gb for o in admitted),
            throughput=len(admitted) / len(outcomes) if outcomes else 0.0,
            peak_allocated_ghz=peak[0],
            replicas_placed=sum(
                max(0, state.replicas.count(d) - 1) for d in instance.datasets
            ),
            faults=injector.report(sim.now) if injector is not None else None,
            netfaults=(
                dynamics.report(sim.now) if dynamics is not None else None
            ),
        )
