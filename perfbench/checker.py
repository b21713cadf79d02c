"""Independent answer checker.

Recomputes every pair latency as ``|S|·(d(v) + α·dt(p(v, h)))`` from the
topology's raw link and node delays with its own Dijkstra, instead of
``repro.network.paths`` and ``ProblemInstance``.  It imports nothing from
the program: the benchmark hands it plain numbers and parsed answers.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

#: Relative tolerance on recomputed floats (latencies, compute demand).
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def shortest_delays(
    links: Mapping[tuple[int, int], float], sources: Iterable[int]
) -> dict[int, dict[int, float]]:
    """Minimum total link delay from each source to every reachable node."""
    adjacency: dict[int, list[tuple[int, float]]] = defaultdict(list)
    for (u, v), delay in links.items():
        adjacency[u].append((v, delay))
        adjacency[v].append((u, delay))
    out: dict[int, dict[int, float]] = {}
    for source in sources:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        out[source] = dist
    return out


class Oracle:
    """Pair latencies of one cluster, computed apart from the program.

    Parameters
    ----------
    proc_delay:
        ``d(v)`` per placement node, s/GB.
    links:
        ``dt(e)`` per undirected link ``(u, v)``, s/GB.
    volumes:
        ``|S|`` per dataset, GB.
    max_replicas:
        ``K``.
    """

    def __init__(
        self,
        proc_delay: Mapping[int, float],
        links: Mapping[tuple[int, int], float],
        volumes: Mapping[int, float],
        max_replicas: int,
    ) -> None:
        self.proc_delay = dict(proc_delay)
        self.placement = sorted(self.proc_delay)
        self.volumes = dict(volumes)
        self.max_replicas = max_replicas
        self._dist = shortest_delays(links, self.placement)

    def latency(self, query: Mapping, dataset_id: int, node: int) -> float:
        alpha = query["selectivity"][query["demanded"].index(dataset_id)]
        dt = self._dist[node].get(query["home_node"], math.inf)
        return self.volumes[dataset_id] * (self.proc_delay[node] + alpha * dt)

    def best_latency(self, query: Mapping, dataset_id: int) -> float:
        return min(self.latency(query, dataset_id, v) for v in self.placement)

    def deadline_feasible(self, query: Mapping) -> bool:
        """Whether every demanded dataset meets the deadline at some node."""
        return all(
            self.best_latency(query, d) <= query["deadline_s"] for d in query["demanded"]
        )

    def volume(self, query: Mapping) -> float:
        return sum(self.volumes[d] for d in query["demanded"])


@dataclass
class Tally:
    """What the checker saw across a run's answers."""

    attempted: int = 0
    admitted: int = 0
    rejected: int = 0
    fast_rejected: int = 0
    shed: int = 0
    missing: int = 0
    duplicates: int = 0
    not_ok: int = 0
    admitted_gb: float = 0.0
    errors: list[str] = field(default_factory=list)
    #: dataset -> distinct serving nodes seen in admitted answers.
    copies: dict[int, set[int]] = field(default_factory=lambda: defaultdict(set))

    @property
    def failed(self) -> int:
        return self.missing + self.duplicates + self.not_ok + self.shed

    @property
    def decided(self) -> int:
        return self.admitted + self.rejected

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)
        elif len(self.errors) == 20:
            self.errors.append("... further errors suppressed")

    @property
    def copies_max(self) -> int:
        return max((len(nodes) for nodes in self.copies.values()), default=0)


def check_answer(oracle: Oracle, query: Mapping, answer: Mapping, tally: Tally) -> None:
    """Check one submit answer against the independent recomputation."""
    qid = query["query_id"]
    if not answer.get("ok", False):
        tally.not_ok += 1
        return
    result = answer.get("result")
    if result == "shed":
        tally.shed += 1
        return
    if result == "rejected":
        tally.rejected += 1
        if answer.get("reason") == "deadline-infeasible":
            tally.fast_rejected += 1
            worst = max(
                oracle.best_latency(query, d) - query["deadline_s"]
                for d in query["demanded"]
            )
            if worst <= -ABS_TOL - REL_TOL * query["deadline_s"]:
                tally.error(f"query {qid}: deadline-infeasible but every dataset fits")
        return
    if result != "admitted":
        tally.error(f"query {qid}: unknown result {result!r}")
        return
    tally.admitted += 1
    assignments = answer.get("assignments") or []
    seen = [a.get("dataset_id") for a in assignments]
    if sorted(seen) != sorted(query["demanded"]) or len(set(seen)) != len(seen):
        tally.error(f"query {qid}: assignments {seen} != demanded {query['demanded']}")
        return
    worst = 0.0
    for a in assignments:
        d, v = a["dataset_id"], a["node"]
        if v not in oracle.proc_delay:
            tally.error(f"query {qid}: dataset {d} served at non-placement node {v}")
            continue
        expected = oracle.latency(query, d, v)
        if not _close(a["latency_s"], expected):
            tally.error(
                f"query {qid}: dataset {d} at node {v} latency {a['latency_s']!r} "
                f"!= recomputed {expected!r}"
            )
        if a["latency_s"] > query["deadline_s"] + ABS_TOL:
            tally.error(f"query {qid}: dataset {d} misses its deadline")
        demand = oracle.volumes[d] * query["compute_rate"]
        if not _close(a["compute_ghz"], demand):
            tally.error(f"query {qid}: dataset {d} compute {a['compute_ghz']!r} != {demand!r}")
        worst = max(worst, a["latency_s"])
        tally.copies[d].add(v)
    if not _close(answer.get("response_s", math.nan), worst):
        tally.error(f"query {qid}: response_s {answer.get('response_s')!r} != max latency {worst!r}")
    tally.admitted_gb += oracle.volume(query)


def check_copies(
    oracle: Oracle, tally: Tally, shards: Sequence[Sequence[int]] | None = None
) -> dict[int, int]:
    """Distinct serving copies per dataset must stay within ``K`` — per
    shard when ``shards`` is given.  Returns the per-shard maximum."""
    groups = [set(s) for s in shards] if shards else [set(oracle.placement)]
    worst: dict[int, int] = {}
    for s, members in enumerate(groups):
        for d, nodes in tally.copies.items():
            count = len(nodes & members)
            worst[s] = max(worst.get(s, 0), count)
            if count > oracle.max_replicas:
                tally.error(
                    f"dataset {d}: {count} serving copies in shard {s} exceed K={oracle.max_replicas}"
                )
    return worst


def check_run(
    oracle: Oracle,
    queries: Sequence[Mapping],
    answers: Mapping[int, Mapping],
    duplicates: int = 0,
    shards: Sequence[Sequence[int]] | None = None,
) -> Tally:
    """Check a whole run: ``answers[i]`` answers ``queries[i]``.

    A query without an answer is missing; an answer without a query is an
    error; ``duplicates`` counts second answers the load generator saw.
    """
    tally = Tally(attempted=len(queries), duplicates=duplicates)
    for i, query in enumerate(queries):
        answer = answers.get(i)
        if answer is None:
            tally.missing += 1
            continue
        check_answer(oracle, query, answer, tally)
    extra = set(answers) - set(range(len(queries)))
    if extra:
        tally.error(f"answers for unknown request ids {sorted(extra)[:5]}")
    check_copies(oracle, tally, shards)
    return tally


def check_online(
    oracle: Oracle,
    queries: Sequence[Mapping],
    outcomes: Sequence[Sequence],
    admitted_volume_gb: float,
) -> Tally:
    """Check an online session: one outcome per arrival, admitted volume
    equal to the sum over admitted outcomes and within the upper bound of
    queries that can meet their deadline at some node."""
    tally = Tally(attempted=len(queries))
    ids = [o[0] for o in outcomes]
    if sorted(ids) != list(range(len(queries))):
        tally.missing = len(set(range(len(queries))) - set(ids))
        tally.duplicates = len(ids) - len(set(ids))
    bound = 0.0
    for query in queries:
        if oracle.deadline_feasible(query):
            bound += oracle.volume(query)
    total = 0.0
    for qid, admitted, volume in outcomes:
        if not 0 <= qid < len(queries):
            tally.error(f"outcome for unknown query {qid}")
            continue
        query = queries[qid]
        if not admitted:
            tally.rejected += 1
            continue
        tally.admitted += 1
        if not _close(volume, oracle.volume(query)):
            tally.error(f"query {qid}: outcome volume {volume!r} != {oracle.volume(query)!r}")
        if not oracle.deadline_feasible(query):
            tally.error(f"query {qid}: admitted but no node meets its deadline")
        total += oracle.volume(query)
    tally.admitted_gb = total
    if not math.isclose(admitted_volume_gb, total, rel_tol=1e-9):
        tally.error(f"admitted_volume_gb {admitted_volume_gb!r} != sum of outcomes {total!r}")
    if total > bound * (1 + 1e-9):
        tally.error(f"admitted {total!r} GB exceeds the deadline-feasible bound {bound!r} GB")
    return tally
