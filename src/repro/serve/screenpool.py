"""Parallel admission screening: the batch kernel and its prefork pool.

The gateway's micro-batch screen answers one question per submission:
*does any placement node pass capacity + deadline + replica-slot +
liveness for every demanded pair?*  This module factors that screen into

* :func:`build_rows` / :func:`screen_rows` — a fully vectorised kernel
  over flat ``(query, dataset)`` pair rows.  One fancy-indexed latency
  matrix answers the whole batch; per pair it is pinned equal to
  ``ClusterState.can_serve_mask(query, dataset).any()``
  (``tests/serve/test_screenpool.py``);
* :class:`ScreenPool` — a prefork pool of worker processes running that
  kernel over shards of each micro-batch against the zero-copy
  shared-memory views of :mod:`repro.serve.shm`.

The pool never touches ``ClusterState`` itself: workers read published
views, return per-pair verdict bits plus the generation stamp they
screened against, and the single-writer admission loop retains sole
authority over commits.  A verdict computed against a stale generation is
re-screened by the caller — the same optimistic-``True`` /
exact-``False`` contract as the inline screen, extended across
processes.

Workers are started from :meth:`ScreenPool.start` with the *fork*
context when the platform offers it (statics are inherited copy-on-write)
and fall back to *spawn* (statics pickled once at startup) otherwise.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cluster.node import _EPS
from repro.serve.shm import ScreenStatics, SharedStateViews, StateSnapshot
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.state import ClusterState
    from repro.core.types import Query

__all__ = [
    "ScreenPool",
    "ScreenRows",
    "ScreenResult",
    "build_rows",
    "screen_rows",
    "snapshot_state",
    "verdicts_from_pairs",
]


@dataclass(frozen=True)
class ScreenRows:
    """One micro-batch flattened to ``(query, dataset)`` pair rows.

    ``query_row[r]`` maps pair ``r`` back to its position in the batch;
    the remaining arrays carry everything the kernel needs to score the
    pair against every placement node at once.
    """

    query_row: np.ndarray  # intp[R] — batch index of each pair
    dataset_idx: np.ndarray  # intp[R] — row into the statics' dataset axis
    home: np.ndarray  # intp[R] — topology id of the query's home node
    alpha: np.ndarray  # float64[R] — selectivity of the pair
    rate: np.ndarray  # float64[R] — query compute rate (GHz/GB)
    deadline_s: np.ndarray  # float64[R]

    def __len__(self) -> int:
        return int(self.query_row.shape[0])


@dataclass(frozen=True)
class ScreenResult:
    """A worker's answer for one shard: verdict bits + view generation."""

    task_id: int
    generation: int
    pair_ok: np.ndarray  # bool[R_shard]


def build_rows(queries: Sequence["Query"], statics: ScreenStatics) -> ScreenRows:
    """Flatten a batch of queries into kernel-ready pair rows."""
    query_row: list[int] = []
    dataset_idx: list[int] = []
    home: list[int] = []
    alpha: list[float] = []
    rate: list[float] = []
    deadline: list[float] = []
    index = statics.dataset_index
    for i, query in enumerate(queries):
        selectivity = query.selectivity
        for j, d_id in enumerate(query.demanded):
            query_row.append(i)
            dataset_idx.append(index[d_id])
            home.append(query.home_node)
            alpha.append(selectivity[j])
            rate.append(query.compute_rate)
            deadline.append(query.deadline_s)
    return ScreenRows(
        query_row=np.asarray(query_row, dtype=np.intp),
        dataset_idx=np.asarray(dataset_idx, dtype=np.intp),
        home=np.asarray(home, dtype=np.intp),
        alpha=np.asarray(alpha, dtype=np.float64),
        rate=np.asarray(rate, dtype=np.float64),
        deadline_s=np.asarray(deadline, dtype=np.float64),
    )


def screen_rows(
    statics: ScreenStatics, view: StateSnapshot, rows: ScreenRows
) -> np.ndarray:
    """Per-pair feasibility verdicts (``bool[R]``) against one view.

    Element-for-element ``ClusterState.can_serve_mask(...).any()``: a
    pair passes iff some placement node simultaneously fits its compute
    demand (with the scalar check's epsilon slack), meets its deadline,
    and — when the dataset is out of replica slots or nodes are down —
    already holds a live copy.  Every float op is the same IEEE
    expression ``pair_latency_vector`` evaluates, so the bits agree
    exactly.
    """
    di = rows.dataset_idx
    volumes = statics.volumes_gb[di]
    latency = volumes[:, None] * (
        statics.proc_delays[None, :]
        + rows.alpha[:, None] * statics.home_delays[rows.home]
    )
    demand = volumes * rows.rate
    node_ok = demand[:, None] <= view.free_ghz[None, :] + _EPS * statics.capacities
    node_ok &= latency <= rows.deadline_s[:, None]
    tight = view.slots_left[di] <= 0
    if tight.any():
        node_ok[tight] &= view.presence[di[tight]]
    if view.any_down:
        node_ok &= view.up[None, :]
        live = (view.presence & view.up[None, :]).any(axis=1)
        if statics.origin_external is not None:
            # Shard-scoped gateway: a remote origin is always a clone
            # source (its health is the owning shard's concern), exactly
            # as ClusterState.has_live_copy counts external copies.
            live = live | statics.origin_external
        node_ok[~live[di]] = False
    return node_ok.any(axis=1)


def verdicts_from_pairs(
    rows: ScreenRows, pair_ok: np.ndarray, batch_size: int
) -> list[bool]:
    """Fold pair verdicts into per-query verdicts (all pairs must pass)."""
    verdict = np.ones(batch_size, dtype=bool)
    bad = rows.query_row[~pair_ok]
    if bad.size:
        verdict[bad] = False
    return verdict.tolist()


def snapshot_state(
    state: "ClusterState", statics: ScreenStatics
) -> StateSnapshot:
    """Build an in-process :class:`StateSnapshot` of the live state.

    The inline (``screen_workers=1``) engine screens against this
    directly; the pool path publishes the same arrays through shared
    memory — either way the kernel sees identical bits.
    """
    return StateSnapshot(
        generation=state.generation,
        free_ghz=state.available_array(),
        up=state.up_mask(),
        slots_left=state.remaining_slots_array(statics.dataset_ids),
        presence=state.replica_presence_matrix(statics.dataset_ids),
    )


# -- worker side -----------------------------------------------------------


def _worker_main(
    shm_name: str,
    num_datasets: int,
    num_nodes: int,
    statics: ScreenStatics,
    tasks: "mp.queues.Queue",
    results: "mp.queues.Queue",
) -> None:  # pragma: no cover - exercised in a child process
    """Worker loop: attach the views, screen shards until the sentinel."""
    views = SharedStateViews.attach(shm_name, num_datasets, num_nodes)
    try:
        while True:
            task = tasks.get()
            if task is None:
                break
            task_id, expected_generation, rows = task
            view = views.read_snapshot()
            if view.generation < expected_generation:
                # The publish raced our attach/read: retry once — the
                # writer completes its seqlock'd publish in microseconds.
                view = views.read_snapshot()
            pair_ok = screen_rows(statics, view, rows)
            results.put(ScreenResult(task_id, view.generation, pair_ok))
    finally:
        views.close()


class ScreenPool:
    """Prefork pool screening micro-batch shards against shared views.

    Parameters
    ----------
    statics:
        The immutable screen tables (shipped to workers at start).
    num_workers:
        Worker process count (>= 1; the gateway only builds a pool for
        ``screen_workers > 1``, but a single-worker pool is valid and
        used by the tests).
    """

    def __init__(self, statics: ScreenStatics, num_workers: int) -> None:
        check_positive("num_workers", num_workers)
        self.statics = statics
        self.num_workers = int(num_workers)
        self._views: SharedStateViews | None = None
        self._workers: list[mp.process.BaseProcess] = []
        self._tasks: mp.queues.Queue | None = None
        self._results: mp.queues.Queue | None = None
        self._next_task = 0

    @property
    def running(self) -> bool:
        """Whether worker processes are live."""
        return bool(self._workers)

    def start(self) -> None:
        """Allocate the shared block and fork the workers."""
        if self.running:
            return
        methods = mp.get_all_start_methods()
        context = mp.get_context("fork" if "fork" in methods else "spawn")
        self._views = SharedStateViews.create(
            self.statics.num_datasets, self.statics.num_nodes
        )
        self._tasks = context.Queue()
        self._results = context.Queue()
        for _ in range(self.num_workers):
            process = context.Process(
                target=_worker_main,
                args=(
                    self._views.name,
                    self.statics.num_datasets,
                    self.statics.num_nodes,
                    self.statics,
                    self._tasks,
                    self._results,
                ),
                daemon=True,
            )
            process.start()
            self._workers.append(process)

    def close(self) -> None:
        """Stop workers, drop queues, destroy the shared block."""
        if self._tasks is not None:
            for _ in self._workers:
                with contextlib.suppress(Exception):
                    self._tasks.put(None)
        for process in self._workers:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()
                process.join(timeout=5)
        self._workers.clear()
        for queue in (self._tasks, self._results):
            if queue is not None:
                with contextlib.suppress(Exception):
                    queue.close()
                    queue.join_thread()
        self._tasks = self._results = None
        if self._views is not None:
            self._views.close()
            self._views.unlink()
            self._views = None

    def __enter__(self) -> "ScreenPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the screening round-trip -----------------------------------------

    def publish(self, state: "ClusterState") -> int:
        """Export the live arrays to shared memory; returns the stamp."""
        if self._views is None:
            raise RuntimeError("pool is not started")
        view = snapshot_state(state, self.statics)
        self._views.publish(
            view.generation, view.free_ghz, view.up, view.slots_left, view.presence
        )
        return view.generation

    def screen(self, rows: ScreenRows, generation: int) -> tuple[np.ndarray, int]:
        """Screen ``rows`` across the workers against generation ``generation``.

        Shards the pair rows contiguously, fans them out, and reassembles
        the verdict vector.  Returns ``(pair_ok, oldest_generation)`` —
        the caller compares the generation against the live state and
        re-screens when a worker saw an older view.
        """
        if self._tasks is None or self._results is None:
            raise RuntimeError("pool is not started")
        total = len(rows)
        if total == 0:
            return np.zeros(0, dtype=bool), generation
        shards = min(self.num_workers, total)
        bounds = np.linspace(0, total, shards + 1).astype(np.intp)
        task_ids = []
        for s in range(shards):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            shard = ScreenRows(
                query_row=rows.query_row[lo:hi],
                dataset_idx=rows.dataset_idx[lo:hi],
                home=rows.home[lo:hi],
                alpha=rows.alpha[lo:hi],
                rate=rows.rate[lo:hi],
                deadline_s=rows.deadline_s[lo:hi],
            )
            task_id = self._next_task
            self._next_task += 1
            task_ids.append((task_id, lo, hi))
            self._tasks.put((task_id, generation, shard))
        pair_ok = np.zeros(total, dtype=bool)
        oldest = generation
        expect = {task_id: (lo, hi) for task_id, lo, hi in task_ids}
        while expect:
            result: ScreenResult = self._results.get()
            span = expect.pop(result.task_id, None)
            if span is None:  # pragma: no cover - stale task from a re-screen
                continue
            lo, hi = span
            pair_ok[lo:hi] = result.pair_ok
            if result.generation < oldest:
                oldest = result.generation
        return pair_ok, oldest


def default_workers() -> int:
    """A sensible worker count: the CPUs left after the gateway's own."""
    return max(1, (os.cpu_count() or 1) - 1)
