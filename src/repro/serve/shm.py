"""Zero-copy shared-memory export of the gateway's hot ``ClusterState``.

The screening pool (:mod:`repro.serve.screenpool`) runs the admission
screen in worker *processes*.  Workers must see the arrays the screen
reads — free compute per node, replica presence, remaining ``K`` slots,
and node liveness — without pickling them per batch.  This module maps
those arrays onto one :class:`multiprocessing.shared_memory.SharedMemory`
block with versioned numpy views:

* the **writer** (the gateway's single admission loop) calls
  :meth:`SharedStateViews.publish` with the current state arrays and a
  generation stamp;
* **readers** (pool workers) call :meth:`SharedStateViews.read_snapshot`
  and get a consistent copy plus the generation it belongs to.

Consistency uses a seqlock: a sequence word is bumped to an *odd* value
before the writer touches the arrays and to the next *even* value after.
A reader re-reads whenever the sequence was odd or changed underneath it,
so a torn view is never returned.  The *generation* word is the
:attr:`repro.cluster.state.ClusterState.generation` mutation epoch at
publish time — a worker ships it back with its verdicts, letting the
admission loop detect that a screen ran against a stale view and
re-screen (see the gateway's ``serve.screen`` metrics).

Everything static about the screen — per-node processing delays and
capacities, per-dataset volumes, and the instance's full home→placement
pair-latency matrix — is shipped *once* per worker at fork time as a
:class:`ScreenStatics`; only the four live arrays round-trip through the
shared block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.instance import ProblemInstance

__all__ = ["ScreenStatics", "SharedStateViews", "StateSnapshot"]

#: Header words (int64): [0] seqlock sequence, [1] generation stamp.
_HEADER_WORDS = 2
_HEADER_BYTES = _HEADER_WORDS * 8


@dataclass(frozen=True)
class ScreenStatics:
    """Immutable per-instance arrays the screening kernel indexes.

    All arrays are placement-ordered (column ``i`` is
    ``placement_nodes[i]``); dataset-indexed arrays follow
    ``dataset_ids`` (the instance's sorted dataset ids).  Every element
    is the exact float the scalar accessors return, so screens computed
    from these tables are bit-identical to
    ``ClusterState.can_serve_mask``.
    """

    dataset_ids: tuple[int, ...]
    dataset_index: dict[int, int]
    volumes_gb: np.ndarray  # float64[D]
    proc_delays: np.ndarray  # float64[N]
    capacities: np.ndarray  # float64[N]
    home_delays: np.ndarray  # float64[H, N] — row h = delays to home h
    #: Per-dataset flag: origin lives outside this gateway's shard, so
    #: the dataset stays clonable even with zero local copies.  ``None``
    #: for an unscoped gateway (the original single-gateway layout).
    origin_external: np.ndarray | None = None  # bool[D]

    @classmethod
    def from_instance(
        cls,
        instance: ProblemInstance,
        *,
        shard_nodes: tuple[int, ...] | None = None,
    ) -> "ScreenStatics":
        """Extract the static screen tables from ``instance``.

        ``shard_nodes`` marks datasets whose origin is outside the shard
        (see :attr:`origin_external`); the node-indexed tables stay full
        placement length — shard confinement rides on the ``-inf``
        available-compute mask the scoped state publishes.
        """
        dataset_ids = tuple(sorted(instance.datasets))
        volumes = np.fromiter(
            (instance.dataset(d).volume_gb for d in dataset_ids),
            dtype=np.float64,
            count=len(dataset_ids),
        )
        origin_external = None
        if shard_nodes is not None:
            local = frozenset(shard_nodes)
            origin_external = np.fromiter(
                (instance.dataset(d).origin_node not in local for d in dataset_ids),
                dtype=np.bool_,
                count=len(dataset_ids),
            )
        return cls(
            dataset_ids=dataset_ids,
            dataset_index={d: i for i, d in enumerate(dataset_ids)},
            volumes_gb=volumes,
            proc_delays=np.asarray(instance.proc_delays),
            capacities=np.asarray(instance.capacities),
            home_delays=np.asarray(instance.home_delay_matrix),
            origin_external=origin_external,
        )

    @property
    def num_datasets(self) -> int:
        return len(self.dataset_ids)

    @property
    def num_nodes(self) -> int:
        return int(self.proc_delays.shape[0])


@dataclass(frozen=True)
class StateSnapshot:
    """One consistent read of the live views (arrays are private copies)."""

    generation: int
    free_ghz: np.ndarray  # float64[N]
    up: np.ndarray  # bool[N]
    slots_left: np.ndarray  # int64[D]
    presence: np.ndarray  # bool[D, N]

    @property
    def any_down(self) -> bool:
        """Whether any placement node is marked down in this snapshot."""
        return not bool(self.up.all())


def _layout(num_datasets: int, num_nodes: int) -> tuple[dict[str, tuple[int, int]], int]:
    """(field → (offset, nbytes)) map and total block size."""
    fields: dict[str, tuple[int, int]] = {}
    offset = _HEADER_BYTES
    for name, nbytes in (
        ("free_ghz", num_nodes * 8),
        ("up", num_nodes),
        ("slots_left", num_datasets * 8),
        ("presence", num_datasets * num_nodes),
    ):
        fields[name] = (offset, nbytes)
        offset += nbytes
    return fields, offset


class SharedStateViews:
    """The shared block and its typed numpy views (writer or reader side).

    Use :meth:`create` in the owning (gateway) process and :meth:`attach`
    in workers; both sides index the same memory.  The owner must call
    :meth:`unlink` exactly once at teardown; every side calls
    :meth:`close`.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, num_datasets: int, num_nodes: int,
        *, owner: bool,
    ) -> None:
        self._shm = shm
        self._owner = owner
        self.num_datasets = int(num_datasets)
        self.num_nodes = int(num_nodes)
        fields, total = _layout(self.num_datasets, self.num_nodes)
        if shm.size < total:
            raise ValueError(
                f"shared block of {shm.size} bytes is smaller than the "
                f"{total}-byte layout for D={num_datasets}, N={num_nodes}"
            )
        buf = shm.buf
        self._header = np.ndarray((_HEADER_WORDS,), dtype=np.int64, buffer=buf)
        off, _ = fields["free_ghz"]
        self._free = np.ndarray((num_nodes,), dtype=np.float64, buffer=buf, offset=off)
        off, _ = fields["up"]
        self._up = np.ndarray((num_nodes,), dtype=np.bool_, buffer=buf, offset=off)
        off, _ = fields["slots_left"]
        self._slots = np.ndarray(
            (num_datasets,), dtype=np.int64, buffer=buf, offset=off
        )
        off, _ = fields["presence"]
        self._presence = np.ndarray(
            (num_datasets, num_nodes), dtype=np.bool_, buffer=buf, offset=off
        )

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, num_datasets: int, num_nodes: int) -> "SharedStateViews":
        """Allocate a fresh block sized for ``(D, N)`` (writer side)."""
        _, total = _layout(num_datasets, num_nodes)
        shm = shared_memory.SharedMemory(create=True, size=total)
        views = cls(shm, num_datasets, num_nodes, owner=True)
        views._header[:] = 0
        return views

    @classmethod
    def attach(
        cls, name: str, num_datasets: int, num_nodes: int
    ) -> "SharedStateViews":
        """Map an existing block by name (reader side)."""
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, num_datasets, num_nodes, owner=False)

    @property
    def name(self) -> str:
        """OS name of the block — what workers :meth:`attach` by."""
        return self._shm.name

    def close(self) -> None:
        """Drop this process's mapping (the block itself survives)."""
        # Release numpy views of the buffer first, else SharedMemory
        # refuses to close an exported pointer.
        self._header = self._free = self._up = None  # type: ignore[assignment]
        self._slots = self._presence = None  # type: ignore[assignment]
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the block (owner side, after :meth:`close`)."""
        if self._owner:
            self._shm.unlink()

    # -- seqlock protocol --------------------------------------------------

    @property
    def sequence(self) -> int:
        """Current seqlock word (odd = write in progress)."""
        return int(self._header[0])

    @property
    def generation(self) -> int:
        """Generation stamp of the last completed publish."""
        return int(self._header[1])

    def publish(
        self,
        generation: int,
        free_ghz: np.ndarray,
        up: np.ndarray,
        slots_left: np.ndarray,
        presence: np.ndarray,
    ) -> None:
        """Write one consistent view (single-writer only).

        The sequence word goes odd, the arrays land, the sequence word
        goes even: a reader that overlaps the write sees the odd/changed
        sequence and retries.
        """
        self._header[0] += 1  # odd: write in progress
        self._free[:] = free_ghz
        self._up[:] = up
        self._slots[:] = slots_left
        self._presence[:] = presence
        self._header[1] = generation
        self._header[0] += 1  # even: view complete

    def read_snapshot(self, *, max_retries: int = 64) -> StateSnapshot:
        """Copy out one seqlock-consistent view.

        Retries while a write is in flight; raises ``RuntimeError`` only
        if the writer livelocks the reader for ``max_retries`` attempts
        (never observed in practice — publishes are microseconds).
        """
        for attempt in range(max_retries):
            if attempt >= 8:
                time.sleep(5e-5)  # writer is mid-publish: yield the CPU
            seq0 = int(self._header[0])
            if seq0 % 2:  # write in progress
                continue
            snapshot = StateSnapshot(
                generation=int(self._header[1]),
                free_ghz=self._free.copy(),
                up=self._up.copy(),
                slots_left=self._slots.copy(),
                presence=self._presence.copy(),
            )
            if int(self._header[0]) == seq0:
                return snapshot
        raise RuntimeError(
            f"could not obtain a consistent view in {max_retries} attempts"
        )

    def __enter__(self) -> "SharedStateViews":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
        self.unlink()
