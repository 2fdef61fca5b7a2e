"""The typed request-stream IR: the front-end / memory-system boundary.

Every front-end (the NeRF hash-grid lookups of
``SimulationContext.request_stream``, the embedding-table workload, the
serving request table) compiles its memory traffic down to one small typed
value — a :class:`RequestStream` — instead of the
bare ndarrays whose meaning (corner indices? byte addresses? accesses per
point?) used to be implicit convention at every consumer seam.  The memory
system (``repro.core.streaming`` row-request accounting,
:meth:`repro.mem.hierarchy.CacheHierarchy.filter_stream`,
:meth:`repro.dram.system.DRAMSystem.service_batch`, the NMP accelerator's
:class:`~repro.accel.nmp.AlgorithmLocality`) consumes the IR without knowing
which front-end produced it.

A stream is *table-relative*: it stores per-point table ``indices`` plus the
layout facts (``entry_bytes``, ``table_entries``, ``base_address``) needed
to derive flat byte addresses on demand.  Keeping indices rather than
addresses preserves the information the mapping/conflict analyses need, and
every front-end derives addresses with the same arithmetic: the table's
:func:`table_base_address` plus ``index * entry_bytes``.

``group_ids`` is the per-point reuse-group axis: consecutive points with
equal ids access identical entry sets (the NeRF cube id of a point; the
bag signature of an embedding lookup), so only the first point of a run
costs memory requests — the register-reuse window of the paper's
microarchitecture, now a first-class IR field instead of a recomputed
side-channel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Protocol, runtime_checkable

import numpy as np
from numpy.typing import NDArray

from ..core import precision

__all__ = [
    "StreamKind",
    "RequestStream",
    "TableLayout",
    "StreamSource",
    "iter_streams",
    "table_base_address",
]


class StreamKind(enum.Enum):
    """Direction/shape of the accesses a stream carries."""

    READ = "read"          # plain reads (e.g. cache-line fetch traffic)
    WRITE = "write"        # scatter/update traffic (gradient writes)
    GATHER = "gather"      # indexed reads of table entries (the hot path)


class TableLayout(Protocol):
    """Structural view of a multi-table memory layout.

    Satisfied by :class:`repro.nerf.encoding.HashGridConfig` (levels of a
    multi-resolution hash table) and by
    :class:`repro.workloads.embedding.EmbeddingTableLayout` (a bank of
    embedding tables) without either importing this module.
    """

    @property
    def num_levels(self) -> int: ...

    def level_table_entries(self, level: int) -> int: ...


def table_base_address(layout: TableLayout, level: int, entry_bytes: int) -> int:
    """Byte offset of one table in the back-to-back flat layout.

    Tables (hash-grid levels, embedding tables) are laid out contiguously in
    index order, and every front-end takes its base addresses from here, so
    all of them derive identical flat addresses.
    """
    if level < 0 or level >= layout.num_levels:
        raise ValueError(f"level {level} out of range for {layout.num_levels} tables")
    offset = 0
    for lvl in range(level):
        offset += layout.level_table_entries(lvl) * entry_bytes
    return offset


def _frozen_array(values: Any, dtype: Any) -> NDArray[Any]:
    """A read-only int array for an IR field.

    Never mutates the caller's array: an array (or view) passed in is
    copied before freezing; arrays freshly built from sequences, and arrays
    that are already read-only (memoized artifacts), are adopted as-is.
    """
    array = np.asarray(values, dtype=dtype)
    if array.flags.writeable:
        if array is values or array.base is not None:
            array = array.copy()
        array.flags.writeable = False
    return array


@dataclass(frozen=True)
class RequestStream:
    """One typed stream of table accesses, in stream order.

    Attributes
    ----------
    indices:
        ``(num_points, accesses_per_point)`` table indices, one row per
        streamed point (a NeRF sample's 8 cube corners; an embedding bag's
        pooled lookups).  Always 2-D; a flat per-access stream is a column
        (``accesses_per_point == 1``).
    entry_bytes:
        Bytes of one table entry (features x dtype width — see
        :func:`repro.core.precision.entry_bytes`).
    table_entries:
        Number of entries in the addressed table; every index is below it.
    base_address:
        Byte offset of the table in the flat layout (``addresses`` are
        ``base_address + index * entry_bytes``).
    kind:
        Access kind; :attr:`StreamKind.GATHER` for table lookups.
    dtype:
        Precision name of a stored entry (``fp64``/``fp32``/``fp16``/``int8``).
    group_ids:
        Optional ``(num_points,)`` reuse-group ids: consecutive equal ids
        mark points whose entry set is identical to the previous point's
        (register hits).  ``None`` means every point is its own group.
    source / label:
        Provenance metadata (front-end name; e.g. ``level=3``), carried
        through the store and the observability layer.
    """

    indices: NDArray[Any] = field(repr=False)
    entry_bytes: int
    table_entries: int
    base_address: int = 0
    kind: StreamKind = StreamKind.GATHER
    dtype: str = "fp32"
    group_ids: NDArray[Any] | None = field(default=None, repr=False)
    source: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        indices = _frozen_array(self.indices, np.int64)
        if indices.ndim != 2:
            raise ValueError(f"indices must have shape (N, P), got {indices.shape}")
        if self.entry_bytes <= 0:
            raise ValueError(f"entry_bytes must be positive, got {self.entry_bytes}")
        if self.table_entries <= 0:
            raise ValueError(f"table_entries must be positive, got {self.table_entries}")
        if self.base_address < 0:
            raise ValueError(f"base_address must be non-negative, got {self.base_address}")
        precision.validate_precision(self.dtype)
        if indices.size:
            lo, hi = int(indices.min()), int(indices.max())
            if lo < 0 or hi >= self.table_entries:
                raise ValueError(
                    f"indices must lie in [0, {self.table_entries}), got [{lo}, {hi}]"
                )
        object.__setattr__(self, "indices", indices)
        if self.group_ids is not None:
            groups = _frozen_array(self.group_ids, np.int64)
            if groups.shape != (indices.shape[0],):
                raise ValueError(
                    f"group_ids must have shape ({indices.shape[0]},), got {groups.shape}"
                )
            object.__setattr__(self, "group_ids", groups)

    # ------------------------------------------------------------- derived
    @property
    def num_points(self) -> int:
        """Streamed points (rows of ``indices``)."""
        return int(self.indices.shape[0])

    @property
    def accesses_per_point(self) -> int:
        """Table lookups issued per point (columns of ``indices``)."""
        return int(self.indices.shape[1])

    @property
    def num_accesses(self) -> int:
        return int(self.indices.size)

    @property
    def total_bytes(self) -> int:
        """Useful bytes the stream gathers (before any reuse filtering)."""
        return self.num_accesses * self.entry_bytes

    @property
    def writes(self) -> bool:
        return self.kind is StreamKind.WRITE

    @property
    def addresses(self) -> NDArray[Any]:
        """Flat byte addresses, point-major.

        Exactly ``base_address + index * entry_bytes``; the front-ends set
        ``base_address`` with :func:`table_base_address`.
        """
        return self.base_address + self.indices.ravel() * self.entry_bytes

    # ------------------------------------------------------------ reshapes
    def with_order(self, order: NDArray[Any]) -> "RequestStream":
        """The same accesses re-streamed under a point permutation."""
        perm = np.asarray(order, dtype=np.int64)
        return replace(
            self,
            indices=self.indices[perm],
            group_ids=None if self.group_ids is None else self.group_ids[perm],
        )

    def subset(self, keep: NDArray[Any]) -> "RequestStream":
        """The sub-stream of points selected by a boolean mask, order kept.

        This is how occupancy pruning is expressed in the IR: a pruned
        stream is by construction an exact subset of its dense twin.
        """
        mask = np.asarray(keep, dtype=bool)
        if mask.shape != (self.num_points,):
            raise ValueError(f"keep must have shape ({self.num_points},), got {mask.shape}")
        return replace(
            self,
            indices=self.indices[mask],
            group_ids=None if self.group_ids is None else self.group_ids[mask],
        )

    def run_starts(self) -> NDArray[Any]:
        """Boolean mask of points that start a new reuse group.

        The first point of every run of equal consecutive ``group_ids`` —
        the only points that cost memory requests under the register-reuse
        window.  Without ``group_ids`` every point is a run start.
        """
        starts = np.ones(self.num_points, dtype=bool)
        if self.group_ids is not None and self.num_points > 1:
            starts[1:] = np.diff(self.group_ids) != 0
        return starts


@runtime_checkable
class StreamSource(Protocol):
    """A front-end that emits :class:`RequestStream`\\ s over a table layout.

    ``stream(i)`` returns the i-th of ``num_streams`` streams (one per
    hash-grid level; one per embedding table).  Implementations may accept
    extra keyword arguments (e.g. a point order) beyond the protocol.
    """

    @property
    def name(self) -> str: ...

    @property
    def layout(self) -> TableLayout: ...

    @property
    def num_streams(self) -> int: ...

    def stream(self, index: int) -> RequestStream: ...


def iter_streams(source: StreamSource) -> Iterator[RequestStream]:
    """All streams of a source, in table order."""
    for index in range(source.num_streams):
        yield source.stream(index)
