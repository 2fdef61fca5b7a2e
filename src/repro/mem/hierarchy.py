"""On-chip memory hierarchy between hash-grid lookup streams and DRAM.

:class:`CacheHierarchy` composes the tiers the accelerator puts in front of
the DRAM banks:

* **L0 — scratchpad**: the per-bank :class:`repro.accel.scratchpad.Scratchpad`
  stages the lines of the point currently being interpolated.  An access
  whose line was already touched earlier in the same point, or held from the
  immediately preceding point, never leaves the scratchpad — this is the
  register/scratchpad reuse window of the microarchitecture (the same
  semantics the Fig. 7 locality statistics measure), bounded by the
  scratchpad capacity.
* **L1 — SRAM cache**: the set-associative write-back cache of
  :mod:`repro.mem.cache`, optionally fed by the stream prefetcher of
  :mod:`repro.mem.prefetch`.
* **DRAM**: only L1 misses (plus prefetch fills and dirty writebacks)
  leave the chip; :meth:`CacheHierarchy.filter_stream` returns a
  :class:`FilteredStream` whose ``dram_stream()`` — the demand misses and
  prefetch fills, as a line-read :class:`~repro.streams.RequestStream` —
  is what :meth:`repro.dram.system.DRAMSystem.service_batch` services.

Every stage has a vectorized whole-stream engine and a retained per-access
reference oracle (:meth:`CacheHierarchy.filter_stream_reference`), and the
two are exactly equivalent on any input stream.  The engines also take an
optional stream id per point or access, so :meth:`CacheHierarchy.filter_lines`,
the hierarchy's array entry, filters the line matrices of many streams in
one pass, each as if it were alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..accel.scratchpad import Scratchpad
from ..obs import get_metrics, get_tracer
from ..streams.ir import RequestStream, StreamKind
from .cache import (
    MISS,
    PREFETCH_FILL,
    CacheConfig,
    CacheStats,
    simulate_cache,
    simulate_cache_reference,
)
from .prefetch import PrefetcherConfig, plan_prefetches, plan_prefetches_reference

__all__ = [
    "scratchpad_filter",
    "scratchpad_filter_reference",
    "HierarchyStats",
    "FilteredLines",
    "FilteredStream",
    "CacheHierarchy",
]


def scratchpad_filter(
    lines: NDArray[Any], capacity_lines: int, streams: NDArray[Any] | None = None
) -> NDArray[Any]:
    """Mask of accesses that miss the L0 scratchpad window, shape ``(N, P)``.

    ``lines`` holds the line id of each of the ``P`` lookups of ``N``
    consecutive points in stream order.  An access is filtered (``False``)
    when its line already appeared earlier within the same point, or is
    among the first ``capacity_lines`` distinct lines of the previous point
    (the lines the scratchpad still holds).  Equivalent to
    :func:`scratchpad_filter_reference`.

    ``streams`` optionally gives each point a stream id; the points of one
    stream are consecutive.  Each stream starts cold: its first point finds
    the window empty, whatever the previous stream's last point held, so
    every stream gets exactly the mask it would get alone.

    Blocks of points are transposed to ``(P, N)`` line matrices and take two
    broadcast compares of ``(P, P, N)`` bools.  The first matches each access
    against the earlier accesses of its point (a strictly lower-triangular
    mask): one with no match is a first occurrence, held when its rank (a
    cumulative sum down the point) is below ``capacity_lines``.  The second
    matches each access against the previous point's held lines.  When every
    line id fits in int32 (one min/max check), the transposed blocks are
    32-bit copies, which halves the bytes the compares read; otherwise they
    stay int64.
    """
    if capacity_lines <= 0:
        raise ValueError(f"capacity_lines must be positive, got {capacity_lines}")
    lines = np.asarray(lines, dtype=np.int64)
    if lines.ndim != 2:
        raise ValueError(f"lines must have shape (N, P), got {lines.shape}")
    n, p = lines.shape
    narrow = lines.size == 0 or (lines.min() >= -(2**31) and lines.max() < 2**31)
    width = np.int32 if narrow else np.int64
    # Points per block, each block's temporaries allocated afresh.  In paired
    # perfbench runs (seed 1, four 10 s pairs per workload) 4,096 points won
    # 3/4 ``memsys`` and 1/4 ``serve`` pairs and 1,024 points 2/4 and 1/4;
    # keeping the temporaries in the engines' scratch pool lost 4/5
    # ``memsys`` pairs.
    block = 2048
    earlier = np.tri(p, p, -1, dtype=bool)[:, :, None]
    emit = np.empty((n, p), dtype=bool)
    for lo in range(0, n, block):
        start = max(lo - 1, 0)  # with the previous point, whose held lines matter
        by_point = np.ascontiguousarray(lines[start : lo + block].T, dtype=width)
        first = ~((by_point[:, None] == by_point[None]) & earlier).any(axis=1)
        held = first & (first.cumsum(axis=0) <= capacity_lines)
        if streams is not None:  # a stream's last point holds nothing for the next
            ids = streams[start : lo + block]
            held[:, :-1] &= ids[1:] == ids[:-1]
        same_held = (by_point[:, None, 1:] == by_point[None, :, :-1]) & held[None, :, :-1]
        first[:, 1:] &= ~same_held.any(axis=1)
        emit[lo : lo + block] = first.T[lo - start :]
    return emit


def scratchpad_filter_reference(lines: NDArray[Any], capacity_lines: int) -> NDArray[Any]:
    """Per-point loop oracle for :func:`scratchpad_filter`."""
    if capacity_lines <= 0:
        raise ValueError(f"capacity_lines must be positive, got {capacity_lines}")
    lines = np.asarray(lines, dtype=np.int64)
    n, p = lines.shape
    emit = np.zeros((n, p), dtype=bool)
    held: set[int] = set()
    for i in range(n):
        distinct: list[int] = []
        for j in range(p):
            line = int(lines[i, j])
            if line not in distinct:
                if line not in held:
                    emit[i, j] = True
                distinct.append(line)
        held = set(distinct[:capacity_lines])
    return emit


@dataclass(frozen=True)
class HierarchyStats:
    """Aggregate hit/miss/energy accounting of one filtered stream."""

    num_points: int
    accesses_per_point: int
    l0_accesses: int
    l0_hits: int
    cache: CacheStats
    line_bytes: int
    l0_energy_j: float = 0.0
    cache_energy_j: float = 0.0

    @property
    def l0_hit_rate(self) -> float:
        return self.l0_hits / self.l0_accesses if self.l0_accesses else 0.0

    @property
    def demand_lines(self) -> int:
        """Line requests surviving L0 — the uncached-baseline DRAM traffic."""
        return self.cache.demand_accesses

    @property
    def dram_line_fetches(self) -> int:
        return self.cache.dram_line_fetches

    @property
    def dram_traffic_fraction(self) -> float:
        """DRAM line fetches per uncached-baseline line request (<= ~1)."""
        if self.demand_lines == 0:
            return 1.0
        return self.dram_line_fetches / self.demand_lines

    @property
    def traffic_reduction(self) -> float:
        """Uncached-baseline requests per serviced DRAM fetch (>= 1 is a win)."""
        if self.dram_line_fetches == 0:
            return float("inf") if self.demand_lines else 1.0
        return self.demand_lines / self.dram_line_fetches

    @property
    def overall_hit_rate(self) -> float:
        """Fraction of raw lookups serviced on chip (L0 or L1)."""
        if not self.l0_accesses:
            return 0.0
        return (self.l0_hits + self.cache.hits + self.cache.coalesced) / self.l0_accesses

    @property
    def sram_energy_j(self) -> float:
        return self.l0_energy_j + self.cache_energy_j

    @property
    def energy_per_access_j(self) -> float:
        return self.sram_energy_j / self.l0_accesses if self.l0_accesses else 0.0


@dataclass(frozen=True)
class FilteredLines:
    """Flat arrays of one :meth:`CacheHierarchy.filter_lines` pass."""

    #: L0-surviving demand line ids, in stream order (the L1 input).
    demand: NDArray[Any] = field(repr=False)
    #: Demand + injected prefetch accesses, and the per-access flags/outcomes.
    merged: NDArray[Any] = field(repr=False)
    is_prefetch: NDArray[Any] = field(repr=False)
    outcomes: NDArray[Any] = field(repr=False)
    #: Line ids fetched from DRAM (demand misses + prefetch fills), stream order.
    dram: NDArray[Any] = field(repr=False)
    #: Outcome counts summed over the streams.
    cache: CacheStats
    #: The stream id of each merged access and of each DRAM line (``None``
    #: without stream ids).
    streams: NDArray[Any] | None = field(default=None, repr=False)
    dram_streams: NDArray[Any] | None = field(default=None, repr=False)


@dataclass(frozen=True)
class FilteredStream:
    """Result of pushing one lookup stream through the hierarchy."""

    line_bytes: int
    #: L0-surviving demand line ids, in stream order (the L1 input).
    demand_lines: NDArray[Any] = field(repr=False)
    #: Demand + injected prefetch accesses, and the per-access flags/outcomes.
    merged_lines: NDArray[Any] = field(repr=False)
    is_prefetch: NDArray[Any] = field(repr=False)
    outcomes: NDArray[Any] = field(repr=False)
    #: Line ids fetched from DRAM (demand misses + prefetch fills), stream order.
    dram_lines: NDArray[Any] = field(repr=False)
    stats: HierarchyStats

    @property
    def dram_addresses(self) -> NDArray[Any]:
        """Byte addresses of the lines that must actually be fetched."""
        return self.dram_lines * self.line_bytes

    def _line_stream(self, lines: NDArray[Any], label: str) -> RequestStream:
        table_entries = int(lines.max()) + 1 if lines.size else 1
        return RequestStream(
            indices=np.asarray(lines, dtype=np.int64).reshape(-1, 1),
            entry_bytes=self.line_bytes,
            table_entries=table_entries,
            kind=StreamKind.READ,
            source="mem.hierarchy",
            label=label,
        )

    def demand_stream(self) -> RequestStream:
        """The uncached-baseline line traffic as a line-read :class:`RequestStream`."""
        return self._line_stream(self.demand_lines, "demand")

    def dram_stream(self) -> RequestStream:
        """The surviving DRAM line fetches as a line-read :class:`RequestStream`."""
        return self._line_stream(self.dram_lines, "dram")


class CacheHierarchy:
    """Scratchpad (L0) + SRAM cache (L1) + prefetcher in front of DRAM."""

    def __init__(
        self,
        cache: CacheConfig | None = None,
        prefetcher: PrefetcherConfig | None = None,
        scratchpad: Scratchpad | None = None,
    ):
        self.cache = cache or CacheConfig()
        self.prefetcher = prefetcher or PrefetcherConfig()
        self.scratchpad = scratchpad or Scratchpad()
        self.capacity_lines = max(1, self.scratchpad.capacity_bytes // self.cache.line_bytes)

    # ----------------------------------------------------------- simulation
    def _lines(self, stream: RequestStream) -> NDArray[Any]:
        """Per-point line ids ``(N, P)`` of a request stream."""
        return (stream.addresses // self.cache.line_bytes).reshape(stream.indices.shape)

    def _assemble(
        self, lines: NDArray[Any], passed: FilteredLines, entry_bytes: int
    ) -> FilteredStream:
        num_points, per_point = lines.shape
        l0_accesses = int(lines.size)
        l0_energy = self.scratchpad.access_energy_j(
            l0_accesses * entry_bytes + passed.demand.size * self.cache.line_bytes
        )
        stats = HierarchyStats(
            num_points=num_points,
            accesses_per_point=per_point,
            l0_accesses=l0_accesses,
            l0_hits=l0_accesses - int(passed.demand.size),
            cache=passed.cache,
            line_bytes=self.cache.line_bytes,
            l0_energy_j=l0_energy,
            cache_energy_j=passed.cache.energy_j(self.cache),
        )
        return FilteredStream(
            line_bytes=self.cache.line_bytes,
            demand_lines=passed.demand,
            merged_lines=passed.merged,
            is_prefetch=passed.is_prefetch,
            outcomes=passed.outcomes,
            dram_lines=passed.dram,
            stats=stats,
        )

    def filter_stream(self, stream: RequestStream) -> FilteredStream:
        """Push one request stream through L0 + prefetcher + L1.

        The stream's point shape, access kind (a ``WRITE`` stream models the
        gradient-scatter direction: every demand access writes its line) and
        ``entry_bytes`` (which only scales the scratchpad read energy) all
        come from the IR.  Its line matrix goes through :meth:`filter_lines`.
        Returns the :class:`FilteredStream` whose ``dram_stream()`` is the
        only traffic the DRAM system still has to service.
        """
        lines = self._lines(stream)
        passed = self.filter_lines(lines, writes=stream.writes)
        return self._assemble(lines, passed, stream.entry_bytes)

    def filter_lines(
        self, lines: NDArray[Any], streams: NDArray[Any] | None = None, writes: bool = False
    ) -> FilteredLines:
        """Push an ``(N, P)`` line-id matrix through L0 + prefetcher + L1.

        The array entry of the hierarchy: :meth:`filter_stream` and
        :meth:`repro.serve.cost.ServiceCostModel.costs` both call it.
        ``streams`` optionally gives each point a stream id, counting up
        from 0; the points of one stream are consecutive.  Every stream
        starts cold: an empty L0 window, no prefetch stride history and
        empty cache sets, whatever the streams before it left behind, so
        each stream's accesses get exactly the outcomes they get alone.
        With ``writes`` every demand access writes its line.  When tracing,
        one ``mem.filter_stream`` span (with the stream count in its args)
        and one set of ``mem.*`` counters cover the call; the counters add
        up to what one call per stream would count.
        """
        with get_tracer().span("mem.filter_stream", "mem") as span:
            # ``compress``: several times faster than a long boolean index
            kept = scratchpad_filter(lines, self.capacity_lines, streams).ravel()
            demand = lines.compress(kept)
            demand_ids = None if streams is None else streams.repeat(lines.shape[1]).compress(kept)
            merged, is_prefetch = plan_prefetches(demand, self.prefetcher, demand_ids)
            merged_ids = None
            if demand_ids is not None:
                # A prefetch belongs to the stream of the demand access before it.
                merged_ids = demand_ids[np.cumsum(~is_prefetch) - 1]
            is_write = ~is_prefetch if writes else None
            outcomes, cache = simulate_cache(merged, self.cache, is_write, is_prefetch, merged_ids)
            fetched = (outcomes == MISS) | (outcomes == PREFETCH_FILL)
            passed = FilteredLines(
                demand=demand,
                merged=merged,
                is_prefetch=is_prefetch,
                outcomes=outcomes,
                dram=merged.compress(fetched),
                cache=cache,
                streams=merged_ids,
                dram_streams=None if merged_ids is None else merged_ids.compress(fetched),
            )
            if span.enabled:
                num_streams = 1 if streams is None else int(streams.max(initial=-1)) + 1
                span.add_args(
                    streams=num_streams, points=lines.shape[0], dram_lines=int(passed.dram.size)
                )
                metrics = get_metrics()
                metrics.counter("mem.l0_accesses").inc(int(lines.size))
                metrics.counter("mem.l0_hits").inc(int(lines.size - demand.size))
                metrics.counter("mem.cache_hits").inc(cache.hits)
                metrics.counter("mem.cache_misses").inc(cache.misses)
                metrics.counter("mem.cache_coalesced").inc(cache.coalesced)
                metrics.counter("mem.prefetch_fills").inc(cache.prefetch_fills)
                metrics.counter("mem.prefetch_useful").inc(cache.prefetch_useful)
                metrics.counter("mem.writebacks").inc(cache.writebacks)
                metrics.counter("mem.dram_line_fetches").inc(int(passed.dram.size))
            return passed

    def filter_stream_reference(self, stream: RequestStream) -> FilteredStream:
        """Per-access oracle composition for :meth:`filter_stream`."""
        lines = self._lines(stream)
        demand = lines[scratchpad_filter_reference(lines, self.capacity_lines)]
        merged, is_prefetch = plan_prefetches_reference(demand, self.prefetcher)
        is_write = ~is_prefetch if stream.writes else None
        outcomes, cache_stats = simulate_cache_reference(merged, self.cache, is_write, is_prefetch)
        dram = merged[(outcomes == MISS) | (outcomes == PREFETCH_FILL)]
        passed = FilteredLines(demand, merged, is_prefetch, outcomes, dram, cache_stats)
        return self._assemble(lines, passed, stream.entry_bytes)
