"""Batch service times from the existing hierarchy → DRAM → NMP cost models.

One coalesced batch is priced by replaying its tenant-tagged lookups through
the exact models the paper experiments use:

* the on-chip hierarchy (:meth:`repro.mem.hierarchy.CacheHierarchy.filter_lines`)
  filters the finest-level corner lookups down to surviving line fetches;
* the DRAM timing model (:meth:`repro.dram.system.DRAMSystem.service_addresses`)
  services those lines cycle-accurately, and the elapsed nanoseconds are
  multiplied by the level count;
* the near-bank accelerator model (:class:`repro.accel.nmp.NMPAccelerator`)
  prices the per-point forward-MLP compute that overlaps the memory traffic.

Memory and compute overlap exactly as in :class:`repro.accel.nmp.StepCost`
(``max(memory, compute)``), plus a fixed per-batch dispatch overhead — which
is what makes batching worth it and what the fig14 throughput comparison
against a per-request oracle measures.

Timing only the finest level and multiplying by the level count is an
approximation, and it prices DRAM low.  On 32 two-request batches of
``ServeWorkloadConfig()``'s first 64 requests, the priced DRAM time is 0.87
of the time summed over every level at the defaults (14.6 against 16.7 us;
0.76-1.08 per batch) and 0.73 at 16 levels behind a 4 KB cache (82.9
against 113.2 us; 0.56-0.96 per batch).  The same batches take 33.4 us of
compute, so at the defaults they stay compute-bound either way; at 16
levels DRAM binds and its price is about a quarter short.

:meth:`ServiceCostModel.costs` prices many batches in a few passes through
the same engines, each batch's lookups starting cold (empty scratchpad
window, no prefetch history, empty cache sets, idle DRAM banks), so each
batch costs what it costs alone; :meth:`ServiceCostModel.cost` is its
one-batch case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..accel.nmp import NMPAccelerator
from ..core.hashing import get_hash_function
from ..core.precision import validate_precision
from ..core.sorting import modulo
from ..dram.spec import get_dram_spec
from ..dram.system import DRAMSystem
from ..mem import CacheConfig, CacheHierarchy, PrefetcherConfig
from ..nerf.encoding import HashGridConfig
from .stream import RequestTable, compile_requests
from .workload import RenderRequest

if TYPE_CHECKING:
    from collections.abc import Sequence

    from ..streams.ir import RequestStream

__all__ = ["PASS_POINTS", "ServiceCost", "ServiceCostConfig", "ServiceCostModel"]

#: Sample points :meth:`ServiceCostModel.costs` prices per memory-system
#: pass.  A pass this size already amortizes the engines' per-call cost.
#: In paired perfbench ``serve`` runs (seed 1, four 10 s pairs each),
#: 2,048-point passes were slower in every pair (3,988 -> 3,684 work per
#: second) and 8,192-point passes in three of four (3,985 -> 3,916).
PASS_POINTS = 4096


@dataclass(frozen=True)
class ServiceCostConfig:
    """Memory-system + accelerator configuration pricing one serving batch.

    The hash grid is a serving-scale one (fewer, coarser levels than the
    paper's training grid) so per-batch DRAM simulation stays cheap; all the
    knobs of the underlying models are exposed because they are exactly the
    axes the paper sweeps.
    """

    dram: str = "lpddr4-2400"
    cache_kb: int = 64
    ways: int = 4
    line_bytes: int = 64
    mshr_latency: int = 4
    prefetch: str = "stride"
    prefetch_degree: int = 1
    grid_levels: int = 4
    table_size: int = 2**15
    base_resolution: int = 16
    max_resolution: int = 128
    features_per_entry: int = 2
    dtype: str = "fp16"
    hash_fn: str = "morton"
    #: Fixed dispatch cost charged once per batch (kernel launch, packing).
    batch_overhead_us: float = 2.0

    def __post_init__(self) -> None:
        validate_precision(self.dtype)
        if self.cache_kb <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache_kb, ways and line_bytes must be positive")
        if self.grid_levels <= 0 or self.table_size <= 0:
            raise ValueError("grid_levels and table_size must be positive")
        if self.base_resolution <= 0 or self.max_resolution < self.base_resolution:
            raise ValueError("resolutions must satisfy 0 < base <= max")
        if self.features_per_entry <= 0:
            raise ValueError("features_per_entry must be positive")
        if self.batch_overhead_us < 0.0:
            raise ValueError(f"batch_overhead_us must be >= 0, got {self.batch_overhead_us}")

    def grid(self) -> HashGridConfig:
        """The serving hash grid this cost model evaluates against."""
        return HashGridConfig(
            num_levels=self.grid_levels,
            table_size=self.table_size,
            features_per_entry=self.features_per_entry,
            base_resolution=self.base_resolution,
            max_resolution=self.max_resolution,
            hash_fn=get_hash_function(self.hash_fn),
            dtype=self.dtype,
        )


@dataclass(frozen=True)
class ServiceCost:
    """Latency breakdown of servicing one coalesced batch."""

    num_requests: int
    num_points: int
    dram_us: float
    compute_us: float
    overhead_us: float

    @property
    def total_us(self) -> float:
        """Batch service latency: overlapped memory/compute plus dispatch."""
        return self.overhead_us + max(self.dram_us, self.compute_us)


class ServiceCostModel:
    """Prices coalesced batches through the shared memory/accelerator models.

    Deterministic: the same batch always costs the same microseconds (the
    DRAM model is cycle-accurate and the compute term is a per-point
    constant derived once from the accelerator's forward-MLP step cost).
    """

    def __init__(self, config: ServiceCostConfig | None = None):
        self.config = config or ServiceCostConfig()
        self.grid = self.config.grid()
        self.level = self.config.grid_levels - 1
        self.hierarchy = CacheHierarchy(
            cache=CacheConfig(
                capacity_bytes=self.config.cache_kb * 1024,
                line_bytes=self.config.line_bytes,
                ways=self.config.ways,
                mshr_latency=self.config.mshr_latency,
            ),
            prefetcher=PrefetcherConfig(
                policy=self.config.prefetch, degree=self.config.prefetch_degree
            ),
        )
        self.dram = DRAMSystem(get_dram_spec(self.config.dram))
        accelerator = NMPAccelerator()
        step = accelerator.step_cost("MLP")
        per_iteration_points = float(accelerator.effective_points_per_iteration)
        self.compute_us_per_point = step.compute_seconds * 1e6 / per_iteration_points

    # ------------------------------------------------------------------ API
    def compile(self, requests: "Sequence[RenderRequest]") -> RequestTable:
        """The finest-level lookup rows of ``requests``, compiled once.

        The table is read-only and never stored on the model: callers pass
        it to :meth:`batch_stream` / :meth:`cost`, so one model stays
        shareable across threads.
        """
        return compile_requests(requests, self.grid, self.grid.hash_fn, self.level)

    def batch_stream(
        self, requests: "Sequence[RenderRequest]", table: RequestTable | None = None
    ) -> "RequestStream":
        """The tenant-tagged finest-level stream of one coalesced batch.

        With ``table`` (from :meth:`compile` over a superset of the batch)
        the stream is the batch's rows of the table; without, the batch is
        compiled on its own.  Both give the same stream.
        """
        if table is None:
            return self.compile(requests).stream
        return table.batch_stream(requests)

    def cost(
        self, requests: "Sequence[RenderRequest]", table: RequestTable | None = None
    ) -> ServiceCost:
        """Service-latency breakdown of one coalesced batch: :meth:`costs` of it alone."""
        return self.costs([requests], table)[0]

    def costs(
        self,
        batches: "Sequence[Sequence[RenderRequest]]",
        table: RequestTable | None = None,
    ) -> list[ServiceCost]:
        """The :class:`ServiceCost` of every batch, priced in a few memory-system passes.

        Consecutive batches share a pass up to :data:`PASS_POINTS` sample
        points.  A pass gathers its batches' rows from ``table`` with one
        index, turns only those rows into line ids, and runs
        :meth:`~repro.mem.hierarchy.CacheHierarchy.filter_lines` and
        :meth:`~repro.dram.system.DRAMSystem.service_addresses` once, with a
        stream id per batch.  Both start every batch's stream cold, so each
        batch is priced as if it were alone, whatever shares its pass.
        Without ``table`` the batches' requests are compiled together
        first.  Raises ``ValueError`` for an empty batch or a request the
        table did not compile.
        """
        if not batches:
            return []
        if table is None:
            table = self.compile(list(dict.fromkeys(r for batch in batches for r in batch)))
        prices: list[ServiceCost] = []
        group: list[tuple[list[tuple[int, int]], int]] = []
        points = 0
        for batch in batches:
            spans = table.spans(batch)
            size = sum(stop - start for start, stop in spans)
            if group and points + size > PASS_POINTS:
                prices += self._price_pass(table, group)
                group, points = [], 0
            group.append((spans, size))
            points += size
        return prices + self._price_pass(table, group)

    def _price_pass(
        self, table: RequestTable, batches: list[tuple[list[tuple[int, int]], int]]
    ) -> list[ServiceCost]:
        """Price ``(row spans, points)`` batches in one memory-system pass."""
        starts, stops = np.array([span for spans, _ in batches for span in spans]).T
        lengths = stops - starts
        ends = lengths.cumsum()
        rows = np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)
        stream, line_bytes = table.stream, self.config.line_bytes
        lines = stream.indices[rows]  # a fresh copy: the line ids are built in place
        lines *= stream.entry_bytes
        lines += stream.base_address
        lines //= line_bytes
        ids = None
        if len(batches) > 1:
            ids = np.repeat(np.arange(len(batches)), [size for _, size in batches])
        filtered = self.hierarchy.filter_lines(lines, ids)
        capacity = self.dram.spec.organization.total_capacity_bytes
        cycles, _, _ = self.dram.service_addresses(
            modulo(filtered.dram * line_bytes, capacity),
            line_bytes,
            streams=filtered.dram_streams,
            num_streams=len(batches),
        )
        # The finest level's DRAM time, scaled to all levels.
        ns_per_cycle, levels = self.dram.spec.clock_period_ns, self.config.grid_levels
        return [
            ServiceCost(
                num_requests=len(spans),
                num_points=num_points,
                dram_us=float(batch_cycles * ns_per_cycle * levels / 1e3),
                compute_us=self.compute_us(num_points),
                overhead_us=self.config.batch_overhead_us,
            )
            for (spans, num_points), batch_cycles in zip(batches, cycles)
        ]

    def compute_us(self, num_points: int) -> float:
        """Forward-MLP compute time of ``num_points`` sample points."""
        return float(self.compute_us_per_point * num_points)
