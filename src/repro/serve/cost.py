"""Batch service times from the existing hierarchy → DRAM → NMP cost models.

One coalesced batch is priced by replaying its tenant-tagged request stream
through the exact models the paper experiments use:

* the on-chip hierarchy (:meth:`repro.mem.hierarchy.CacheHierarchy.filter_stream`)
  filters the finest-level corner lookups down to surviving line fetches;
* the DRAM timing model (:meth:`repro.dram.system.DRAMSystem.service_batch`)
  services those lines cycle-accurately, and the elapsed nanoseconds are
  scaled by the level count (hashed levels are statistically symmetric, so
  the finest level is simulated and stands in for all of them);
* the near-bank accelerator model (:class:`repro.accel.nmp.NMPAccelerator`)
  prices the per-point forward-MLP compute that overlaps the memory traffic.

Memory and compute overlap exactly as in :class:`repro.accel.nmp.StepCost`
(``max(memory, compute)``), plus a fixed per-batch dispatch overhead — which
is what makes batching worth it and what the fig14 throughput comparison
against a per-request oracle measures.

:meth:`ServiceCostModel.costs` prices many batches in a few passes through
the same engines, each batch's stream starting cold (empty scratchpad
window, no prefetch history, empty cache sets, idle DRAM banks), and gives
each batch exactly what :meth:`cost` gives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..accel.nmp import NMPAccelerator
from ..core.hashing import get_hash_function
from ..core.precision import validate_precision
from ..dram.spec import get_dram_spec
from ..dram.system import DRAMSystem
from ..mem import CacheConfig, CacheHierarchy, PrefetcherConfig
from ..nerf.encoding import HashGridConfig
from .stream import RequestTable, compile_requests
from .workload import RenderRequest

if TYPE_CHECKING:
    from collections.abc import Sequence

    from ..dram.system import TraceResult
    from ..streams.ir import RequestStream

__all__ = ["PASS_POINTS", "ServiceCost", "ServiceCostConfig", "ServiceCostModel"]

#: Sample points :meth:`ServiceCostModel.costs` prices per memory-system
#: pass.  A pass this size already amortizes the engines' per-call cost,
#: and larger passes put their stream-length temporaries on fresh pages:
#: on fig14-default batches, one pass over 38,000 points took ~8,000 minor
#: faults and was ~25% slower than passes of 4,096 points, which took none.
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
        """Service-latency breakdown of one coalesced batch (see :meth:`batch_stream`).

        What :meth:`costs` gives this batch, priced through the one-stream
        :meth:`~repro.mem.hierarchy.CacheHierarchy.filter_stream` and
        :meth:`~repro.dram.system.DRAMSystem.service_batch`.
        """
        stream = self.batch_stream(requests, table)
        filtered = self.hierarchy.filter_stream(stream)
        lines = filtered.dram_stream()
        serviced = self.dram.service_batch(lines, size_bytes=self.config.line_bytes)
        return self._service_cost(len(requests), stream.num_points, serviced)

    def costs(
        self,
        batches: "Sequence[Sequence[RenderRequest]]",
        table: RequestTable | None = None,
    ) -> list[ServiceCost]:
        """:meth:`cost` of every batch, priced in a few memory-system passes.

        Each batch is priced as if it were alone: the hierarchy
        (:meth:`~repro.mem.hierarchy.CacheHierarchy.filter_streams`) and
        DRAM (:meth:`~repro.dram.system.DRAMSystem.service_batches`) start
        every batch's stream cold, so the list equals one :meth:`cost` call
        per batch.  Consecutive batches share a pass up to
        :data:`PASS_POINTS` sample points.  Without ``table`` the batches'
        requests are compiled together first.
        """
        if not batches:
            return []
        if table is None:
            table = self.compile(list(dict.fromkeys(r for batch in batches for r in batch)))
        prices: list[ServiceCost] = []
        group: list[tuple[int, RequestStream]] = []
        points = 0
        for batch in batches:
            stream = table.batch_stream(batch)
            if group and points + stream.num_points > PASS_POINTS:
                prices += self._price_pass(group)
                group, points = [], 0
            group.append((len(batch), stream))
            points += stream.num_points
        return prices + self._price_pass(group)

    def _price_pass(self, batches: "list[tuple[int, RequestStream]]") -> list[ServiceCost]:
        """Price ``(requests, stream)`` batches in one hierarchy and one DRAM call."""
        filtered = self.hierarchy.filter_streams([stream for _, stream in batches])
        serviced = self.dram.service_batches(
            [f.dram_stream() for f in filtered], size_bytes=self.config.line_bytes
        )
        return [
            self._service_cost(requests, stream.num_points, result)
            for (requests, stream), result in zip(batches, serviced)
        ]

    def _service_cost(
        self, num_requests: int, num_points: int, serviced: "TraceResult"
    ) -> ServiceCost:
        dram_us = serviced.elapsed_ns * self.config.grid_levels / 1e3
        return ServiceCost(
            num_requests=num_requests,
            num_points=num_points,
            dram_us=float(dram_us),
            compute_us=self.compute_us(num_points),
            overhead_us=self.config.batch_overhead_us,
        )

    def compute_us(self, num_points: int) -> float:
        """Forward-MLP compute time of ``num_points`` sample points."""
        return float(self.compute_us_per_point * num_points)
