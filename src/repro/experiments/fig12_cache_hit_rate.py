"""Fig. 12 (extension): on-chip cache hit rate and DRAM-traffic reduction.

Not a figure of the paper — the paper's accelerator stops at the row-buffer
register plus a passive scratchpad.  This experiment extends the evaluation
with the :mod:`repro.mem` hierarchy: per cache size (and hash function,
scene, streaming order, prefetch policy via sweeps), it reports how much of
the hash-table lookup traffic the SRAM tier absorbs and how much DRAM
traffic — and DRAM time, via the timing model — is left relative to the
uncached baseline (scratchpad only, today's pipeline behaviour).
"""

from __future__ import annotations

from ..accel.scratchpad import Scratchpad
from ..core.hashing import HashFunction, MortonLocalityHash, get_hash_function
from ..core.streaming import StreamingOrder
from ..mem import CacheConfig, CacheHierarchy, PrefetcherConfig
from ..nerf.encoding import HashGridConfig
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..workloads.traces import TraceConfig
from .runner import ExperimentResult

__all__ = ["run_fig12"]


def run_fig12(
    grid_config: HashGridConfig | None = None,
    trace_config: TraceConfig | None = None,
    cache_sizes_kb: tuple[int, ...] = (16, 64, 256, 1024),
    *,
    context: SimulationContext | None = None,
    hash_fn: HashFunction | None = None,
    order: StreamingOrder = StreamingOrder.RAY_FIRST,
    ways: int = 4,
    line_bytes: int = 64,
    mshr_latency: int = 4,
    prefetch: str = "stride",
    prefetch_degree: int = 1,
    scratchpad: Scratchpad | None = None,
    dram: str = "lpddr4-2400",
    timing: bool = True,
) -> ExperimentResult:
    """Hit rate and DRAM-traffic reduction vs SRAM cache size.

    For every cache size, the full multi-level lookup stream of one training
    batch is pushed through the scratchpad L0 window, the stream prefetcher
    and the set-associative cache; the surviving lines are compared (and,
    with ``timing=True``, serviced through the DRAM timing model at the
    finest level) against the uncached baseline in which every L0-surviving
    line request reaches DRAM.  With a shared context the per-level
    corner-index streams are reused from the locality experiments.
    """
    grid = grid_config or HashGridConfig(num_levels=16)
    trace = trace_config or TraceConfig(num_rays=128, points_per_ray=64, seed=0)
    ctx = context if context is not None else SimulationContext()
    hash_fn = hash_fn or MortonLocalityHash()
    if not cache_sizes_kb:
        raise ValueError("cache_sizes_kb must name at least one cache size")
    timing_level = grid.num_levels - 1

    rows = []
    for size_kb in cache_sizes_kb:
        hierarchy = CacheHierarchy(
            cache=CacheConfig(
                capacity_bytes=int(size_kb) * 1024,
                line_bytes=line_bytes,
                ways=ways,
                mshr_latency=mshr_latency,
            ),
            prefetcher=PrefetcherConfig(policy=prefetch, degree=prefetch_degree),
            scratchpad=scratchpad,
        )
        accesses = hits_l0 = demand = hits = coalesced = 0
        fills = useful = dram_lines = writebacks = 0
        energy_j = 0.0
        for level in range(grid.num_levels):
            stream = ctx.request_stream(grid, trace, hash_fn, order, level)
            stats = ctx.stream_filtered(hierarchy, stream).stats
            accesses += stats.l0_accesses
            hits_l0 += stats.l0_hits
            demand += stats.cache.demand_accesses
            hits += stats.cache.hits
            coalesced += stats.cache.coalesced
            fills += stats.cache.prefetch_fills
            useful += stats.cache.prefetch_useful
            dram_lines += stats.cache.dram_line_fetches
            writebacks += stats.cache.writebacks
            energy_j += stats.sram_energy_j
        row = {
            "cache_kb": int(size_kb),
            "sets": hierarchy.cache.num_sets,
            "ways": ways,
            "line_bytes": line_bytes,
            "prefetch": prefetch,
            "l0_hit_rate": hits_l0 / accesses if accesses else 0.0,
            "cache_hit_rate": hits / demand if demand else 0.0,
            "overall_hit_rate": (hits_l0 + hits + coalesced) / accesses if accesses else 0.0,
            "uncached_dram_lines": demand,
            "dram_lines": dram_lines,
            "traffic_reduction": demand / dram_lines if dram_lines else float("inf"),
            "prefetch_accuracy": useful / fills if fills else 0.0,
            "writebacks": writebacks,
            "sram_energy_uj": energy_j * 1e6,
        }
        if timing:
            stream = ctx.request_stream(grid, trace, hash_fn, order, timing_level)
            filtered = ctx.stream_filtered(hierarchy, stream)
            cached = ctx.stream_serviced(dram, filtered.dram_stream(), size_bytes=line_bytes)
            # The L0-surviving demand lines do not depend on the cache size,
            # so every size of the sweep shares one baseline simulation.
            baseline = ctx.stream_serviced(dram, filtered.demand_stream(), size_bytes=line_bytes)
            row["dram_cycles"] = cached["total_cycles"]
            row["uncached_dram_cycles"] = baseline["total_cycles"]
            row["dram_time_reduction"] = (
                baseline["total_cycles"] / cached["total_cycles"]
                if cached["total_cycles"]
                else float("inf")
            )
        rows.append(row)
    return ExperimentResult(
        experiment_id="Fig. 12 (ext.)",
        description="SRAM cache hit rate and DRAM-traffic reduction vs cache size",
        rows=rows,
        notes=(
            f"Hash {hash_fn.name}, {order.value} order, MSHR latency {mshr_latency}, "
            f"prefetch {prefetch}(degree {prefetch_degree}); baseline is the uncached pipeline "
            "in which every scratchpad-surviving line request reaches DRAM"
            + (f"; DRAM timing on {dram} at the finest level." if timing else ".")
        ),
    )


@register_experiment(
    "fig12_cache_hit_rate",
    paper_ref="Fig. 12 (ext.)",
    title="On-chip cache hit rate and DRAM-traffic reduction vs cache size",
    params=(
        ParamSpec("scene", str, "lego", help="scene whose training rays form the trace"),
        ParamSpec("hash", str, "morton", help="hash function generating the lookups"),
        ParamSpec("cache_kb", str, "16,64,256,1024", help="comma list of cache capacities (KB)"),
        ParamSpec("ways", int, 4, help="cache associativity"),
        ParamSpec("line_bytes", int, 64, help="cache line size (power of two)"),
        ParamSpec("mshr", int, 4, help="stream slots a missed line stays in flight"),
        ParamSpec(
            "prefetch",
            str,
            "stride",
            choices=("none", "next_line", "stride"),
            help="stream prefetcher policy",
        ),
        ParamSpec("prefetch_degree", int, 1, help="lines prefetched per trigger"),
        ParamSpec(
            "order",
            str,
            "ray_first",
            choices=("ray_first", "random"),
            help="point streaming order",
        ),
        ParamSpec("levels", int, 16, help="hash-grid levels"),
        ParamSpec("rays", int, 128, help="rays per trace batch"),
        ParamSpec("points_per_ray", int, 64, help="samples per ray"),
        ParamSpec("seed", int, 0, help="trace seed"),
        ParamSpec("probe_samples", int, 24, help="density probes per ray for scene traces"),
        ParamSpec("dram", str, "lpddr4-2400", help="DRAM spec servicing the misses"),
        ParamSpec("timing", bool, True, help="run the DRAM timing model at the finest level"),
    ),
    tags=("memory", "extension"),
    provides=("stream_filtered",),
    consumes=("level_indices", "request_stream"),
)
def fig12_experiment(
    ctx: SimulationContext,
    *,
    scene: str,
    hash: str,
    cache_kb: str,
    ways: int,
    line_bytes: int,
    mshr: int,
    prefetch: str,
    prefetch_degree: int,
    order: str,
    levels: int,
    rays: int,
    points_per_ray: int,
    seed: int,
    probe_samples: int,
    dram: str,
    timing: bool,
) -> ExperimentResult:
    sizes = tuple(int(v) for v in cache_kb.split(",") if v.strip())
    if not sizes or any(s <= 0 for s in sizes):
        raise ValueError(f"cache_kb must be positive integers, got {cache_kb!r}")
    grid = HashGridConfig(num_levels=levels)
    trace = TraceConfig(
        num_rays=rays,
        points_per_ray=points_per_ray,
        seed=seed,
        scene=scene or None,
        probe_samples=probe_samples,
    )
    return run_fig12(
        grid,
        trace,
        sizes,
        context=ctx,
        hash_fn=get_hash_function(hash),
        order=StreamingOrder(order),
        ways=ways,
        line_bytes=line_bytes,
        mshr_latency=mshr,
        prefetch=prefetch,
        prefetch_degree=prefetch_degree,
        dram=dram,
        timing=timing,
    )
