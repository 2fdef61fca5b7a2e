"""Fig. 15 (extension): the paper's memory analyses on embedding-table traffic.

Not a figure of the paper — this experiment proves the request-stream IR is
a real front-end/memory-system boundary by running the *same three
analyses* the NeRF pipeline uses (Fig. 7 locality accounting, Fig. 9 bank
conflicts, Fig. 12 cache filtering + DRAM timing) on recommendation-style
embedding-table lookups.  No analysis code changes: the embedding front-end
(:class:`repro.workloads.embedding.EmbeddingStreamSource`) emits typed
:class:`repro.streams.RequestStream` objects and the shared IR consumers —
:func:`repro.core.streaming.row_requests_for_stream`,
:class:`repro.core.mapping.HashTableMapper`,
:meth:`repro.mem.hierarchy.CacheHierarchy.filter_stream`,
:meth:`repro.dram.system.DRAMSystem.service_batch` — do the rest.

The ``sorted`` stream order (equal lookup bags streamed back to back) plays
the role ray-first streaming plays for NeRF traces; ``arrival`` order is
the random-order baseline.
"""

from __future__ import annotations

from ..core.mapping import HashTableMapper, HashTableMappingConfig, IntraLevelPolicy
from ..core.streaming import stream_register_hit_rate, stream_sharing_run_length
from ..mem import CacheConfig, CacheHierarchy, PrefetcherConfig
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..workloads.embedding import EmbeddingTraceConfig
from .runner import ExperimentResult

__all__ = ["run_fig15"]


def run_fig15(
    config: EmbeddingTraceConfig | None = None,
    subarray_counts: tuple[int, ...] = (1, 4, 16),
    *,
    context: SimulationContext | None = None,
    parallel_points: int = 32,
    cache_kb: int = 64,
    ways: int = 4,
    line_bytes: int = 64,
    mshr_latency: int = 4,
    prefetch: str = "stride",
    prefetch_degree: int = 1,
    dram: str = "lpddr4-2400",
    timing: bool = True,
) -> ExperimentResult:
    """Locality, bank-conflict and cache behaviour of embedding lookups.

    Per embedding table: bag-sharing run length and register hit rate of the
    sorted stream, row requests in arrival vs sorted order (their ratio is
    the effective-bandwidth improvement of bag sorting — the Fig. 7
    analysis), residual bank conflicts under the subarray-interleaved
    mapping (Fig. 9), and the cache hierarchy's traffic reduction with DRAM
    timing of the surviving lines (Fig. 12).
    """
    cfg = config or EmbeddingTraceConfig()
    ctx = context if context is not None else SimulationContext()
    if not subarray_counts or any(c <= 0 for c in subarray_counts):
        raise ValueError(f"subarray_counts must be positive, got {subarray_counts!r}")
    row_bytes = ctx.dram_spec(dram).organization.row_buffer_bytes
    hierarchy = CacheHierarchy(
        cache=CacheConfig(
            capacity_bytes=int(cache_kb) * 1024,
            line_bytes=line_bytes,
            ways=ways,
            mshr_latency=mshr_latency,
        ),
        prefetcher=PrefetcherConfig(policy=prefetch, degree=prefetch_degree),
    )

    rows = []
    for table in range(cfg.num_tables):
        arrival = ctx.embedding_stream(cfg, table, order="arrival")
        bagged = ctx.embedding_stream(cfg, table, order="sorted")
        arrival_requests = ctx.stream_row_requests(arrival, row_bytes)
        sorted_requests = ctx.stream_row_requests(bagged, row_bytes)
        row: dict = {
            "table": table,
            "table_rows": cfg.table_rows,
            "distribution": cfg.distribution,
            "entry_bytes": cfg.entry_bytes,
            "bag_sharing_run_length": stream_sharing_run_length(bagged),
            "register_hit_rate": stream_register_hit_rate(bagged),
            "arrival_row_requests": arrival_requests,
            "sorted_row_requests": sorted_requests,
            "effective_bw_improvement": (
                arrival_requests / sorted_requests if sorted_requests else float("inf")
            ),
        }
        # Fig. 9 analysis, unchanged: the mapper takes any TableLayout.
        for subarrays in subarray_counts:
            mapper = HashTableMapper(
                cfg.layout,
                HashTableMappingConfig(
                    subarrays_per_bank=subarrays,
                    entry_bytes=cfg.entry_bytes,
                    intra_level_policy=IntraLevelPolicy.SUBARRAY_INTERLEAVED,
                ),
            )
            stats = mapper.count_conflicts(
                table, bagged.indices.ravel(), parallel_points=parallel_points
            )
            row[f"conflicts_{subarrays}sa"] = stats.bank_conflicts
            if subarrays == subarray_counts[0]:
                row["sequential_fraction"] = stats.sequential_fraction
        # Fig. 12 analysis, unchanged: filter the stream, service the rest.
        filtered = ctx.stream_filtered(hierarchy, bagged)
        stats_h = filtered.stats
        row.update(
            {
                "cache_kb": int(cache_kb),
                "l0_hit_rate": stats_h.l0_hit_rate,
                "overall_hit_rate": stats_h.overall_hit_rate,
                "uncached_dram_lines": stats_h.demand_lines,
                "dram_lines": stats_h.dram_line_fetches,
                "traffic_reduction": stats_h.traffic_reduction,
            }
        )
        if timing:
            cached = ctx.stream_serviced(dram, filtered.dram_stream(), size_bytes=line_bytes)
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
        experiment_id="Fig. 15 (ext.)",
        description="NeRF memory-system analyses applied to embedding-table lookup streams",
        rows=rows,
        notes=(
            f"{cfg.num_tables} tables x {cfg.table_rows} rows, {cfg.distribution} keys, "
            f"batch {cfg.batch_size} x pooling {cfg.pooling_factor}; locality/conflict/cache "
            "analyses are the unchanged Fig. 7/9/12 consumers fed by the embedding StreamSource "
            f"through the request-stream IR{'; DRAM timing on ' + dram if timing else ''}."
        ),
    )


@register_experiment(
    "fig15_embedding_locality",
    paper_ref="Fig. 15 (ext.)",
    title="Embedding-table lookup locality, conflicts and cache behaviour",
    params=(
        ParamSpec("tables", int, 8, help="number of embedding tables"),
        ParamSpec("table_rows", int, 2**14, help="rows per embedding table"),
        ParamSpec("features", int, 16, help="features per embedding row"),
        ParamSpec("dtype", str, "fp32", help="row storage precision"),
        ParamSpec("batch", int, 256, help="batch samples per trace"),
        ParamSpec("pooling", int, 8, help="pooled lookups per sample per table"),
        ParamSpec(
            "distribution",
            str,
            "zipf",
            choices=("zipf", "uniform"),
            help="key popularity distribution",
        ),
        ParamSpec("zipf_alpha", float, 1.05, help="Zipfian exponent"),
        ParamSpec("seed", int, 0, help="trace seed"),
        ParamSpec("subarrays", str, "1,4,16", help="comma list of subarray counts"),
        ParamSpec("parallel_points", int, 32, help="samples issued in parallel"),
        ParamSpec("cache_kb", int, 64, help="SRAM cache capacity (KB)"),
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
        ParamSpec("dram", str, "lpddr4-2400", help="DRAM spec servicing the misses"),
        ParamSpec("timing", bool, True, help="run the DRAM timing model per table"),
    ),
    smoke={"tables": 2, "table_rows": 2048, "batch": 64, "pooling": 4, "subarrays": "1,4"},
)
def fig15_experiment(
    ctx: SimulationContext,
    *,
    tables: int,
    table_rows: int,
    features: int,
    dtype: str,
    batch: int,
    pooling: int,
    distribution: str,
    zipf_alpha: float,
    seed: int,
    subarrays: str,
    parallel_points: int,
    cache_kb: int,
    ways: int,
    line_bytes: int,
    mshr: int,
    prefetch: str,
    prefetch_degree: int,
    dram: str,
    timing: bool,
) -> ExperimentResult:
    counts = tuple(int(v) for v in subarrays.split(",") if v.strip())
    if not counts or any(c <= 0 for c in counts):
        raise ValueError(f"subarrays must be positive integers, got {subarrays!r}")
    config = EmbeddingTraceConfig(
        num_tables=tables,
        table_rows=table_rows,
        features_per_entry=features,
        dtype=dtype,
        batch_size=batch,
        pooling_factor=pooling,
        distribution=distribution,
        zipf_alpha=zipf_alpha,
        seed=seed,
    )
    return run_fig15(
        config,
        counts,
        context=ctx,
        parallel_points=parallel_points,
        cache_kb=cache_kb,
        ways=ways,
        line_bytes=line_bytes,
        mshr_latency=mshr,
        prefetch=prefetch,
        prefetch_degree=prefetch_degree,
        dram=dram,
        timing=timing,
    )
