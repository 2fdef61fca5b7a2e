"""Fig. 9 and Sec. IV-B statistics: bank conflicts vs subarray parallelism."""

from __future__ import annotations

from ..core.hashing import HashFunction, MortonLocalityHash, get_hash_function
from ..core.mapping import HashTableMapper, HashTableMappingConfig, IntraLevelPolicy
from ..core.streaming import StreamingOrder
from ..nerf.encoding import HashGridConfig
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..workloads.traces import TraceConfig
from .runner import ExperimentResult

__all__ = ["run_fig09"]


def run_fig09(
    subarray_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    grid_config: HashGridConfig | None = None,
    trace_config: TraceConfig | None = None,
    parallel_points: int = 32,
    *,
    context: SimulationContext | None = None,
    hash_fn: HashFunction | None = None,
) -> ExperimentResult:
    """Normalized bank conflicts per hash-table level vs number of subarrays.

    For each level and each subarray count, the per-level lookup trace (32
    points issued in parallel, as in the paper) is mapped with the intra-level
    subarray-interleaved scheme and the residual bank conflicts are counted,
    normalized to the single-subarray configuration of level 15.  Also
    reports the fraction of conflicts caused by sequential addresses
    (paper: >50%), which is what the interleaving removes.
    """
    grid = grid_config or HashGridConfig(num_levels=16)
    trace = trace_config or TraceConfig(num_rays=64, points_per_ray=64, seed=1)
    ctx = context if context is not None else SimulationContext()
    hash_fn = hash_fn or MortonLocalityHash()

    rows = []
    reference_conflicts = None
    for level in range(grid.num_levels):
        stream = ctx.request_stream(grid, trace, hash_fn, StreamingOrder.RAY_FIRST, level)
        indices = stream.indices.ravel()
        row: dict = {"level": level, "resolution": grid.resolutions[level]}
        for subarrays in subarray_counts:
            mapper = HashTableMapper(
                grid,
                HashTableMappingConfig(
                    subarrays_per_bank=subarrays,
                    intra_level_policy=IntraLevelPolicy.SUBARRAY_INTERLEAVED,
                ),
            )
            stats = mapper.count_conflicts(level, indices, parallel_points=parallel_points)
            row[f"conflicts_{subarrays}sa"] = stats.bank_conflicts
            if subarrays == 1:
                row["sequential_fraction"] = stats.sequential_fraction
                if reference_conflicts is None or stats.bank_conflicts > reference_conflicts:
                    reference_conflicts = stats.bank_conflicts
        rows.append(row)

    reference = max(1, reference_conflicts or 1)
    for row in rows:
        for subarrays in subarray_counts:
            row[f"norm_{subarrays}sa"] = row[f"conflicts_{subarrays}sa"] / reference
    return ExperimentResult(
        experiment_id="Fig. 9",
        description="Normalized bank conflicts per hash-table level vs subarrays per bank",
        rows=rows,
        notes=(
            "Paper: conflicts drop as subarray parallelism grows and are unbalanced across levels, "
            "motivating the inter-level grouping; >50% of single-subarray conflicts stem from "
            "sequential addresses."
        ),
    )


@register_experiment(
    "fig09",
    paper_ref="Fig. 9",
    title="Bank conflicts per hash-table level vs subarray parallelism",
    params=(
        ParamSpec("scene", str, "lego", help="scene whose training rays form the trace"),
        ParamSpec("hash", str, "morton", help="hash function generating the lookups"),
        ParamSpec("subarrays", str, "1,2,4,8,16,32,64", help="comma list of subarray counts"),
        ParamSpec("levels", int, 16, help="hash-grid levels"),
        ParamSpec("rays", int, 128, help="rays per trace batch"),
        ParamSpec("points_per_ray", int, 64, help="samples per ray"),
        ParamSpec("seed", int, 0, help="trace seed"),
        ParamSpec("probe_samples", int, 24, help="density probes per ray for scene traces"),
        ParamSpec("parallel_points", int, 32, help="points issued in parallel"),
    ),
    provides=("level_indices", "request_stream"),
)
def fig09_experiment(
    ctx: SimulationContext,
    *,
    scene: str,
    hash: str,
    subarrays: str,
    levels: int,
    rays: int,
    points_per_ray: int,
    seed: int,
    probe_samples: int,
    parallel_points: int,
) -> ExperimentResult:
    counts = tuple(int(v) for v in subarrays.split(",") if v.strip())
    if not counts or any(c <= 0 for c in counts):
        raise ValueError(f"subarrays must be positive integers, got {subarrays!r}")
    grid = HashGridConfig(num_levels=levels)
    trace = TraceConfig(
        num_rays=rays,
        points_per_ray=points_per_ray,
        seed=seed,
        scene=scene or None,
        probe_samples=probe_samples,
    )
    return run_fig09(
        counts,
        grid,
        trace,
        parallel_points,
        context=ctx,
        hash_fn=get_hash_function(hash),
    )
