"""Fig. 7: cube sharing along rays and effective memory-bandwidth improvement."""

from __future__ import annotations

from ..core.hashing import HashFunction, MortonLocalityHash, OriginalSpatialHash, get_hash_function
from ..nerf.encoding import HashGridConfig
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..workloads.traces import TraceConfig
from .runner import SMOKE_TRACE, ExperimentResult

__all__ = ["run_fig07"]

#: Paper-reported range of the per-level effective-bandwidth improvement.
PAPER_IMPROVEMENT_MIN = 3.27
PAPER_IMPROVEMENT_MAX = 35.9


def run_fig07(
    grid_config: HashGridConfig | None = None,
    trace_config: TraceConfig | None = None,
    *,
    context: SimulationContext | None = None,
    baseline_hash: HashFunction | None = None,
    optimized_hash: HashFunction | None = None,
    row_bytes: int = 1024,
) -> ExperimentResult:
    """Reproduce Fig. 7(a) (points sharing a cube per level) and Fig. 7(b)
    (normalized effective memory-bandwidth improvement per level).

    The baseline streams a random point order through the original hash; the
    Instant-NeRF configuration streams the same points ray-first through the
    Morton hash.  The improvement is the ratio of DRAM row requests.  With a
    shared context, the per-level request counts reuse corner-index streams
    other experiments (e.g. Fig. 9) already built.
    """
    grid = grid_config or HashGridConfig(num_levels=16)
    trace = trace_config or TraceConfig(num_rays=128, points_per_ray=64, seed=0)
    ctx = context if context is not None else SimulationContext()
    reports = ctx.locality_reports(
        grid,
        trace,
        baseline_hash or OriginalSpatialHash(),
        optimized_hash or MortonLocalityHash(),
        row_bytes,
    )
    rows = [
        {
            "level": report.level,
            "resolution": grid.resolutions[report.level],
            "points_sharing_cube": report.sharing_run_length,
            "register_hit_rate": report.register_hit_rate,
            "baseline_row_requests": report.baseline_requests,
            "optimized_row_requests": report.optimized_requests,
            "effective_bw_improvement": report.effective_bandwidth_improvement,
        }
        for report in reports
    ]
    return ExperimentResult(
        experiment_id="Fig. 7",
        description="Per-level cube sharing and effective memory-bandwidth improvement",
        rows=rows,
        notes=(
            "Paper: combining the Morton hash with ray-first streaming yields a 3.27x-35.9x "
            "effective bandwidth improvement across the 16 levels; coarse levels benefit most."
        ),
    )


@register_experiment(
    "fig07",
    paper_ref="Fig. 7",
    title="Per-level cube sharing and effective memory-bandwidth improvement",
    params=(
        ParamSpec("scene", str, "lego", help="scene whose training rays form the trace"),
        ParamSpec("hash", str, "morton", help="optimized hash function"),
        ParamSpec("baseline_hash", str, "original", help="baseline hash function"),
        ParamSpec("levels", int, 16, help="hash-grid levels"),
        ParamSpec("rays", int, 128, help="rays per trace batch"),
        ParamSpec("points_per_ray", int, 64, help="samples per ray"),
        ParamSpec("seed", int, 0, help="trace seed"),
        ParamSpec("probe_samples", int, 24, help="density probes per ray for scene traces"),
        ParamSpec("dram", str, "lpddr4-2400", help="DRAM spec setting the row-buffer size"),
    ),
    smoke=SMOKE_TRACE,
)
def fig07_experiment(
    ctx: SimulationContext,
    *,
    scene: str,
    hash: str,
    baseline_hash: str,
    levels: int,
    rays: int,
    points_per_ray: int,
    seed: int,
    probe_samples: int,
    dram: str,
) -> ExperimentResult:
    grid = HashGridConfig(num_levels=levels)
    trace = TraceConfig(
        num_rays=rays,
        points_per_ray=points_per_ray,
        seed=seed,
        scene=scene or None,
        probe_samples=probe_samples,
    )
    row_bytes = ctx.dram_spec(dram).organization.row_buffer_bytes
    return run_fig07(
        grid,
        trace,
        context=ctx,
        baseline_hash=get_hash_function(baseline_hash),
        optimized_hash=get_hash_function(hash),
        row_bytes=row_bytes,
    )
