"""Fig. 13 (extension): occupancy-grid empty-space skipping vs DRAM traffic.

Not a figure of the paper — the paper streams every sample of the training
batch through the hash tables.  Production instant-NGP systems prune that
stream with an occupancy grid (empty-space skipping plus early ray
termination), which directly shrinks the hash-table memory-request streams
the whole evaluation is built on.  This experiment quantifies the effect
per occupancy-grid resolution (and scene, hash function, DRAM spec via
sweeps): how many samples survive pruning, how many DRAM row requests and
timing-model cycles the pruned stream still needs at the finest level, and
how much per-scene accelerator training time the surviving fraction implies
through :class:`repro.accel.nmp.NMPAccelerator`.
"""

from __future__ import annotations

import dataclasses

from ..accel.nmp import NMPAccelerator
from ..core.hashing import HashFunction, MortonLocalityHash, get_hash_function
from ..core.streaming import StreamingOrder
from ..nerf.encoding import HashGridConfig
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..workloads.steps import INGPWorkloadModel
from ..workloads.traces import TraceConfig
from .runner import SMOKE_TRACE, ExperimentResult

__all__ = ["run_fig13"]


def run_fig13(
    grid_config: HashGridConfig | None = None,
    trace_config: TraceConfig | None = None,
    resolutions: tuple[int, ...] = (16, 32, 64),
    *,
    context: SimulationContext | None = None,
    hash_fn: HashFunction | None = None,
    order: StreamingOrder = StreamingOrder.RAY_FIRST,
    termination: float = 1e-3,
    dram: str = "lpddr4-2400",
    row_bytes: int = 1024,
    timing: bool = True,
) -> ExperimentResult:
    """Sample and DRAM-traffic reduction vs occupancy-grid resolution.

    For every grid resolution, the scene trace's lookup stream is pruned by
    the occupancy grid (plus transmittance termination when ``termination``
    is positive) and compared against the dense stream: surviving samples,
    row requests at the finest hash-grid level and — with ``timing=True`` —
    DRAM timing-model cycles.  The surviving sample fraction also drives an
    occupancy-aware :class:`~repro.accel.nmp.NMPAccelerator` to estimate the
    per-scene training-time reduction.  With a shared context the dense
    streams are reused across resolutions (and from other experiments).
    """
    grid = grid_config or HashGridConfig(num_levels=16)
    trace = trace_config or TraceConfig(num_rays=128, points_per_ray=64, seed=0, scene="mic")
    if trace.scene is None:
        raise ValueError("fig13 requires a scene trace (TraceConfig.scene)")
    if not resolutions:
        raise ValueError("resolutions must name at least one occupancy-grid resolution")
    ctx = context if context is not None else SimulationContext()
    hash_fn = hash_fn or MortonLocalityHash()
    level = grid.num_levels - 1
    dense = trace.dense()
    dense_samples = trace.num_rays * trace.points_per_ray

    def row_requests(t: TraceConfig) -> int:
        stream = ctx.request_stream(grid, t, hash_fn, order, level)
        return ctx.stream_row_requests(stream, row_bytes)

    def serviced(t: TraceConfig) -> dict[str, float]:
        # The timing model services the ray-first stream in 32-byte bursts,
        # whatever ``order`` the row requests use.
        stream = ctx.request_stream(grid, t, hash_fn, StreamingOrder.RAY_FIRST, level)
        return ctx.stream_serviced(dram, stream, size_bytes=32)

    dense_rows = row_requests(dense)
    dense_batch = serviced(dense) if timing else None
    workload = INGPWorkloadModel(grid_config=grid)
    dense_training_s = NMPAccelerator(workload=workload).scene_training_seconds()

    rows = []
    for resolution in resolutions:
        pruned = dataclasses.replace(
            trace,
            occupancy=True,
            occupancy_resolution=int(resolution),
            occupancy_termination=termination,
        )
        occ_grid = ctx.occupancy_grid(pruned)
        kept = int(ctx.occupancy_mask(pruned).sum())
        if kept == 0:
            raise ValueError(
                f"occupancy grid at resolution {resolution} prunes every sample of "
                f"scene {trace.scene!r}; lower occupancy_threshold or the resolution"
            )
        fraction = kept / dense_samples
        pruned_rows = row_requests(pruned)
        occ_training_s = NMPAccelerator(
            workload=workload, sample_fraction=fraction
        ).scene_training_seconds()
        row = {
            "resolution": int(resolution),
            "occupied_fraction": occ_grid.occupancy_fraction(),
            "dense_samples": dense_samples,
            "pruned_samples": kept,
            "sample_reduction": dense_samples / kept,
            "dense_row_requests": dense_rows,
            "pruned_row_requests": pruned_rows,
            "row_request_reduction": dense_rows / pruned_rows if pruned_rows else float("inf"),
            "training_time_reduction": dense_training_s / occ_training_s,
        }
        if timing:
            pruned_batch = serviced(pruned)
            row["dense_dram_cycles"] = dense_batch["total_cycles"]
            row["pruned_dram_cycles"] = pruned_batch["total_cycles"]
            row["dram_traffic_reduction"] = (
                dense_batch["total_requests"] / pruned_batch["total_requests"]
                if pruned_batch["total_requests"]
                else float("inf")
            )
            row["dram_time_reduction"] = (
                dense_batch["total_cycles"] / pruned_batch["total_cycles"]
                if pruned_batch["total_cycles"]
                else float("inf")
            )
        rows.append(row)
    return ExperimentResult(
        experiment_id="Fig. 13 (ext.)",
        description="Occupancy-grid sample and DRAM-traffic reduction vs grid resolution",
        rows=rows,
        notes=(
            f"Scene {trace.scene}, hash {hash_fn.name}, {order.value} order, "
            f"transmittance termination {termination:g}; row requests and DRAM timing at the "
            f"finest level ({grid.resolutions[level]}^3)"
            + (f" on {dram}" if timing else "")
            + "; training time via the occupancy-aware NMP accelerator model."
        ),
    )


@register_experiment(
    "fig13_occupancy_traffic",
    paper_ref="Fig. 13 (ext.)",
    title="Occupancy-grid adaptive marching: sample and DRAM-traffic reduction",
    params=(
        ParamSpec("scene", str, "mic", help="scene whose training rays form the trace"),
        ParamSpec("hash", str, "morton", help="hash function generating the lookups"),
        ParamSpec(
            "resolutions", str, "16,32,64", help="comma list of occupancy-grid resolutions"
        ),
        ParamSpec("threshold", float, 1e-3, help="occupancy density threshold"),
        ParamSpec(
            "termination", float, 1e-3, help="early-ray-termination transmittance (0 disables)"
        ),
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
        ParamSpec("row_bytes", int, 1024, help="DRAM row-buffer bytes for request counting"),
        ParamSpec("dram", str, "lpddr4-2400", help="DRAM spec servicing the streams"),
        ParamSpec("timing", bool, True, help="run the DRAM timing model at the finest level"),
    ),
    smoke={**SMOKE_TRACE, "resolutions": "16,32"},
)
def fig13_experiment(
    ctx: SimulationContext,
    *,
    scene: str,
    hash: str,
    resolutions: str,
    threshold: float,
    termination: float,
    order: str,
    levels: int,
    rays: int,
    points_per_ray: int,
    seed: int,
    probe_samples: int,
    row_bytes: int,
    dram: str,
    timing: bool,
) -> ExperimentResult:
    sizes = tuple(int(v) for v in resolutions.split(",") if v.strip())
    if not sizes or any(s <= 0 for s in sizes):
        raise ValueError(f"resolutions must be positive integers, got {resolutions!r}")
    grid = HashGridConfig(num_levels=levels)
    trace = TraceConfig(
        num_rays=rays,
        points_per_ray=points_per_ray,
        seed=seed,
        scene=scene,
        probe_samples=probe_samples,
        occupancy_threshold=threshold,
    )
    return run_fig13(
        grid,
        trace,
        sizes,
        context=ctx,
        hash_fn=get_hash_function(hash),
        order=StreamingOrder(order),
        termination=termination,
        dram=dram,
        row_bytes=row_bytes,
        timing=timing,
    )
