"""Fig. 11: speedup and energy-efficiency of the Instant-NeRF accelerator."""

from __future__ import annotations

from ..core.codesign import SCENE_DIFFICULTY, AlgorithmConfig, InstantNeRFSystem
from ..gpu.specs import TX2, XNX
from ..nerf.encoding import HashGridConfig
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..workloads.traces import TraceConfig
from .runner import ExperimentResult

__all__ = ["run_fig11", "PAPER_RANGES"]

#: Paper-reported ranges across the eight scenes.
PAPER_RANGES = {
    ("XNX", "speedup"): (22.0, 49.3),
    ("TX2", "speedup"): (109.5, 266.1),
    ("XNX", "energy"): (46.4, 103.7),
    ("TX2", "energy"): (172.9, 420.3),
}


def run_fig11(
    system: InstantNeRFSystem | None = None,
    scenes: tuple[str, ...] | None = None,
    use_measured_gpu_time: bool = True,
    *,
    context: SimulationContext | None = None,
) -> ExperimentResult:
    """Per-scene speedup and energy-efficiency improvement over TX2 and XNX.

    The accelerator runs the Instant-NeRF algorithm (Morton hash + ray-first
    streaming) with the heterogeneous inter-bank parallelism plan; the GPU
    baselines run iNGP.  By default the GPU side uses the paper's measured
    per-scene-average training times (Table I) scaled by per-scene
    difficulty; set ``use_measured_gpu_time=False`` to use the roofline model
    for both sides.
    """
    if system is None:
        if context is not None:
            system = context.system(AlgorithmConfig.instant_nerf())
        else:
            system = InstantNeRFSystem(AlgorithmConfig.instant_nerf())
    scenes = scenes or tuple(SCENE_DIFFICULTY)
    rows = []
    for scene in scenes:
        row: dict = {"scene": scene}
        for gpu in (TX2, XNX):
            comparisons = system.compare_against(
                gpu, [scene], use_measured_gpu_time=use_measured_gpu_time
            )
            comparison = comparisons[0]
            row[f"speedup_vs_{gpu.name}"] = comparison.speedup
            row[f"energy_improvement_vs_{gpu.name}"] = comparison.energy_efficiency_improvement
        rows.append(row)
    summary = {"scene": "AVERAGE"}
    for key in rows[0]:
        if key == "scene":
            continue
        summary[key] = sum(row[key] for row in rows) / len(rows)
    rows.append(summary)
    return ExperimentResult(
        experiment_id="Fig. 11",
        description="Instant-NeRF accelerator speedup and energy-efficiency vs TX2/XNX, per scene",
        rows=rows,
        notes=(
            "Paper ranges: 109.5x-266.1x (TX2) and 22.0x-49.3x (XNX) speedup; "
            "172.9x-420.3x (TX2) and "
            "46.4x-103.7x (XNX) energy-efficiency improvement."
        ),
    )


@register_experiment(
    "fig11",
    paper_ref="Fig. 11",
    title="Accelerator speedup and energy efficiency vs edge GPUs",
    params=(
        ParamSpec("scene", str, "all", help="one scene name, or 'all' for the eight scenes"),
        ParamSpec("hash", str, "morton", help="hash function of the evaluated algorithm"),
        ParamSpec(
            "trace_scene", str, "lego", help="scene whose training rays drive the locality model"
        ),
        ParamSpec("levels", int, 16, help="hash-grid levels"),
        ParamSpec("rays", int, 128, help="rays per locality trace"),
        ParamSpec("points_per_ray", int, 64, help="samples per ray"),
        ParamSpec("seed", int, 0, help="trace seed"),
        ParamSpec("probe_samples", int, 24, help="density probes per ray for scene traces"),
        ParamSpec(
            "measured_gpu", bool, True, help="use the paper's measured GPU times as baseline"
        ),
    ),
)
def fig11_experiment(
    ctx: SimulationContext,
    *,
    scene: str,
    hash: str,
    trace_scene: str,
    levels: int,
    rays: int,
    points_per_ray: int,
    seed: int,
    probe_samples: int,
    measured_gpu: bool,
) -> ExperimentResult:
    if hash in ("morton", "morton-locality"):
        algorithm = AlgorithmConfig.instant_nerf()
    elif hash in ("original", "ingp-prime-xor"):
        algorithm = AlgorithmConfig.ingp()
    else:
        raise KeyError(f"unknown hash function {hash!r}; available: morton, original")
    if scene == "all":
        scenes = tuple(SCENE_DIFFICULTY)
    else:
        if scene not in SCENE_DIFFICULTY:
            known = ", ".join(SCENE_DIFFICULTY)
            raise KeyError(f"unknown scene {scene!r}; available: {known}, all")
        scenes = (scene,)
    grid = HashGridConfig(num_levels=levels)
    trace = TraceConfig(
        num_rays=rays,
        points_per_ray=points_per_ray,
        seed=seed,
        scene=trace_scene or None,
        probe_samples=probe_samples,
    )
    system = ctx.system(algorithm, grid, trace)
    return run_fig11(system, scenes, measured_gpu, context=ctx)
