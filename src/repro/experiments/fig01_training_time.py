"""Fig. 1: iNGP training time on a cloud vs an edge GPU, and its breakdown."""

from __future__ import annotations

from ..gpu.specs import ALL_GPUS, RTX_2080TI, XNX, GPUSpec
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from .runner import ExperimentResult

__all__ = ["run_fig01"]

#: Paper-reported reference values for the shape check.
PAPER_TRAINING_SECONDS = {"XNX": 7088.8, "2080Ti": 305.8}
PAPER_XNX_BREAKDOWN = {"HT": 0.341, "HT_b": 0.305, "bottleneck_total": 0.764}


def run_fig01(
    gpus: tuple[GPUSpec, ...] = (RTX_2080TI, XNX),
    *,
    context: SimulationContext | None = None,
) -> ExperimentResult:
    """Reproduce Fig. 1(a) (training time) and Fig. 1(b) (breakdown).

    Returns one row per device with the modelled per-scene training time,
    the paper's measured time, and the per-step breakdown fractions.
    """
    ctx = context if context is not None else SimulationContext()
    rows = []
    for gpu in gpus:
        profile = ctx.scene_profile(gpu)
        row = {
            "device": gpu.name,
            "modelled_s_per_scene": profile.training_seconds,
            "paper_s_per_scene": PAPER_TRAINING_SECONDS.get(gpu.name, float("nan")),
            "bottleneck_fraction": profile.bottleneck_fraction(),
        }
        row.update({f"frac_{step}": frac for step, frac in profile.breakdown.items()})
        rows.append(row)
    return ExperimentResult(
        experiment_id="Fig. 1",
        description="iNGP per-scene training time and per-step breakdown (cloud vs edge GPU)",
        rows=rows,
        notes=(
            "Times come from the roofline model driven by Table II traffic and the paper's "
            "measured per-step DRAM utilizations; the paper's absolute numbers are "
            "listed for reference."
        ),
    )


def _resolve_gpus(names: str) -> tuple[GPUSpec, ...]:
    selected = []
    for name in (n.strip() for n in names.split(",")):
        if not name:
            continue
        if name not in ALL_GPUS:
            known = ", ".join(ALL_GPUS)
            raise KeyError(f"unknown GPU {name!r}; available: {known}")
        selected.append(ALL_GPUS[name])
    if not selected:
        raise ValueError("at least one GPU name is required")
    return tuple(selected)


@register_experiment(
    "fig01",
    paper_ref="Fig. 1",
    title="iNGP training time and per-step breakdown across GPUs",
    params=(
        ParamSpec("gpus", str, "2080Ti,XNX", help="comma list of GPU names (Table I)"),
    ),
    provides=("gpu_profiles",),
)
def fig01_experiment(ctx: SimulationContext, *, gpus: str) -> ExperimentResult:
    return run_fig01(_resolve_gpus(gpus), context=ctx)
