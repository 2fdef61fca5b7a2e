"""Table I: specifications of the considered GPUs."""

from __future__ import annotations

from ..gpu.specs import ALL_GPUS
from ..pipeline.context import SimulationContext
from ..pipeline.registry import register_experiment
from .runner import ExperimentResult

__all__ = ["run_tab01"]


def run_tab01() -> ExperimentResult:
    """Reproduce Table I (device-specification summary)."""
    rows = []
    for gpu in ALL_GPUS.values():
        rows.append(
            {
                "device": gpu.name,
                "tech_nm": gpu.technology_nm,
                "power_w": gpu.power_w,
                "dram": f"{gpu.dram_interface_bits}-bit {gpu.dram_capacity_gb:g}GB {gpu.dram_type}",
                "dram_bw_gbps": gpu.dram_bandwidth_gbps,
                "l2_cache_mb": gpu.l2_cache_mb,
                "fp32_gflops": gpu.fp32_gflops,
                "fp16_gflops": gpu.fp16_gflops,
                "training_s_per_scene": (
                    gpu.measured_training_s if gpu.measured_training_s else float("nan")
                ),
            }
        )
    return ExperimentResult(
        experiment_id="Table I",
        description="Specifications of the considered SOTA GPUs",
        rows=rows,
        notes=(
            "Values transcribed from the paper; used as inputs to the roofline "
            "and energy models."
        ),
    )


@register_experiment(
    "tab01",
    paper_ref="Table I",
    title="Specifications of the considered GPUs",
)
def tab01_experiment(ctx: SimulationContext) -> ExperimentResult:
    return run_tab01()
