"""Fig. 4: DRAM throughput and compute-utilization of the bottleneck kernels."""

from __future__ import annotations

from ..gpu.specs import ALL_GPUS, XNX, GPUSpec
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..workloads.steps import StepName
from .runner import ExperimentResult

__all__ = ["run_fig04", "PROFILED_STEPS"]

#: The kernels Fig. 4 plots (bottleneck steps and their backward passes).
PROFILED_STEPS = (
    StepName.HT,
    StepName.HT_BACKWARD,
    StepName.MLP_DENSITY,
    StepName.MLP_DENSITY_BACKWARD,
    StepName.MLP_COLOR,
    StepName.MLP_COLOR_BACKWARD,
)


def run_fig04(
    gpu: GPUSpec = XNX, *, context: SimulationContext | None = None
) -> ExperimentResult:
    """Reproduce Fig. 4 on the XNX edge GPU.

    One row per profiled kernel with DRAM read/write throughput (GB/s), DRAM
    bandwidth utilization, and FP32/FP16/INT32 utilization.  The paper's key
    observation — DRAM utilization 5.24x-21.44x higher than any compute
    utilization — is exposed through the ``bw_to_compute_ratio`` column.
    """
    ctx = context if context is not None else SimulationContext()
    rows = []
    for step in PROFILED_STEPS:
        profile = ctx.step_profile(gpu, step)
        rows.append(
            {
                "kernel": step.value,
                "dram_read_gbps": profile.dram_read_gbps,
                "dram_write_gbps": profile.dram_write_gbps,
                "dram_util": profile.dram_bandwidth_utilization,
                "fp32_util": profile.fp32_utilization,
                "fp16_util": profile.fp16_utilization,
                "int32_util": profile.int32_utilization,
                "bw_to_compute_ratio": profile.bandwidth_to_compute_ratio,
                "memory_bound": profile.memory_bound,
            }
        )
    return ExperimentResult(
        experiment_id="Fig. 4",
        description=f"DRAM throughput and ALU/FPU utilization of bottleneck kernels on {gpu.name}",
        rows=rows,
        notes=(
            "Paper: DRAM utilization is 5.24x-21.44x the FPU/ALU utilization; "
            "all kernels memory-bound."
        ),
    )


@register_experiment(
    "fig04",
    paper_ref="Fig. 4",
    title="Bottleneck-kernel DRAM/compute utilization on an edge GPU",
    params=(
        ParamSpec("gpu", str, "XNX", choices=tuple(ALL_GPUS), help="profiled GPU"),
    ),
)
def fig04_experiment(ctx: SimulationContext, *, gpu: str) -> ExperimentResult:
    return run_fig04(ctx.gpu(gpu), context=ctx)
