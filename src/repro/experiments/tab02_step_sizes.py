"""Table II: parameter/data sizes of iNGP's bottleneck steps."""

from __future__ import annotations

from ..pipeline.context import SimulationContext
from ..pipeline.registry import register_experiment
from ..workloads.steps import INGPWorkloadModel
from .runner import ExperimentResult

__all__ = ["run_tab02", "PAPER_TABLE2_MB"]

#: Paper Table II values in MB (for a 256 K-point batch).
PAPER_TABLE2_MB = {
    "HT": {"param": 25.0, "input": 3.0, "output": 16.0, "intermediate": 0.0},
    "MLP": {"param": 0.014, "input": 16.0, "output": 1.5, "intermediate": 32.0},
    "MLP_b": {"param": 0.014, "input": 1.5, "output": 16.0, "intermediate": 32.0},
    "HT_b": {"param": 25.0, "input": 16.0, "output": 0.0, "intermediate": 0.0},
}


def run_tab02(workload: INGPWorkloadModel | None = None) -> ExperimentResult:
    """Reproduce Table II from the workload model (derived, not transcribed)."""
    workload = workload or INGPWorkloadModel()
    derived = workload.table2()
    rows = []
    for step, sizes in derived.items():
        paper = PAPER_TABLE2_MB[step]
        rows.append(
            {
                "step": step,
                "param_mb": sizes["param_mb"],
                "paper_param_mb": paper["param"],
                "input_mb": sizes["input_mb"],
                "paper_input_mb": paper["input"],
                "output_mb": sizes["output_mb"],
                "paper_output_mb": paper["output"],
                "intermediate_mb": sizes["intermediate_mb"],
                "paper_intermediate_mb": paper["intermediate"],
            }
        )
    return ExperimentResult(
        experiment_id="Table II",
        description="Parameter/data sizes for iNGP's bottleneck steps (derived vs paper)",
        rows=rows,
        notes="Derived from L=16, T=2^19, F=2, FP16 storage, 256K points/iteration.",
    )


@register_experiment(
    "tab02",
    paper_ref="Table II",
    title="Parameter/data sizes of iNGP's bottleneck steps",
)
def tab02_experiment(ctx: SimulationContext) -> ExperimentResult:
    return run_tab02()
