"""Fig. 10 / Sec. IV-C: inter-bank data-movement analysis of parallelism plans."""

from __future__ import annotations

from ..core.parallelism import (
    MovementCategory,
    all_data_parallel_plan,
    all_parameter_parallel_plan,
    analyze_plan,
    heterogeneous_plan,
)
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..workloads.steps import INGPWorkloadModel
from .runner import ExperimentResult

__all__ = ["run_fig10"]


def run_fig10(num_banks: int = 16, workload: INGPWorkloadModel | None = None) -> ExperimentResult:
    """Inter-bank data movement per training iteration for three plans.

    Compares the paper's heterogeneous plan (parameter parallelism for
    HT/HT_b, data parallelism for MLP/MLP_b) against all-data-parallel and
    all-parameter-parallel ablations, broken down by the four movement
    categories of Fig. 10.  The heterogeneous plan should move the least.
    """
    workload = workload or INGPWorkloadModel()
    rows = []
    for plan in (heterogeneous_plan(), all_data_parallel_plan(), all_parameter_parallel_plan()):
        traffic = analyze_plan(plan, workload, num_banks=num_banks)
        row = {"plan": plan.name}
        for category in MovementCategory:
            row[category.value + "_mb"] = traffic.category_total(category) / 1024**2
        row["total_mb"] = traffic.total_bytes() / 1024**2
        for step in ("HT", "MLP", "MLP_b", "HT_b"):
            row[f"{step}_mb"] = traffic.step_total(step) / 1024**2
        rows.append(row)
    return ExperimentResult(
        experiment_id="Fig. 10",
        description="Inter-bank data movement (MB/iteration) by parallelism plan and category",
        rows=rows,
        notes=(
            "Paper: the heterogeneous plan duplicates only the small objects "
            "(MLP weights, HT inputs), keeps intra-step movement at zero and "
            "restricts gradient partial sums to the tiny MLPs."
        ),
    )


@register_experiment(
    "fig10",
    paper_ref="Fig. 10",
    title="Inter-bank data movement of the three parallelism plans",
    params=(
        ParamSpec("num_banks", int, 16, help="active NMP banks"),
    ),
)
def fig10_experiment(ctx: SimulationContext, *, num_banks: int) -> ExperimentResult:
    if num_banks <= 0:
        raise ValueError("num_banks must be positive")
    return run_fig10(num_banks)
