"""Benchmark regenerating Fig. 11: accelerator speedup and energy efficiency."""

from __future__ import annotations

from benchmarks.conftest import report
from repro.experiments import run_fig11
from repro.experiments.fig11_speedup_energy import PAPER_RANGES


def test_fig11_speedup_energy(benchmark):
    result = report(benchmark(run_fig11))
    average = result.rows[-1]
    assert average["scene"] == "AVERAGE"
    # Shape: order-of-magnitude gains over both edge GPUs, with TX2 (the slower
    # baseline) showing the larger improvement, in the same regime as the paper
    # ranges (22.0x-49.3x over XNX, 109.5x-266.1x over TX2 for speedup).
    assert average["speedup_vs_XNX"] > 10.0
    assert average["speedup_vs_TX2"] > 60.0
    assert average["speedup_vs_TX2"] > average["speedup_vs_XNX"]
    assert average["energy_improvement_vs_XNX"] > 20.0
    assert average["energy_improvement_vs_TX2"] > 100.0
    # Stay within ~2x of the paper's reported ranges on both ends.
    xnx_low, xnx_high = PAPER_RANGES[("XNX", "speedup")]
    assert 0.5 * xnx_low < average["speedup_vs_XNX"] < 2.0 * xnx_high
    tx2_low, tx2_high = PAPER_RANGES[("TX2", "speedup")]
    assert 0.5 * tx2_low < average["speedup_vs_TX2"] < 2.0 * tx2_high


def test_fig11_ablation_algorithm_locality(benchmark):
    """Ablation: running the iNGP baseline algorithm on the same NMP hardware."""
    from repro.core.codesign import AlgorithmConfig
    from repro.pipeline import SimulationContext

    def run_ablation():
        ctx = SimulationContext()
        ours = ctx.system(AlgorithmConfig.instant_nerf())
        baseline = ctx.system(AlgorithmConfig.ingp())
        return ours.scene_training_seconds("lego"), baseline.scene_training_seconds("lego")

    ours_seconds, baseline_seconds = benchmark(run_ablation)
    print(f"\nNMP + Instant-NeRF algorithm: {ours_seconds:.0f} s/scene")
    print(f"NMP + iNGP baseline algorithm: {baseline_seconds:.0f} s/scene")
    assert baseline_seconds > 1.5 * ours_seconds
