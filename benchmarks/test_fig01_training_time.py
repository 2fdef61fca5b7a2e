"""Benchmark regenerating Fig. 1: training time and breakdown on GPUs."""

from __future__ import annotations

from benchmarks.conftest import report
from repro.experiments import run_fig01


def test_fig01_training_time(benchmark):
    result = report(benchmark(run_fig01))
    devices = {row["device"]: row for row in result.rows}
    # Shape: the edge GPU is far slower than the cloud GPU (paper: 7088.8 s vs 305.8 s).
    assert devices["XNX"]["modelled_s_per_scene"] > 5 * devices["2080Ti"]["modelled_s_per_scene"]
    assert devices["XNX"]["modelled_s_per_scene"] > 3600.0
    assert devices["2080Ti"]["modelled_s_per_scene"] < 1200.0
    # Shape: hash-table steps dominate the breakdown and the bottleneck steps
    # cover most of the time.
    xnx = devices["XNX"]
    assert xnx["frac_HT"] + xnx["frac_HT_b"] > 0.5
    assert xnx["bottleneck_fraction"] > 0.6
