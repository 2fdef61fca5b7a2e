"""Benchmark regenerating Fig. 4: DRAM vs compute utilization of bottleneck kernels."""

from __future__ import annotations

from benchmarks.conftest import report
from repro.experiments import run_fig04


def test_fig04_utilization(benchmark):
    result = report(benchmark(run_fig04))
    by_kernel = {row["kernel"]: row for row in result.rows}
    # Shape: the memory-bound diagnosis — DRAM utilization dwarfs compute utilization
    # for the hash-table kernels (paper: 5.24x-21.44x across all bottleneck kernels).
    for kernel in ("HT", "HT_b"):
        assert by_kernel[kernel]["memory_bound"]
        assert by_kernel[kernel]["bw_to_compute_ratio"] > 5.0
    assert by_kernel["HT"]["dram_util"] > 0.5  # paper: 61.3 %
    assert all(row["dram_util"] > 0.1 for row in result.rows)
