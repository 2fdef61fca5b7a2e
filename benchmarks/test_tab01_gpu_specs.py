"""Benchmark regenerating Table I: GPU device specifications."""

from __future__ import annotations

from benchmarks.conftest import report
from repro.experiments import run_tab01


def test_tab01_gpu_specs(benchmark):
    result = report(benchmark(run_tab01))
    devices = {row["device"]: row for row in result.rows}
    assert set(devices) == {"XNX", "TX2", "2080Ti", "QuestPro"}
    assert devices["XNX"]["dram_bw_gbps"] == 59.7
    assert devices["2080Ti"]["dram_bw_gbps"] == 616.0
    assert devices["XNX"]["training_s_per_scene"] == 7088.0
    assert devices["2080Ti"]["training_s_per_scene"] == 306.0
