"""Benchmark regenerating Fig. 9: bank conflicts vs subarray parallelism."""

from __future__ import annotations

from conftest import report

from repro.experiments import run_fig09
from repro.nerf.encoding import HashGridConfig
from repro.workloads.traces import TraceConfig


def test_fig09_bank_conflicts(benchmark):
    result = report(
        benchmark(
            run_fig09,
            subarray_counts=(1, 2, 4, 8, 16, 32, 64),
            grid_config=HashGridConfig(num_levels=16),
            trace_config=TraceConfig(num_rays=48, points_per_ray=48, seed=1),
        )
    )
    # Shape: conflicts fall monotonically (on average) as subarrays increase,
    # per-level counts are unbalanced, and sequential addresses cause a
    # substantial share of the single-subarray conflicts.
    for row in result.rows:
        assert row["conflicts_1sa"] >= row["conflicts_16sa"] >= row["conflicts_64sa"]
        assert row["norm_1sa"] <= 1.0 + 1e-9
    single_subarray = [row["conflicts_1sa"] for row in result.rows]
    assert max(single_subarray) > 2 * (min(single_subarray) + 1)
    many_subarrays = sum(row["conflicts_64sa"] for row in result.rows)
    assert many_subarrays < 0.3 * sum(single_subarray)
    assert max(row["sequential_fraction"] for row in result.rows) > 0.2
