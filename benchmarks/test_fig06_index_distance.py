"""Benchmark regenerating Fig. 6 and the Sec. III-A requests/cube statistics."""

from __future__ import annotations

from benchmarks.conftest import report
from repro.experiments import run_fig06


def test_fig06_index_distance(benchmark):
    result = report(benchmark(run_fig06, num_cubes=8192))
    by_hash = {row["hash"]: row for row in result.rows}
    morton = by_hash["morton-locality"]
    original = by_hash["ingp-prime-xor"]
    # Shape: Morton concentrates neighbouring vertices into nearby entries
    # (paper: 82 % <= 16 and none > 5000 vs 55.4 % and 22.7 %).
    assert morton["frac_leq_16"] > original["frac_leq_16"] + 0.15
    assert morton["frac_gt_5000"] < 0.15
    assert original["frac_gt_5000"] > 0.4
    # Sec. III-A: ~1.58 vs ~4.02 row-granularity memory requests per cube.
    assert morton["requests_per_cube"] < 2.0
    assert original["requests_per_cube"] > 3.5
    assert original["requests_per_cube"] / morton["requests_per_cube"] > 2.0
