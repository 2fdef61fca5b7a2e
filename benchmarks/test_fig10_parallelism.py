"""Benchmark regenerating Fig. 10: inter-bank data movement by parallelism plan."""

from __future__ import annotations

from conftest import report

from repro.experiments import run_fig10


def test_fig10_parallelism(benchmark):
    result = report(benchmark(run_fig10, num_banks=16))
    totals = {row["plan"]: row["total_mb"] for row in result.rows}
    rows = {row["plan"]: row for row in result.rows}
    # Shape: the heterogeneous plan moves the least data, and the all-data-parallel
    # ablation (which duplicates the 25 MB hash table per bank) is far worse.
    assert totals["heterogeneous"] < totals["all-data-parallel"]
    assert totals["heterogeneous"] < totals["all-parameter-parallel"]
    assert totals["all-data-parallel"] > 2 * totals["heterogeneous"]
    # Category 3 (intra-step transfers) is zero for every plan, as in Fig. 10.
    for row in rows.values():
        assert row["cat3_intra_step_mb"] == 0.0
    # Gradient partial sums under the heterogeneous plan involve only the tiny MLPs.
    assert rows["heterogeneous"]["cat4_grad_psum_mb"] < 5.0
