"""Benchmark regenerating Fig. 7: cube sharing and effective-bandwidth improvement."""

from __future__ import annotations

from conftest import report

from repro.experiments import run_fig07


def test_fig07_locality(benchmark):
    result = report(benchmark(run_fig07))
    improvements = result.column("effective_bw_improvement")
    sharing = result.column("points_sharing_cube")
    # Shape: every level improves, coarse levels improve the most, and the
    # range brackets a multi-x gain (paper: 3.27x-35.9x).
    assert all(imp > 1.5 for imp in improvements)
    assert max(improvements) > 10.0
    assert min(improvements) > 2.0
    assert sharing[0] > 5.0          # coarse level: many points share one cube
    assert sharing[-1] < 2.0         # finest level: almost no sharing
    assert improvements[0] > improvements[-1]
