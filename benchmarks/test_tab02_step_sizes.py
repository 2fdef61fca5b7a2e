"""Benchmark regenerating Table II: per-step parameter/data sizes."""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro.experiments import run_tab02


def test_tab02_step_sizes(benchmark):
    result = report(benchmark(run_tab02))
    by_step = {row["step"]: row for row in result.rows}
    # Derived sizes must track the paper's Table II (25 MB hash table, 16 MB
    # encodings, 32 MB MLP intermediates, ~14 KB MLP weights).
    assert by_step["HT"]["param_mb"] == pytest.approx(25.0, rel=0.15)
    assert by_step["HT"]["input_mb"] == pytest.approx(3.0, rel=0.05)
    assert by_step["HT"]["output_mb"] == pytest.approx(16.0, rel=0.05)
    assert by_step["MLP"]["intermediate_mb"] == pytest.approx(32.0, rel=0.1)
    assert by_step["MLP"]["param_mb"] < 0.05
    assert by_step["HT_b"]["input_mb"] == pytest.approx(16.0, rel=0.05)
