"""Benchmark regenerating Table III and the Sec. V-C area/power numbers."""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro.experiments import run_tab03


def test_tab03_accel_config(benchmark):
    result = report(benchmark(run_tab03))
    values = {row["parameter"]: row["value"] for row in result.rows}
    assert values["INT32 PEs per bank"] == 256
    assert values["FP32 PEs per bank"] == 256
    assert values["Scratchpad (KB)"] == 2.0
    assert values["Microarch frequency (MHz)"] == 200.0
    assert values["Subarrays per bank"] == 16
    # Sec. V-C anchors: 3.6 mm^2 (~1.5 % of a bank) and 596.3 mW.
    assert values["Area per bank (mm^2, modelled)"] == pytest.approx(3.6, rel=0.05)
    assert values["Power per bank (mW, modelled)"] == pytest.approx(596.3, rel=0.05)
    assert values["Area fraction of a DRAM bank"] == pytest.approx(0.015, rel=0.3)
