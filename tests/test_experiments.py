"""Integration tests for the experiment harnesses (fast experiments only).

Table IV (real training) is covered by its benchmark and by a smoke test here
with a minimal configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ExperimentResult,
    QualityRunConfig,
    format_series,
    format_table,
    run_fig01,
    run_fig04,
    run_fig06,
    run_fig07,
    run_fig09,
    run_fig10,
    run_fig11,
    run_tab01,
    run_tab02,
    run_tab03,
    run_tab04,
)
from repro.nerf.encoding import HashGridConfig
from repro.workloads.traces import TraceConfig


def test_experiment_result_helpers():
    result = ExperimentResult(
        "Fig. X", "demo", rows=[{"a": 1, "b": 2.5}, {"a": 3, "b": 0.001}], notes="n"
    )
    assert result.column("a") == [1, 3]
    text = result.to_text()
    assert "Fig. X" in text and "note:" in text
    assert format_table([]) == "(no rows)"
    assert "demo" in format_series("demo", [1.0, 2.0])


def test_experiment_result_column_error_names_available_columns():
    result = ExperimentResult("Fig. X", "demo", rows=[{"a": 1, "b": 2.5}])
    with pytest.raises(KeyError) as excinfo:
        result.column("c")
    message = str(excinfo.value)
    assert "'c'" in message and "a, b" in message


def test_experiment_result_json_round_trip():
    result = ExperimentResult(
        "Fig. X",
        "demo",
        rows=[
            {"a": np.int64(1), "b": np.float64(2.5), "ok": np.bool_(True)},
            {"a": 3, "b": float("nan"), "ok": False},
        ],
        notes="scaled down",
    )
    restored = ExperimentResult.from_json(result.to_json())
    assert restored.experiment_id == result.experiment_id
    assert restored.description == result.description
    assert restored.notes == result.notes
    assert restored.rows[0] == {"a": 1, "b": 2.5, "ok": True}
    assert restored.rows[1]["a"] == 3 and np.isnan(restored.rows[1]["b"])
    # Serializing the restored result reproduces the same artifact text.
    assert restored.to_json() == result.to_json()


def test_experiment_result_csv_includes_all_columns():
    result = ExperimentResult("Fig. X", "demo", rows=[{"a": 1}, {"a": 2, "b": 3}])
    csv_text = result.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1," and lines[2] == "2,3"


def test_fig01_training_time_shape():
    result = run_fig01()
    devices = {row["device"]: row for row in result.rows}
    assert devices["XNX"]["modelled_s_per_scene"] > 5 * devices["2080Ti"]["modelled_s_per_scene"]
    assert devices["XNX"]["bottleneck_fraction"] > 0.6
    assert devices["XNX"]["frac_HT"] + devices["XNX"]["frac_HT_b"] > 0.5


def test_fig04_utilization_shape():
    result = run_fig04()
    assert len(result.rows) == 6
    by_kernel = {row["kernel"]: row for row in result.rows}
    # The hash-table kernels dominate and are firmly DRAM-bandwidth bound.
    for kernel in ("HT", "HT_b"):
        assert by_kernel[kernel]["memory_bound"]
        assert by_kernel[kernel]["bw_to_compute_ratio"] > 5.0
        assert by_kernel[kernel]["dram_util"] > 0.3
        assert max(by_kernel[kernel]["fp32_util"], by_kernel[kernel]["fp16_util"]) < 0.15
    for row in result.rows:
        assert row["dram_util"] > 0.1
        assert max(row["fp32_util"], row["fp16_util"], row["int32_util"]) <= 1.0


def test_fig06_index_distance_shape():
    result = run_fig06(num_cubes=2048)
    by_hash = {row["hash"]: row for row in result.rows}
    morton, original = by_hash["morton-locality"], by_hash["ingp-prime-xor"]
    assert morton["frac_leq_16"] > original["frac_leq_16"]
    assert morton["frac_gt_5000"] < 0.1
    assert original["frac_gt_5000"] > 0.4
    assert morton["requests_per_cube"] == pytest.approx(1.58, abs=0.35)
    assert original["requests_per_cube"] == pytest.approx(4.02, abs=0.35)


def test_fig07_locality_shape():
    result = run_fig07(
        grid_config=HashGridConfig(num_levels=8, table_size=2**14, max_resolution=1024),
        trace_config=TraceConfig(num_rays=48, points_per_ray=48),
    )
    improvements = result.column("effective_bw_improvement")
    assert len(improvements) == 8
    assert all(i > 1.5 for i in improvements)
    assert max(improvements) > 5.0
    sharing = result.column("points_sharing_cube")
    assert sharing[0] > sharing[-1]


def test_fig09_bank_conflicts_shape():
    result = run_fig09(
        subarray_counts=(1, 4, 16),
        grid_config=HashGridConfig(num_levels=8, table_size=2**14, max_resolution=1024),
        trace_config=TraceConfig(num_rays=32, points_per_ray=32),
    )
    for row in result.rows:
        assert row["conflicts_1sa"] >= row["conflicts_4sa"] >= row["conflicts_16sa"]
        assert row["norm_1sa"] <= 1.0 + 1e-9
    # Per-level conflicts are unbalanced (motivation for inter-level grouping).
    finest = [row["conflicts_1sa"] for row in result.rows]
    assert max(finest) > 2 * (min(finest) + 1)


def test_fig10_parallelism_shape():
    result = run_fig10()
    totals = {row["plan"]: row["total_mb"] for row in result.rows}
    assert totals["heterogeneous"] < totals["all-data-parallel"]
    assert totals["heterogeneous"] < totals["all-parameter-parallel"]


def test_fig11_speedup_energy_shape():
    result = run_fig11()
    average = result.rows[-1]
    assert average["scene"] == "AVERAGE"
    assert average["speedup_vs_XNX"] > 10.0
    assert average["speedup_vs_TX2"] > 60.0
    assert average["energy_improvement_vs_XNX"] > 20.0
    assert average["energy_improvement_vs_TX2"] > 100.0


def test_tab01_tab02_tab03_contents():
    tab1 = run_tab01()
    assert {row["device"] for row in tab1.rows} == {"XNX", "TX2", "2080Ti", "QuestPro"}
    tab2 = run_tab02()
    for row in tab2.rows:
        if row["paper_param_mb"] > 0:
            assert row["param_mb"] == pytest.approx(row["paper_param_mb"], rel=0.3)
    tab3 = run_tab03()
    values = {row["parameter"]: row["value"] for row in tab3.rows}
    assert values["INT32 PEs per bank"] == 256
    assert values["Area per bank (mm^2, modelled)"] == pytest.approx(3.6, rel=0.05)
    assert values["Power per bank (mW, modelled)"] == pytest.approx(596.3, rel=0.05)


@pytest.mark.slow
def test_tab04_psnr_smoke():
    """Tiny Table IV run: only two hash-grid methods, one scene, a few iterations."""
    config = QualityRunConfig(
        scenes=("lego",), image_size=24, num_train_views=4, num_test_views=1,
        iterations=40, rays_per_batch=96, samples_per_ray=24,
    )
    result = run_tab04(config, methods=("ingp", "instant-nerf"))
    by_method = {row["method"]: row["avg_psnr"] for row in result.rows}
    assert np.isfinite(by_method["ingp"]) and np.isfinite(by_method["instant-nerf"])
    assert by_method["ingp"] > 8.0
    # The Morton hash must not cost meaningful quality (paper: -0.23 dB).
    assert abs(by_method["ingp"] - by_method["instant-nerf"]) < 3.0
