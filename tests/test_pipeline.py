"""Tests for the config-driven pipeline: registry, context, sweeps, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.hashing import MortonLocalityHash, OriginalSpatialHash, get_hash_function
from repro.core.streaming import StreamingOrder, row_requests_for_stream_reference
from repro.dram.spec import DDR4_3200, LPDDR4_2400, get_dram_spec
from repro.experiments import run_fig07
from repro.nerf.encoding import HashGridConfig
from repro.pipeline import (
    SimulationContext,
    all_experiments,
    cell_seed,
    config_key,
    expand_grid,
    get_experiment,
    run_experiment,
    run_suite,
    sweep,
)
from repro.pipeline.cli import main
from repro.workloads.traces import HashTraceGenerator, TraceConfig

EXPECTED_SPECS = (
    "fig01", "fig04", "fig06", "fig07", "fig09", "fig10", "fig11",
    "fig12_cache_hit_rate",
    "fig13_occupancy_traffic",
    "fig14_serving_latency",
    "fig15_embedding_locality",
    "tab01", "tab02", "tab03", "tab04",
    "tab05_psnr_precision",
)


# ----------------------------------------------------------------- registry
def test_all_experiments_registered():
    names = [spec.name for spec in all_experiments()]
    assert names == list(EXPECTED_SPECS)
    for spec in all_experiments():
        assert spec.paper_ref and spec.title


def test_unknown_experiment_error_lists_available():
    with pytest.raises(KeyError, match="fig07"):
        get_experiment("fig99")


def test_param_binding_validates_names_types_and_choices():
    spec = get_experiment("fig07")
    bound = spec.bind({"rays": "32", "seed": "5"})
    assert bound["rays"] == 32 and bound["seed"] == 5
    with pytest.raises(KeyError, match="available"):
        spec.bind({"nope": 1})
    with pytest.raises(ValueError, match="expected int"):
        spec.bind({"rays": "many"})
    gpu_spec = get_experiment("fig04")
    with pytest.raises(ValueError, match="not one of"):
        gpu_spec.bind({"gpu": "TPU"})


def test_run_experiment_produces_expected_result():
    result = run_experiment("fig06", num_cubes=512)
    assert result.experiment_id == "Fig. 6"
    assert {row["hash"] for row in result.rows} == {"morton-locality", "ingp-prime-xor"}


def test_registered_run_matches_legacy_entry_point():
    """The registry path and a direct run_* call agree exactly."""
    trace = TraceConfig(num_rays=32, points_per_ray=32, seed=0, scene="lego")
    direct = run_fig07(HashGridConfig(num_levels=8), trace)
    registered = run_experiment(
        "fig07", levels=8, rays=32, points_per_ray=32, scene="lego"
    )
    assert direct.rows == registered.rows


def test_suite_scheduler_orders_producers_before_consumers():
    """`run_suite` runs specs in the order given, and the order changes nothing.

    fig07 and fig09 share one trace and its request streams.  Run in either
    order, each on a fresh context, the suite returns its keys in the order
    given, equal results and equal hit/miss/compute counts: every shared
    artifact is memoized by its config key, whichever spec asks first.
    """
    trace = {"rays": 16, "points_per_ray": 16, "probe_samples": 8, "levels": 4}
    runs = []
    for order in (["fig07", "fig09"], ["fig09", "fig07"]):
        ctx = SimulationContext()
        results = run_suite(order, context=ctx, overrides={name: trace for name in order})
        assert list(results) == order
        stats = (ctx.stats.hits, ctx.stats.misses, ctx.stats.computes)
        runs.append(({name: results[name].to_json() for name in sorted(results)}, stats))
    assert runs[0] == runs[1]


# ------------------------------------------------------------------ context
def test_config_key_is_value_based():
    a = TraceConfig(num_rays=8, points_per_ray=8, scene="lego")
    b = TraceConfig(num_rays=8, points_per_ray=8, scene="lego")
    assert config_key(a) == config_key(b)
    assert config_key(a) != config_key(TraceConfig(num_rays=8, points_per_ray=8))
    assert config_key(MortonLocalityHash()) == config_key(MortonLocalityHash())
    assert config_key(MortonLocalityHash()) != config_key(OriginalSpatialHash())
    arr = np.arange(6).reshape(2, 3)
    assert config_key(arr) == config_key(arr.copy())


def test_context_memoizes_and_counts_hits():
    ctx = SimulationContext()
    trace = TraceConfig(num_rays=8, points_per_ray=8, seed=3)
    first = ctx.batch_points(trace)
    second = ctx.batch_points(trace)
    assert first is second
    assert ctx.stats.hits == 1 and ctx.stats.misses == 1
    # A different configuration is a different artifact.
    ctx.batch_points(TraceConfig(num_rays=8, points_per_ray=8, seed=4))
    assert ctx.stats.misses == 2


def test_context_failed_computation_is_retryable():
    ctx = SimulationContext()
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return 42

    with pytest.raises(RuntimeError):
        ctx.memoize(("flaky",), flaky)
    assert ctx.memoize(("flaky",), flaky) == 42


def test_context_row_requests_match_the_oracle():
    """The context's stream path (hash once, cache the corner indices, count
    on the IR) equals the loop oracle on a stream hashed afresh."""
    grid = HashGridConfig(num_levels=6, table_size=2**12, max_resolution=256)
    trace = TraceConfig(num_rays=16, points_per_ray=16, seed=2)
    fn = MortonLocalityHash()
    ctx = SimulationContext()
    generator = HashTraceGenerator(grid, trace, fn)
    for order in StreamingOrder:
        perm = ctx.stream_order(trace, order)
        for level in range(grid.num_levels):
            stream = ctx.request_stream(grid, trace, fn, order, level)
            oracle = row_requests_for_stream_reference(generator.stream(level, perm))
            assert ctx.stream_row_requests(stream) == oracle


def test_context_serviced_batch_summary():
    ctx = SimulationContext()
    grid = HashGridConfig(num_levels=4, table_size=2**10, max_resolution=64)
    trace = TraceConfig(num_rays=4, points_per_ray=8, seed=0)
    stream = ctx.request_stream(grid, trace, MortonLocalityHash(), StreamingOrder.RAY_FIRST, 0)
    summary = ctx.stream_serviced("lpddr4-2400", stream, size_bytes=32)
    assert summary["total_requests"] > 0
    assert summary["total_cycles"] > 0
    assert 0.0 <= summary["row_hit_rate"] <= 1.0
    again = ctx.stream_serviced("lpddr4-2400", stream, size_bytes=32)
    assert again is summary  # cached


# ---------------------------------------------------------- registries/specs
def test_dram_spec_registry_and_aliases():
    assert get_dram_spec("ddr4") is DDR4_3200
    assert get_dram_spec("LPDDR4") is LPDDR4_2400
    DDR4_3200.validate()
    with pytest.raises(KeyError, match="available"):
        get_dram_spec("hbm3")


def test_hash_function_registry():
    assert isinstance(get_hash_function("morton"), MortonLocalityHash)
    assert isinstance(get_hash_function("ingp-prime-xor"), OriginalSpatialHash)
    with pytest.raises(KeyError, match="available"):
        get_hash_function("xxhash")


# -------------------------------------------------------------------- sweep
def test_expand_grid_orders_cells_deterministically():
    cells = expand_grid({"a": [1, 2], "b": ["x", "y"]})
    assert cells == [
        {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
        {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
    ]


def test_cell_seed_is_stable_and_parameter_dependent():
    seed = cell_seed("fig07", {"scene": "lego"}, base_seed=1)
    assert seed == cell_seed("fig07", {"scene": "lego"}, base_seed=1)
    assert seed != cell_seed("fig07", {"scene": "chair"}, base_seed=1)
    assert seed != cell_seed("fig07", {"scene": "lego"}, base_seed=2)


def test_sweep_pins_every_cell_to_the_base_seed():
    """Sweeping a non-stochastic axis is a controlled comparison: all cells
    run on the same sampled trace (and the context can share it)."""
    ctx = SimulationContext()
    result = sweep(
        "fig07",
        {"hash": ["morton", "original"]},
        base_seed=3,
        extra_params={"rays": "16", "points_per_ray": "16"},
        context=ctx,
    )
    assert [cell.seed for cell in result.cells] == [3, 3]
    trace_artifacts = sum(
        1 for key in ctx._cache if isinstance(key, tuple) and key[0] == "batch_points"
    )
    assert trace_artifacts == 1


def test_sweep_rejects_unknown_extra_param():
    with pytest.raises(KeyError, match="available"):
        sweep("fig07", {"hash": ["morton"]}, extra_params={"pionts_per_ray": "16"})


def test_sweep_rejects_unknown_grid_parameter():
    with pytest.raises(KeyError, match="available"):
        sweep("fig06", {"bogus": [1, 2]})


def test_sweep_runs_cells_and_collects_errors():
    result = sweep(
        "fig06",
        {"num_cubes": [128, -1]},
        extra_params={"resolution": "128"},
    )
    assert result.cells[0].error is None
    assert result.cells[0].result.rows
    assert result.cells[1].error is not None  # negative cube count fails
    payload = json.loads(result.to_json())
    assert payload["spec"] == "fig06" and len(payload["cells"]) == 2


def test_sweep_parallel_matches_serial():
    grid = {"hash": ["morton", "original"], "scene": ["lego", "chair"]}
    serial = sweep("fig07", grid, workers=1, extra_params={"rays": "16", "points_per_ray": "16"})
    parallel = sweep("fig07", grid, workers=4, extra_params={"rays": "16", "points_per_ray": "16"})
    assert [c.to_dict() for c in serial.cells] == [c.to_dict() for c in parallel.cells]


# ---------------------------------------------------------------------- CLI
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_SPECS:
        assert name in out


def test_cli_list_json(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["name"] for entry in payload] == list(EXPECTED_SPECS)


def test_cli_run_writes_round_trippable_artifacts(tmp_path, capsys):
    code = main(
        ["run", "fig07", "--scene", "lego", "--dram", "ddr4", "--rays", "16",
         "--points-per-ray", "16", "--out", str(tmp_path), "--formats", "json,csv,text"]
    )
    assert code == 0
    from repro.experiments.runner import ExperimentResult

    restored = ExperimentResult.from_json((tmp_path / "fig07.json").read_text())
    assert restored.experiment_id == "Fig. 7"
    assert len(restored.rows) == 16
    assert (tmp_path / "fig07.csv").read_text().startswith("level,")
    assert "Fig. 7" in (tmp_path / "fig07.txt").read_text()


def test_cli_run_accepts_flags_before_the_experiment_name(tmp_path):
    code = main(
        ["run", "--quiet", "--out", str(tmp_path), "fig06", "--num-cubes", "64"]
    )
    assert code == 0
    assert (tmp_path / "fig06.json").exists()


def test_cli_run_unknown_experiment_fails_cleanly(capsys):
    assert main(["run", "fig99"]) == 2
    assert "available" in capsys.readouterr().err


def test_cli_run_bad_parameter_fails_cleanly(capsys):
    assert main(["run", "fig07", "--set", "rays=lots"]) == 2
    assert "expected int" in capsys.readouterr().err


def test_cli_sweep_writes_index(tmp_path, capsys):
    code = main(
        ["sweep", "fig06", "--grid", "num_cubes=64,128", "--workers", "2",
         "--quiet", "--out", str(tmp_path)]
    )
    assert code == 0
    index = json.loads((tmp_path / "sweep_fig06.json").read_text())
    assert [cell["params"]["num_cubes"] for cell in index["cells"]] == ["64", "128"]


def test_cli_report_subset(tmp_path, capsys):
    code = main(
        ["report", "--experiments", "tab01,tab02,tab03", "--out", str(tmp_path), "--quiet"]
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["experiments"] == ["tab01", "tab02", "tab03"]
    assert (tmp_path / "tab01.json").exists()


def test_cli_report_single_format_writes_csv_only(tmp_path):
    code = main(
        ["report", "--experiments", "tab01,tab02", "--format", "csv",
         "--out", str(tmp_path), "--quiet"]
    )
    assert code == 0
    for name in ("tab01", "tab02"):
        assert (tmp_path / f"{name}.csv").read_text().count("\n") > 1
        assert not (tmp_path / f"{name}.json").exists()


def test_cli_run_single_format_rejects_unknown(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig06", "--num-cubes", "64", "--format", "yaml", "--out", str(tmp_path)])


def test_cli_sweep_store_resume_roundtrip(tmp_path, capsys):
    """`sweep --store` persists cells; `--resume` replays them byte-identically."""
    store = str(tmp_path / "cache")
    base = ["sweep", "fig06", "--grid", "num_cubes=64,128", "--set", "resolution=128",
            "--store", store]
    assert main(base + ["--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(base + ["--resume", "--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "2 resumed" in out
    index_a = (tmp_path / "a" / "sweep_fig06.json").read_text()
    index_b = (tmp_path / "b" / "sweep_fig06.json").read_text()
    assert index_a == index_b


def test_cli_sweep_executor_flag_is_deterministic(tmp_path):
    for directory, executor in (("s", "serial"), ("t", "thread")):
        code = main(
            ["sweep", "fig06", "--grid", "num_cubes=64,128", "--set", "resolution=128",
             "--executor", executor, "--workers", "2", "--quiet",
             "--out", str(tmp_path / directory)]
        )
        assert code == 0
    serial = (tmp_path / "s" / "sweep_fig06.json").read_text()
    threaded = (tmp_path / "t" / "sweep_fig06.json").read_text()
    assert serial == threaded


def test_cli_run_store_resume(tmp_path, capsys):
    store = str(tmp_path / "cache")
    args = ["run", "fig06", "--num-cubes", "64", "--store", store]
    assert main(args) == 0
    assert main(args + ["--resume"]) == 0
    assert "loaded from store" in capsys.readouterr().out


def test_cli_resume_without_store_fails(tmp_path):
    with pytest.raises(SystemExit, match="requires --store"):
        main(["run", "fig06", "--num-cubes", "64", "--resume"])


def test_cli_refuses_overwriting_differing_artifact_without_force(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["run", "fig06", "--num-cubes", "64", "--quiet", "--out", out]) == 0
    # identical rerun: fine (idempotent)
    assert main(["run", "fig06", "--num-cubes", "64", "--quiet", "--out", out]) == 0
    # differing configuration writing the same file name: refused ...
    assert main(["run", "fig06", "--num-cubes", "128", "--quiet", "--out", out]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    # ... unless forced
    assert main(["run", "fig06", "--num-cubes", "128", "--quiet", "--out", out, "--force"]) == 0
