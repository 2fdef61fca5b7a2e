"""Tests for the ``python -m repro bench`` gate (run / compare / list).

The compare logic is exercised against synthetic BENCH trajectories; the
recorder behind ``bench run`` against a stub suite under ``tmp_path``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.pipeline.bench import (
    BASELINE_DIR,
    SUITES,
    BenchSuite,
    compare_file,
    compare_suites,
    get_suites,
    run_suites,
    stash_baselines,
)
from repro.pipeline.cli import main

SUITE = BenchSuite("hotpaths", "benchmarks/test_perf_hotpaths.py", "BENCH_hotpaths.json")
REPO = Path(__file__).resolve().parent.parent

#: A one-test stand-in for the hotpaths suite; ``{floor}`` is its bound.
STUB_SUITE = """
BENCH_ENTRY = {{"num_rays": 1}}


def test_stub(bench):
    seconds, value = bench.time(lambda: 2.0, repeats=3)
    assert value == 2.0
    calls = []
    (_, first), (_, second) = bench.time_pair(
        lambda: calls.append("first") or 1, lambda: calls.append("second") or 2, repeats=3
    )
    assert (first, second) == (1, 2)
    assert calls == ["first", "second"] * (len(calls) // 2)  # alternated
    bench.record(
        "stub",
        {{"seconds": seconds, "speedup": value, "pair_calls": len(calls)}},
        {{"speedup": (">=", {floor})}},
    )
"""


def _trajectory_entry(smoke, **metrics):
    return {"timestamp": "2026-01-01T00:00:00", "smoke": smoke, "results": metrics}


def _write(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return path


# ----------------------------------------------------------------- suites
def test_suite_registry_and_lookup():
    assert [s.name for s in SUITES] == [
        "hotpaths",
        "mem",
        "pipeline",
        "occupancy",
        "precision",
        "obs",
        "serve",
    ]
    assert [s.name for s in get_suites(["mem", "occupancy"])] == ["mem", "occupancy"]
    with pytest.raises(KeyError, match="unknown benchmark suite"):
        get_suites(["nope"])


def test_stash_baselines_copies_once(tmp_path):
    _write(tmp_path / "BENCH_hotpaths.json", [_trajectory_entry(False, stream={"speedup": 7.0})])
    stashed = stash_baselines(tmp_path)
    assert stashed == tmp_path / BASELINE_DIR
    assert (stashed / "BENCH_hotpaths.json").exists()
    # Mutate the live file; a second stash must not clobber the baseline.
    _write(tmp_path / "BENCH_hotpaths.json", [_trajectory_entry(False, stream={"speedup": 1.0})])
    assert stash_baselines(tmp_path) is None
    kept = json.loads((stashed / "BENCH_hotpaths.json").read_text())
    assert kept[0]["results"]["stream"]["speedup"] == 7.0


# --------------------------------------------------------------- recorder
@pytest.fixture
def stub_root(tmp_path, monkeypatch):
    """Write a stub hotpaths suite with the given floor; returns the root."""
    monkeypatch.setenv("PYTHONPATH", str(Path(repro.__file__).resolve().parents[1]))
    monkeypatch.delenv("PERF_SMOKE", raising=False)

    def make(floor: float) -> Path:
        suite_dir = tmp_path / "benchmarks"
        suite_dir.mkdir()
        shutil.copy2(REPO / "benchmarks" / "conftest.py", suite_dir / "conftest.py")
        (tmp_path / SUITE.test_file).write_text(STUB_SUITE.format(floor=floor))
        _write(tmp_path / SUITE.bench_file, [_trajectory_entry(False, stub={"speedup": 3.0})])
        return tmp_path

    return make


def test_plain_pytest_checks_no_bound_and_writes_nothing(stub_root):
    root = stub_root(floor=1e9)
    before = (root / SUITE.bench_file).read_bytes()
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", SUITE.test_file]
    result = subprocess.run(command, cwd=root, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout
    assert (root / SUITE.bench_file).read_bytes() == before


def test_run_suites_appends_one_entry(stub_root):
    root = stub_root(floor=1e9)
    before = json.loads((root / SUITE.bench_file).read_text())
    # The stub's bound is a full-scale one, so it does not apply at smoke scale.
    assert run_suites(root, ["hotpaths"], smoke=True) == 0
    after = json.loads((root / SUITE.bench_file).read_text())
    assert after[:-1] == before
    assert list(after[-1]) == ["timestamp", "smoke", "num_rays", "results"]
    assert after[-1]["smoke"] is True
    assert list(after[-1]["results"]) == ["stub"]
    assert after[-1]["results"]["stub"]["speedup"] == 2.0
    # Armed, each of the three repetitions times both sides.
    assert after[-1]["results"]["stub"]["pair_calls"] == 6


def test_run_suites_fails_on_a_missed_bound_and_names_it(stub_root, capfd):
    root = stub_root(floor=1e9)
    assert run_suites(root, ["hotpaths"]) != 0
    assert "stub: speedup = 2 misses its bound >= 1e+09" in capfd.readouterr().out


# ------------------------------------------------------------- comparison
def test_compare_flags_regressions_and_passes_improvements(tmp_path):
    baseline = _write(
        tmp_path / "base.json",
        [_trajectory_entry(False, stream={"speedup": 8.0}, conflicts={"speedup": 4.0})],
    )
    current = _write(
        tmp_path / "cur.json",
        [_trajectory_entry(False, stream={"speedup": 9.0}, conflicts={"speedup": 2.0})],
    )
    report = compare_file(SUITE, current, baseline, max_regression=0.25, cap=50.0)
    by_metric = {(m.section, m.metric): m for m in report.metrics}
    assert not by_metric[("stream", "speedup")].regressed
    assert by_metric[("conflicts", "speedup")].regressed  # 2.0 < 4.0 * 0.75


def test_compare_only_gates_higher_is_better_metrics(tmp_path):
    baseline = _write(
        tmp_path / "base.json",
        [_trajectory_entry(False, s={"speedup": 4.0, "reference_s": 0.1, "vectorized_s": 0.01})],
    )
    current = _write(
        tmp_path / "cur.json",
        [_trajectory_entry(False, s={"speedup": 4.0, "reference_s": 9.9, "vectorized_s": 9.9})],
    )
    report = compare_file(SUITE, current, baseline, 0.25, 50.0)
    assert [m.metric for m in report.metrics] == ["speedup"]
    assert not report.regressions


def test_compare_matches_on_smoke_flag(tmp_path):
    baseline = _write(
        tmp_path / "base.json",
        [
            _trajectory_entry(False, stream={"speedup": 50.0}),
            _trajectory_entry(True, stream={"speedup": 3.0}),
        ],
    )
    # A smoke run is gated against the smoke baseline (3.0), not the 50x
    # full-scale number.
    current = _write(tmp_path / "cur.json", [_trajectory_entry(True, stream={"speedup": 2.5})])
    report = compare_file(SUITE, current, baseline, 0.25, 50.0)
    assert len(report.metrics) == 1
    assert report.metrics[0].baseline == 3.0
    assert not report.regressions


def test_compare_baseline_is_the_noise_floor_of_recent_history(tmp_path):
    """Trajectory baselines take the min over recent matching entries."""
    baseline = _write(
        tmp_path / "base.json",
        [
            _trajectory_entry(True, s={"speedup": 10.7}),
            _trajectory_entry(True, s={"speedup": 13.4}),
            _trajectory_entry(True, s={"speedup": 15.3}),
        ],
    )
    # 11.2 would regress vs the latest 15.3 entry alone, but clears the
    # 10.7 noise floor of the recent history.
    current = _write(tmp_path / "cur.json", [_trajectory_entry(True, s={"speedup": 11.2})])
    report = compare_file(SUITE, current, baseline, 0.25, 50.0)
    assert report.metrics[0].baseline == 10.7
    assert not report.regressions
    # A drop below every recent entry still fails.
    current = _write(tmp_path / "cur.json", [_trajectory_entry(True, s={"speedup": 7.0})])
    assert compare_file(SUITE, current, baseline, 0.25, 50.0).regressions


def test_compare_cap_forgives_absurdly_fast_baselines(tmp_path):
    baseline = _write(tmp_path / "base.json", [_trajectory_entry(False, warm={"speedup": 1485.0})])
    current = _write(tmp_path / "cur.json", [_trajectory_entry(False, warm={"speedup": 300.0})])
    assert not compare_file(SUITE, current, baseline, 0.25, cap=50.0).regressions
    # Without the cap the same drop would fail.
    assert compare_file(SUITE, current, baseline, 0.25, cap=1e9).regressions


def test_compare_without_baseline_falls_back_to_trajectory(tmp_path):
    current = _write(
        tmp_path / "cur.json",
        [
            _trajectory_entry(False, stream={"speedup": 8.0}),
            _trajectory_entry(False, stream={"speedup": 7.0}),
        ],
    )
    report = compare_file(SUITE, current, None, 0.25, 50.0)
    assert any("previous entry" in note for note in report.notes)
    assert len(report.metrics) == 1 and not report.regressions


def test_compare_with_nothing_to_gate_passes(tmp_path):
    current = _write(tmp_path / "cur.json", [_trajectory_entry(False, stream={"speedup": 1.0})])
    report = compare_file(SUITE, current, None, 0.25, 50.0)
    assert not report.metrics and any("no baseline" in n for n in report.notes)
    missing = compare_file(SUITE, tmp_path / "absent.json", None, 0.25, 50.0)
    assert not missing.metrics and any("bench run" in n for n in missing.notes)


def test_compare_tolerates_corrupt_files(tmp_path):
    """A truncated BENCH file yields a note, not an aborted gate."""
    current = tmp_path / "cur.json"
    current.write_text('[{"timestamp": "2026-')
    report = compare_file(SUITE, current, None, 0.25, 50.0)
    assert not report.metrics and any("corrupt" in n for n in report.notes)
    good = _write(tmp_path / "good.json", [_trajectory_entry(True, s={"speedup": 2.0})])
    bad_baseline = tmp_path / "base.json"
    bad_baseline.write_text("{nope")
    report = compare_file(SUITE, good, bad_baseline, 0.25, 50.0)
    assert not report.metrics and any("corrupt" in n for n in report.notes)


def test_compare_reports_cap_clamped_values(tmp_path):
    """The reported baseline/current match the verdict (cap applied)."""
    baseline = _write(tmp_path / "base.json", [_trajectory_entry(False, w={"speedup": 1485.0})])
    current = _write(tmp_path / "cur.json", [_trajectory_entry(False, w={"speedup": 300.0})])
    (metric,) = compare_file(SUITE, current, baseline, 0.25, cap=50.0).metrics
    assert metric.baseline == 50.0 and metric.current == 50.0 and metric.ratio == 1.0


def test_compare_suites_exit_code(tmp_path):
    stash = tmp_path / BASELINE_DIR
    _write(stash / "BENCH_mem.json", [_trajectory_entry(True, cache={"speedup": 6.0})])
    _write(tmp_path / "BENCH_mem.json", [_trajectory_entry(True, cache={"speedup": 1.0})])
    reports, exit_code = compare_suites(tmp_path, ["mem"])
    assert exit_code == 1 and reports[0].regressions
    _write(tmp_path / "BENCH_mem.json", [_trajectory_entry(True, cache={"speedup": 6.5})])
    reports, exit_code = compare_suites(tmp_path, ["mem"])
    assert exit_code == 0 and not reports[0].regressions
    with pytest.raises(ValueError):
        compare_suites(tmp_path, ["mem"], max_regression=1.5)


# -------------------------------------------------------------------- CLI
def test_cli_bench_list_and_compare(tmp_path, capsys):
    assert main(["bench", "list", "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "hotpaths" in out and "BENCH_occupancy.json" in out

    stash = tmp_path / BASELINE_DIR
    _write(stash / "BENCH_hotpaths.json", [_trajectory_entry(True, s={"speedup": 4.0})])
    _write(tmp_path / "BENCH_hotpaths.json", [_trajectory_entry(True, s={"speedup": 1.0})])
    code = main(
        ["bench", "compare", "hotpaths", "--root", str(tmp_path), "--max-regression", "0.25"]
    )
    assert code == 1
    assert "REGRESSED" in capsys.readouterr().out
    # A looser tolerance (or a fixed current value) passes and says so.
    _write(tmp_path / "BENCH_hotpaths.json", [_trajectory_entry(True, s={"speedup": 3.9})])
    assert main(["bench", "compare", "hotpaths", "--root", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["suite"] == "hotpaths" and not payload[0]["metrics"][0]["regressed"]


def test_cli_bench_compare_on_committed_baselines(tmp_path):
    """The committed BENCH files parse and gate cleanly against themselves."""
    import shutil
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    copied = 0
    for suite in SUITES:
        source = root / suite.bench_file
        if source.exists():
            shutil.copy2(source, tmp_path / suite.bench_file)
            copied += 1
    assert copied, "expected committed BENCH_*.json baselines at the repo root"
    stash_baselines(tmp_path)
    assert main(["bench", "compare", "--root", str(tmp_path)]) == 0
