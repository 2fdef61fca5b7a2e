"""Benchmark-suite orchestration, recording and regression gating.

``python -m repro bench`` is the single entry point CI and local users share
for the repository's performance/determinism benchmark suites:

``bench list``
    Show every suite with its pytest file, trajectory JSON and entry count.
``bench run``
    Run one or more suites (``--smoke`` maps to ``PERF_SMOKE=1``) with this
    module loaded into each pytest run as the recorder plugin.  Before the
    first run the committed ``BENCH_*.json`` files are stashed into
    ``.bench-baseline/`` so a later ``compare`` still sees the pre-run state.
``bench compare``
    Compare the fresh benchmark JSON against the stashed (or committed)
    baselines and fail on regressions beyond ``--max-regression``.

The recorder is the only reader and writer of the BENCH format: a JSON list
of ``{timestamp, smoke, <suite parameters>, results: {section: {metric:
value}}}`` entries.  The ``bench`` fixture of ``benchmarks/conftest.py``
hands it each recorded section with its bounds (:meth:`Recorder.record`); a
missed bound fails the test, and at session end each suite's entry is
appended to its trajectory.  A plain pytest run never loads the recorder,
so it checks no bound and writes no file.

Only higher-is-better metrics are gated — ``speedup``/``*_speedup``,
``*_reduction`` and ``store_hit_rate`` — and values are clamped to ``--cap``
before comparison so a 1485x warm-store rerun dropping to a (still absurdly
fast) 300x does not fail the build.  Baselines are matched on the
``smoke`` flag — smoke runs only gate against smoke baselines, full-scale
runs against full-scale baselines — and each metric's baseline is the
minimum over the last few matching entries (a noise floor; see
:func:`_baseline_sections`).
"""

from __future__ import annotations

import json
import operator
import os
import shutil
import subprocess
import sys
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..experiments.runner import atomic_write_text
from ..obs import get_tracer
from ..obs.clock import local_timestamp

__all__ = [
    "BenchSuite",
    "SUITES",
    "get_suites",
    "stash_baselines",
    "run_suites",
    "MetricComparison",
    "SuiteComparison",
    "compare_file",
    "compare_suites",
    "BASELINE_DIR",
    "RECORDER",
    "Recorder",
    "entry_count",
]

#: Directory (relative to the repo root) holding pre-run baseline copies.
BASELINE_DIR = ".bench-baseline"


@dataclass(frozen=True)
class BenchSuite:
    """One benchmark suite: a pytest file and the JSON it records into."""

    name: str
    test_file: str
    bench_file: str


SUITES: tuple[BenchSuite, ...] = (
    BenchSuite("hotpaths", "benchmarks/test_perf_hotpaths.py", "BENCH_hotpaths.json"),
    BenchSuite("mem", "benchmarks/test_perf_mem.py", "BENCH_mem.json"),
    BenchSuite("pipeline", "benchmarks/test_pipeline_suite.py", "BENCH_pipeline.json"),
    BenchSuite("occupancy", "benchmarks/test_perf_occupancy.py", "BENCH_occupancy.json"),
    BenchSuite("precision", "benchmarks/test_perf_precision.py", "BENCH_precision.json"),
    BenchSuite("obs", "benchmarks/test_perf_obs.py", "BENCH_obs.json"),
    BenchSuite("serve", "benchmarks/test_perf_serve.py", "BENCH_serve.json"),
)


def get_suites(names: list[str] | None = None) -> list[BenchSuite]:
    """Resolve suite names (default: all), rejecting unknown ones."""
    if not names:
        return list(SUITES)
    by_name = {suite.name: suite for suite in SUITES}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        known = ", ".join(by_name)
        raise KeyError(f"unknown benchmark suite(s) {', '.join(unknown)}; available: {known}")
    return [by_name[n] for n in names]


def _mtime_stamp(path: Path) -> str:
    """Human-readable modification time of a stash directory."""
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(path.stat().st_mtime))
    except OSError:
        return "unknown time"


def stash_baselines(root: Path, baseline_dir: str = BASELINE_DIR) -> Path | None:
    """Copy the committed BENCH files aside before a run overwrites them.

    No-op (returning ``None``) when the stash directory already exists, so
    repeated ``bench run`` invocations keep the original pre-run state.
    """
    target = root / baseline_dir
    if target.exists():
        return None
    target.mkdir(parents=True)
    for suite in SUITES:
        source = root / suite.bench_file
        if source.exists():
            shutil.copy2(source, target / suite.bench_file)
    return target


def run_suites(root: Path, names: list[str] | None = None, smoke: bool = False) -> int:
    """Run each suite's pytest file under the recorder; returns the first non-zero exit code."""
    suites = get_suites(names)
    stashed = stash_baselines(root)
    if stashed is not None:
        print(f"stashed committed baselines into {stashed}")
    else:
        existing = root / BASELINE_DIR
        print(
            f"reusing existing baseline stash {existing} "
            f"(from {_mtime_stamp(existing)}; delete the directory to re-stash)"
        )
    env = dict(os.environ)
    if smoke:
        env["PERF_SMOKE"] = "1"
    else:
        env.pop("PERF_SMOKE", None)
    src = root / "src"
    if src.is_dir():
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
    exit_code = 0
    tracer = get_tracer()
    for suite in suites:
        test_path = root / suite.test_file
        print(f"== bench run {suite.name} ({test_path}){' [smoke]' if smoke else ''} ==")
        with tracer.span("bench.suite", "pipeline") as span:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", __name__, str(test_path)],
                cwd=root,
                env=env,
            )
            if span.enabled:
                span.add_args(suite=suite.name, exit_code=result.returncode)
        if result.returncode and not exit_code:
            exit_code = result.returncode
    return exit_code


# ------------------------------------------------------------------ recorder
#: Comparisons a recorded bound may use, as ``(op, limit)``.
_BOUND_OPS: dict[str, Callable[[float, float], bool]] = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
}

#: The name :func:`pytest_configure` registers the session's recorder under;
#: the ``bench`` fixture is armed when it finds a plugin by this name.
RECORDER = "repro-bench-recorder"


def _bench_path(test_path: Path) -> Path:
    """The BENCH file of the suite whose pytest file is ``test_path``."""
    posix = Path(test_path).resolve().as_posix()
    for suite in SUITES:
        if posix.endswith("/" + suite.test_file):
            return Path(posix[: -len(suite.test_file)]) / suite.bench_file
    raise ValueError(f"{test_path} is not the pytest file of a benchmark suite")


def _rounded(value: Any) -> Any:
    """Floats to four significant digits, recursively; everything else as is."""
    if isinstance(value, float):
        return float(f"{value:.4g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    return value


class Recorder:
    """One pytest session's recorded sections, appended to BENCH files at its end."""

    def __init__(self) -> None:
        #: Per BENCH file: the entry's top-level keys besides ``timestamp``,
        #: and its results so far.
        self._entries: dict[Path, tuple[dict[str, Any], dict[str, Any]]] = {}

    def record(
        self,
        test_path: Path,
        section: str,
        metrics: Mapping[str, Any],
        bounds: Mapping[str, tuple[str, float]],
        header: Mapping[str, Any],
    ) -> None:
        """Record one section of a suite's entry, then check its bounds.

        ``bounds`` maps a metric to ``(op, limit)`` with ``op`` one of
        ``>=``, ``>``, ``<=`` and ``<``; each bound is checked on the
        unrounded value.  ``header`` holds the entry's ``smoke`` flag and
        suite parameters.  Raises :class:`AssertionError` naming the
        section, metric, value and bound of every missed bound; the section
        is recorded either way.
        """
        _, results = self._entries.setdefault(_bench_path(test_path), (dict(header), {}))
        results[section] = _rounded(dict(metrics))
        missed = [
            f"{section}: {metric} = {metrics[metric]:.6g} misses its bound {op} {limit:g}"
            for metric, (op, limit) in bounds.items()
            if not _BOUND_OPS[op](metrics[metric], limit)
        ]
        if missed:
            raise AssertionError("; ".join(missed))

    def pytest_sessionfinish(self) -> None:
        """Append each recorded suite's entry to its BENCH trajectory."""
        for path, (header, results) in self._entries.items():
            trajectory = json.loads(path.read_text()) if path.exists() else []
            trajectory.append({"timestamp": local_timestamp(), **header, "results": results})
            atomic_write_text(path, json.dumps(trajectory, indent=2) + "\n", overwrite=True)


def pytest_configure(config: Any) -> None:
    """Arm the ``bench`` fixture: register this session's :class:`Recorder`."""
    config.pluginmanager.register(Recorder(), RECORDER)


def entry_count(path: Path) -> str:
    """How many entries a BENCH trajectory holds: a count, ``-`` or ``corrupt``."""
    if not path.exists():
        return "-"
    try:
        return str(len(json.loads(path.read_text())))
    except ValueError:
        return "corrupt"


# ---------------------------------------------------------------- comparison
def _is_metric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _higher_is_better(metric: str) -> bool:
    return (
        metric == "speedup"
        or metric.endswith("_speedup")
        or metric.endswith("_reduction")
        or metric == "store_hit_rate"
    )


def _sections(payload: object) -> list[tuple[str, bool | None, dict[str, float]]]:
    """``(section, smoke, metrics)`` of a trajectory's *last* entry.

    Earlier entries are baseline history.
    """
    if not isinstance(payload, list) or not payload:
        return []
    entry = payload[-1]
    smoke = entry.get("smoke")
    return [
        (name, smoke, {k: v for k, v in metrics.items() if _is_metric(v)})
        for name, metrics in entry.get("results", {}).items()
    ]


#: Matching-smoke trajectory entries folded into the per-metric baseline.
BASELINE_HISTORY = 5


def _baseline_sections(payload: object, smoke: bool | None) -> dict[str, dict[str, float]]:
    """Smoke-matched baseline metrics per section.

    The per-metric baseline is the *minimum* over the last
    :data:`BASELINE_HISTORY` entries whose smoke flag matches the current
    run — a noise floor, so one unusually fast historical run (timed
    speedups at smoke scale jitter by tens of percent) cannot fail a build
    that still clears every recent baseline.
    """
    if not isinstance(payload, list):
        return {}
    matching = [e for e in reversed(payload) if e.get("smoke") == smoke]
    floor: dict[str, dict[str, float]] = {}
    for entry in matching[:BASELINE_HISTORY]:
        for name, metrics in entry.get("results", {}).items():
            section = floor.setdefault(name, {})
            for key, value in metrics.items():
                if _is_metric(value):
                    section[key] = min(section[key], value) if key in section else value
    return floor


@dataclass(frozen=True)
class MetricComparison:
    """One gated metric of one benchmark section.

    ``baseline``/``current`` hold the cap-clamped values the verdict was
    computed from, so a reported ratio always matches ``regressed``.
    """

    section: str
    metric: str
    baseline: float
    current: float
    regressed: bool

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")


@dataclass
class SuiteComparison:
    """Comparison outcome of one suite."""

    suite: str
    metrics: list[MetricComparison] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricComparison]:
        return [m for m in self.metrics if m.regressed]


def compare_file(
    suite: BenchSuite,
    current_path: Path,
    baseline_path: Path | None,
    max_regression: float,
    cap: float,
) -> SuiteComparison:
    """Gate one suite's fresh JSON against its baseline JSON."""
    report = SuiteComparison(suite=suite.name)
    if not current_path.exists():
        report.notes.append(f"no current benchmark file {current_path.name}; run `bench run` first")
        return report
    try:
        current_payload = json.loads(current_path.read_text())
    except ValueError as exc:
        report.notes.append(f"current benchmark file {current_path.name} is corrupt: {exc}")
        return report
    current = _sections(current_payload)
    if not current:
        report.notes.append("current benchmark file records no sections")
        return report
    if baseline_path is not None and baseline_path.exists():
        try:
            baseline_payload = json.loads(baseline_path.read_text())
        except ValueError as exc:
            report.notes.append(f"baseline file {baseline_path} is corrupt: {exc}")
            return report
    elif isinstance(current_payload, list) and len(current_payload) > 1:
        # No stash: fall back to the trajectory's own history.
        baseline_payload = current_payload[:-1]
        report.notes.append("no baseline stash; comparing against the trajectory's previous entry")
    else:
        report.notes.append("no baseline available; nothing to gate against")
        return report
    smoke = current[0][1]
    baseline = _baseline_sections(baseline_payload, smoke)
    if not baseline:
        report.notes.append(
            f"baseline has no {'smoke' if smoke else 'full-scale'} entry; nothing to gate against"
        )
        return report
    for section, _, metrics in current:
        base_metrics = baseline.get(section)
        if base_metrics is None:
            report.notes.append(f"section {section!r} is new (no baseline)")
            continue
        for metric, value in metrics.items():
            if not _higher_is_better(metric) or metric not in base_metrics:
                continue
            base = min(float(base_metrics[metric]), cap)
            cur = min(float(value), cap)
            report.metrics.append(
                MetricComparison(
                    section=section,
                    metric=metric,
                    baseline=base,
                    current=cur,
                    regressed=cur < base * (1.0 - max_regression),
                )
            )
    return report


def compare_suites(
    root: Path,
    names: list[str] | None = None,
    baseline_dir: str | None = None,
    max_regression: float = 0.25,
    cap: float = 50.0,
) -> tuple[list[SuiteComparison], int]:
    """Gate every requested suite; returns the reports and the exit code."""
    if not 0.0 <= max_regression < 1.0:
        raise ValueError(f"max_regression must be in [0, 1), got {max_regression}")
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    stash = root / (baseline_dir or BASELINE_DIR)
    reports = []
    for suite in get_suites(names):
        baseline_path = stash / suite.bench_file
        reports.append(
            compare_file(
                suite,
                root / suite.bench_file,
                baseline_path if baseline_path.exists() else None,
                max_regression,
                cap,
            )
        )
    exit_code = 1 if any(r.regressions for r in reports) else 0
    return reports, exit_code
