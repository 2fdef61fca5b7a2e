"""Tests for the on-disk artifact store, sweep executors and resumability.

Covers the PR-4 acceptance points at tier-1 scale:

* store roundtrip per payload type, atomic writes, schema invalidation;
* context read-through (a warm store means zero computations);
* cross-process determinism — serial, thread and process executors produce
  byte-identical ``SweepResult.to_json()``;
* a killed-then-resumed sweep equals a fresh full run;
* store hits never recompute (asserted via a compute-counter hook).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.hashing import MortonLocalityHash
from repro.core.streaming import LocalityReport, StreamingOrder
from repro.experiments.runner import (
    ExperimentResult,
    atomic_write_text,
    write_json_artifact,
)
from repro.nerf.encoding import HashGridConfig
from repro.pipeline import (
    STORE_MISS,
    ArtifactStore,
    ExperimentSpec,
    ParamSpec,
    SimulationContext,
    key_digest,
    sweep,
)
from repro.pipeline.sweep import ProcessSweepExecutor, cell_store_key, resolve_executor
from repro.workloads.traces import TraceConfig

FIG06_EXTRA = {"resolution": "128", "table_size": "4096"}
FIG06_GRID = {"num_cubes": ["64", "128"]}


# ------------------------------------------------------------------- digests
def test_key_digest_stable_and_distinct():
    key = ("batch_points", ("TraceConfig", (("num_rays", 8),)))
    assert key_digest(key) == key_digest(("batch_points", ("TraceConfig", (("num_rays", 8),))))
    assert key_digest(key) != key_digest(("batch_points", ("TraceConfig", (("num_rays", 9),))))
    # tuples and lists address the same payload (canonical JSON form)
    assert key_digest((1, 2)) == key_digest([1, 2])
    # type distinctions that matter survive canonicalization
    assert key_digest(("a", 1)) != key_digest(("a", 1.0))
    assert key_digest(("a", "1")) != key_digest(("a", 1))


# ----------------------------------------------------------------- roundtrip
@pytest.mark.parametrize(
    "value",
    [
        42,
        3.25,
        "text",
        True,
        None,
        {"total_requests": 7, "row_hit_rate": 0.5, "nested": [1, 2.5, "x", None]},
        [1, 2, 3],
    ],
)
def test_store_roundtrips_json_values(tmp_path, value):
    store = ArtifactStore(tmp_path)
    assert store.put(("k", "json"), value)
    assert ArtifactStore(tmp_path).get(("k", "json")) == value


def test_store_roundtrips_ndarray(tmp_path):
    store = ArtifactStore(tmp_path)
    array = np.arange(24, dtype=np.int64).reshape(3, 8)
    assert store.put(("k", "arr"), array)
    loaded = ArtifactStore(tmp_path).get(("k", "arr"))
    assert loaded.dtype == array.dtype and np.array_equal(loaded, array)
    assert not loaded.flags.writeable  # shared artifacts are read-only


def test_store_roundtrips_experiment_result(tmp_path):
    store = ArtifactStore(tmp_path)
    result = ExperimentResult("Fig. X", "demo", rows=[{"a": 1, "b": 2.5}], notes="n")
    assert store.put(("k", "res"), result)
    loaded = ArtifactStore(tmp_path).get(("k", "res"))
    assert isinstance(loaded, ExperimentResult)
    assert loaded.to_json() == result.to_json()


def test_store_roundtrips_locality_reports(tmp_path):
    store = ArtifactStore(tmp_path)
    reports = [
        LocalityReport(
            level=i,
            baseline_requests=10 * i,
            optimized_requests=i,
            sharing_run_length=1.5,
            register_hit_rate=0.25,
        )
        for i in range(1, 4)
    ]
    assert store.put(("k", "loc"), reports)
    loaded = ArtifactStore(tmp_path).get(("k", "loc"))
    assert loaded == reports


def test_store_skips_unstorable_values(tmp_path):
    store = ArtifactStore(tmp_path)
    assert not store.put(("k", "obj"), object())
    assert not store.put(("k", "objarr"), np.array([object()], dtype=object))
    assert store.stats.skipped == 2
    assert store.get(("k", "obj")) is STORE_MISS
    assert len(store) == 0


def test_store_miss_and_corrupt_payloads_are_quarantined(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.get(("missing",)) is STORE_MISS
    assert store.stats.misses == 1
    store.put(("k",), 1)
    # corrupt the payload on disk: treated as a miss, counted as an error,
    # and deleted so the caller's recompute repairs the key
    payload = next(store.path.glob("*/*.json"))
    payload.write_text("{not json")
    fresh = ArtifactStore(tmp_path)
    assert fresh.get(("k",)) is STORE_MISS
    assert fresh.stats.errors == 1
    assert not payload.exists(), "corrupt payloads must be removed, not kept forever"
    assert fresh.put(("k",), 1)  # the rewrite is not blocked by target.exists()
    assert ArtifactStore(tmp_path).get(("k",)) == 1


def test_store_put_is_best_effort_on_io_errors(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    store = ArtifactStore(blocker / "store")  # every mkdir/write fails
    assert store.put(("k",), 1) is False
    assert store.stats.errors == 1
    assert store.get(("k",)) is STORE_MISS


def test_store_writes_are_atomic_and_idempotent(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put(("k",), {"v": 1})
    store.put(("k",), {"v": 1})  # second write is a no-op (content-addressed)
    assert len(store) == 1
    assert not list(store.path.glob("**/*.tmp"))  # no temp debris
    assert store.stats.writes == 1


def test_store_schema_version_invalidates(tmp_path):
    v1 = ArtifactStore(tmp_path, schema_version=1)
    v1.put(("k",), 123)
    v2 = ArtifactStore(tmp_path, schema_version=2)
    assert v2.get(("k",)) is STORE_MISS  # old payloads are not addressed
    v2.put(("k",), 456)
    assert ArtifactStore(tmp_path, schema_version=1).get(("k",)) == 123
    assert ArtifactStore(tmp_path, schema_version=2).get(("k",)) == 456


# ------------------------------------------------------------- read-through
def test_context_reads_through_store_without_recomputing(tmp_path):
    trace = TraceConfig(num_rays=8, points_per_ray=8, seed=3)
    grid = HashGridConfig(num_levels=4, table_size=2**10, max_resolution=64)

    def row_requests(ctx):
        stream = ctx.request_stream(grid, trace, MortonLocalityHash(), StreamingOrder.RAY_FIRST, 0)
        return ctx.stream_row_requests(stream)

    cold = SimulationContext(store=ArtifactStore(tmp_path))
    points = cold.batch_points(trace)
    requests = row_requests(cold)
    assert cold.stats.computes > 0 and cold.stats.store_hits == 0

    warm = SimulationContext(store=ArtifactStore(tmp_path))
    assert np.array_equal(warm.batch_points(trace), points)
    assert row_requests(warm) == requests
    assert warm.stats.computes == 0, "a warm store must answer every artifact request"
    assert warm.stats.store_hits == warm.stats.misses


# --------------------------------------------------- executors / determinism
def test_resolve_executor_names_and_errors():
    assert resolve_executor("auto", 1).name == "serial"
    assert resolve_executor("auto", 4).name == "thread"
    assert resolve_executor("process", 2).name == "process"
    custom = ProcessSweepExecutor(2)
    assert resolve_executor(custom, 8) is custom
    with pytest.raises(ValueError, match="unknown executor"):
        resolve_executor("gpu", 2)
    with pytest.raises(ValueError, match="positive"):
        ProcessSweepExecutor(0)


def test_serial_thread_process_executors_byte_identical():
    """Cross-process determinism: identical SweepResult.to_json() everywhere."""
    serial = sweep("fig06", FIG06_GRID, executor="serial", extra_params=FIG06_EXTRA)
    threaded = sweep("fig06", FIG06_GRID, workers=2, executor="thread", extra_params=FIG06_EXTRA)
    procs = sweep("fig06", FIG06_GRID, workers=2, executor="process", extra_params=FIG06_EXTRA)
    assert not serial.failed and not threaded.failed and not procs.failed
    assert serial.to_json() == threaded.to_json() == procs.to_json()
    assert (serial.executor, threaded.executor, procs.executor) == ("serial", "thread", "process")


def test_process_executor_spawn_matches_fork():
    """The portable spawn start method produces the same bytes as fork."""
    fork = sweep(
        "fig06", FIG06_GRID,
        executor=ProcessSweepExecutor(2, start_method="fork"),
        extra_params=FIG06_EXTRA,
    )
    spawn = sweep(
        "fig06", FIG06_GRID,
        executor=ProcessSweepExecutor(2, start_method="spawn"),
        extra_params=FIG06_EXTRA,
    )
    assert fork.to_json() == spawn.to_json()


def test_process_executor_shares_arrays_and_uses_store(tmp_path):
    """fig07 cells adopt the parent's shared-memory arrays and fill the store."""
    store = ArtifactStore(tmp_path)
    grid = {"hash": ["morton", "original"]}
    extra = {"rays": "16", "points_per_ray": "16"}
    serial = sweep("fig07", grid, executor="serial", extra_params=extra)
    procs = sweep(
        "fig07", grid,
        executor=ProcessSweepExecutor(2, min_shared_bytes=1024),
        extra_params=extra,
        store=store,
    )
    assert not procs.failed
    assert procs.to_json() == serial.to_json()
    assert len(store) > 2, "workers should persist simulation artifacts, not just cells"


def test_process_executor_reports_cell_errors():
    result = sweep(
        "fig06",
        {"num_cubes": ["64", "-1"]},  # negative cube count fails inside the worker
        executor=ProcessSweepExecutor(2),
        extra_params=FIG06_EXTRA,
    )
    assert result.cells[0].error is None
    assert result.cells[1].error is not None


def test_failing_sweep_is_byte_identical_across_executors():
    """Cell tracebacks are normalized (harness frames dropped), so even a
    partially failing sweep serializes identically under every executor."""
    grid = {"num_cubes": ["64", "-1"]}
    serial = sweep("fig06", grid, executor="serial", extra_params=FIG06_EXTRA)
    threaded = sweep("fig06", grid, workers=2, executor="thread", extra_params=FIG06_EXTRA)
    procs = sweep("fig06", grid, workers=2, executor="process", extra_params=FIG06_EXTRA)
    assert serial.cells[1].error is not None
    assert serial.to_json() == threaded.to_json() == procs.to_json()


# ------------------------------------------------------------------- resume
def _counting_spec(counter: list) -> ExperimentSpec:
    def runner(ctx, x: int = 0) -> ExperimentResult:
        counter.append(x)
        return ExperimentResult("Test", "counting", rows=[{"x": x, "y": 2 * x}])

    return ExperimentSpec(
        name="counting-test",
        paper_ref="-",
        title="counting",
        runner=runner,
        params=(ParamSpec("x", int, 0),),
    )


def test_store_hits_never_recompute(tmp_path):
    """Resume granularity: cells found in the store skip their runner."""
    calls: list = []
    spec = _counting_spec(calls)
    store = ArtifactStore(tmp_path)
    first = sweep(spec, {"x": [1, 2, 3]}, store=store)
    assert not first.failed and len(calls) == 3

    second = sweep(spec, {"x": [1, 2, 3]}, store=ArtifactStore(tmp_path), resume=True)
    assert len(calls) == 3, "a fully warm store must not invoke the runner at all"
    assert all(cell.resumed for cell in second.cells)
    assert second.to_json() == first.to_json()


def test_killed_then_resumed_sweep_equals_fresh_run(tmp_path):
    """A sweep interrupted after some cells continues to the full result."""
    calls: list = []
    spec = _counting_spec(calls)
    # "Killed" run: only a sub-grid completed before the interruption.
    sweep(spec, {"x": [1, 2]}, store=ArtifactStore(tmp_path))
    assert len(calls) == 2

    resumed = sweep(spec, {"x": [1, 2, 3, 4]}, store=ArtifactStore(tmp_path), resume=True)
    assert len(calls) == 4, "resume must evaluate exactly the missing cells"
    assert [cell.resumed for cell in resumed.cells] == [True, True, False, False]

    fresh = sweep(_counting_spec([]), {"x": [1, 2, 3, 4]})
    assert resumed.to_json() == fresh.to_json()


def test_resume_requires_store():
    with pytest.raises(ValueError, match="requires a store"):
        sweep("fig06", FIG06_GRID, resume=True)


def test_cell_store_key_distinguishes_params_and_seed():
    base = cell_store_key("fig07", {"hash": "morton"}, 0)
    assert base == cell_store_key("fig07", {"hash": "morton"}, 0)
    assert base != cell_store_key("fig07", {"hash": "original"}, 0)
    assert base != cell_store_key("fig07", {"hash": "morton"}, 1)
    assert base != cell_store_key("fig09", {"hash": "morton"}, 0)


def test_cell_store_key_binds_defaults_and_types():
    """Keys use the fully bound config: defaults included, raw values parsed."""
    base = cell_store_key("fig07", {"hash": "morton"}, 0)
    # passing a parameter at its default value hits the same cell
    assert base == cell_store_key("fig07", {"hash": "morton", "rays": "128"}, 0)
    # raw CLI strings and typed API values address the same payload
    assert cell_store_key("fig07", {"rays": "256"}, 0) == cell_store_key(
        "fig07", {"rays": 256}, 0
    )
    # ... and a non-default value is a different cell
    assert base != cell_store_key("fig07", {"hash": "morton", "rays": "256"}, 0)


# ---------------------------------------------------------- artifact writing
def test_atomic_write_text_refuses_differing_overwrite(tmp_path):
    target = tmp_path / "deep" / "nested" / "artifact.json"
    atomic_write_text(target, "one\n")  # creates parent directories
    assert target.read_text() == "one\n"
    atomic_write_text(target, "one\n")  # identical rewrite is a no-op
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        atomic_write_text(target, "two\n")
    assert target.read_text() == "one\n"
    atomic_write_text(target, "two\n", overwrite=True)
    assert target.read_text() == "two\n"
    assert not list(tmp_path.glob("**/*.tmp"))


def test_write_json_artifact_is_atomic_and_guarded(tmp_path):
    result = ExperimentResult("Fig. X", "demo", rows=[{"a": 1}])
    path = write_json_artifact(result, tmp_path / "sub" / "r.json")
    assert json.loads(path.read_text())["experiment_id"] == "Fig. X"
    write_json_artifact(result, path)  # idempotent
    differing = ExperimentResult("Fig. X", "demo", rows=[{"a": 2}])
    with pytest.raises(FileExistsError):
        write_json_artifact(differing, path)
    write_json_artifact(differing, path, overwrite=True)


def test_sweep_result_write_creates_parents_and_refuses_divergence(tmp_path):
    calls: list = []
    spec = _counting_spec(calls)
    first = sweep(spec, {"x": [1]})
    out = tmp_path / "artifacts" / "nested"
    first.write(out)  # parents created
    first.write(out)  # byte-identical rewrite passes
    diverged = sweep(_counting_spec([]), {"x": [2]})
    diverged.grid = first.grid  # same file names, different cell content
    diverged.cells[0].params = dict(first.cells[0].params)
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        diverged.write(out)
    diverged.write(out, overwrite=True)
