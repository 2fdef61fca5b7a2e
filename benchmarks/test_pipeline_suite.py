"""Pipeline acceptance benchmarks: shared-context suite speedup and sweeps.

Five claims are checked:

1. Running the full registered suite at each spec's smoke scale
   (``ExperimentSpec.smoke``, the scale ``tests/golden/suite_smoke.json``
   pins) against one shared :class:`SimulationContext` reuses artifacts
   (cache hits) and finishes faster than running each experiment through
   the registry on its own fresh context.  The timed comparison covers the
   ten model-driven experiments, on CPU time (both paths are
   single-threaded deterministic work).
2. A multi-worker sweep writes deterministic, seed-stable JSON artifacts:
   running the same grid twice — with a different worker count, or serially
   — yields byte-identical files (runtime provenance is excluded from them).
3. A (scene x method) PSNR sweep through the shared context matches one
   fresh-context registry run per cell and is faster than them, because the
   rendered datasets are shared across the hash-function cells.
4. A process-pool sweep of an 8-cell grid (shared-memory artifact export,
   GIL-free workers) is byte-identical to the serial run; at full scale on a
   multi-core machine it clears a >=2x wall-clock floor.  The floor needs
   real parallel hardware, so it applies only when ``os.cpu_count() >= 4``
   — the measured numbers (and the core count they were measured on) are
   recorded either way.
5. A second, warm-store run of the same grid resumes every cell from the
   on-disk artifact store — 100% store hit rate, zero simulation — and is
   more than 2x faster than the cold run even on one core.

The speed claims are bounds on timings recorded into ``BENCH_pipeline.json``
through the ``bench`` fixture, so only ``repro bench run`` checks them (see
``benchmarks/conftest.py``).  ``PERF_SMOKE=1`` shrinks the sweeps; the
timing floors then do not apply, while the equality, cache-hit and
store-hit asserts still run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import SMOKE
from repro.pipeline import (
    ArtifactStore,
    SimulationContext,
    all_experiments,
    experiment_names,
    run_experiment,
    run_suite,
    sweep,
)
from repro.pipeline.sweep import ProcessSweepExecutor

FAST_NAMES = [
    "fig01", "fig04", "fig06", "fig07", "fig09",
    "fig10", "fig11", "tab01", "tab02", "tab03",
]
#: Every spec's smoke scale, keyed by experiment name.
SPEC_SMOKE = {spec.name: spec.smoke for spec in all_experiments()}


def test_full_suite_shared_context_faster_than_legacy(bench):
    context = SimulationContext()
    run_suite(context=context, overrides=SPEC_SMOKE)
    # Sharing must actually happen: the locality trio draws from one trace,
    # Fig. 7, Fig. 9 and Fig. 12 share the 16 per-level request streams,
    # Fig. 4 reuses Fig. 1's kernel profiles.
    assert context.stats.hits >= 100, f"expected heavy artifact reuse, got {context.stats}"
    reuse = context.stats.hits_by_kind()
    assert reuse.get("batch_points", 0) >= 2, reuse  # one trace feeds the trio
    # fig09 reads fig07's 16 streams once, fig12 at both cache sizes (32)
    assert reuse.get("request_stream", 0) >= 48, reuse
    assert reuse.get("scene_profile", 0) >= 6, reuse  # fig04 reads fig01's kernel profiles

    # --- speed: one shared context vs a fresh context per experiment
    def fresh_contexts():
        for name in FAST_NAMES:
            run_experiment(name, context=SimulationContext(), **SPEC_SMOKE[name])

    def shared_context():
        run_suite(FAST_NAMES, context=SimulationContext(), overrides=SPEC_SMOKE)

    reps = 2 if SMOKE else 5
    legacy_s, _ = bench.time(fresh_contexts, repeats=reps, clock=time.process_time)
    pipeline_s, _ = bench.time(shared_context, repeats=reps, clock=time.process_time)
    bench.record(
        "suite_shared_context",
        {
            "legacy_cpu_s": legacy_s,
            "pipeline_cpu_s": pipeline_s,
            "speedup": legacy_s / pipeline_s,
            "cache_hits": context.stats.hits,
        },
        {"speedup": (">", 1.0)},
    )


def test_multiworker_sweep_artifacts_deterministic(tmp_path):
    grid = {"scene": ["lego", "chair"], "hash": ["morton", "original"]}

    def run_once(directory: Path, workers: int) -> dict[str, str]:
        result = sweep("fig07", grid, workers=workers, base_seed=7)
        assert not result.failed
        result.write(directory)
        return {p.name: p.read_text() for p in sorted(directory.iterdir())}

    first = run_once(tmp_path / "a", workers=2)
    second = run_once(tmp_path / "b", workers=2)
    serial = run_once(tmp_path / "c", workers=1)
    assert first == second, "re-running the sweep must reproduce identical artifacts"
    # Runtime provenance (worker count, executor) is excluded from the
    # artifacts, so the serial run produces the very same bytes.
    assert first == serial
    # Seed stability: every cell runs on the sweep's base seed, so the
    # hash/scene axes are compared on identical sampled traces.
    index = json.loads(first["sweep_fig07.json"])
    seeds = [cell["seed"] for cell in index["cells"]]
    assert seeds == [7] * len(index["cells"])
    rerun = json.loads(second["sweep_fig07.json"])
    assert seeds == [cell["seed"] for cell in rerun["cells"]]


def test_psnr_sweep_shares_datasets_across_cells(bench):
    """The (scene x hash-method) training matrix reuses rendered datasets."""
    grid = {"scenes": ["lego", "chair"], "methods": ["ingp", "instant-nerf"]}
    extra = {
        "seed": "0",
        "image_size": "16",
        "num_train_views": "3",
        "iterations": "12",
        "rays_per_batch": "64",
        "samples_per_ray": "16",
    }

    def fresh_cells() -> dict:
        out = {}
        for scene in grid["scenes"]:
            for method in grid["methods"]:
                result = run_experiment(
                    "tab04", context=SimulationContext(), scenes=scene, methods=method, **extra
                )
                out[(scene, method)] = result.rows[0]["avg_psnr"]
        return out

    def swept_cells() -> tuple[dict, SimulationContext]:
        ctx = SimulationContext()
        result = sweep("tab04", grid, workers=2, extra_params=extra, context=ctx)
        assert not result.failed
        return (
            {
                (c.params["scenes"], c.params["methods"]): c.result.rows[0]["avg_psnr"]
                for c in result.cells
            },
            ctx,
        )

    reps = 1 if SMOKE else 3
    legacy_s, fresh_values = bench.time(fresh_cells, repeats=reps)
    sweep_s, (sweep_values, ctx) = bench.time(swept_cells, repeats=reps)
    assert sweep_values == fresh_values
    # Each scene's dataset renders once, not once per method cell.
    dataset_misses = sum(
        1 for key in ctx._cache if isinstance(key, tuple) and key[0] == "dataset"
    )
    assert dataset_misses == len(grid["scenes"])
    bench.record(
        "psnr_sweep_shared_datasets",
        {"legacy_s": legacy_s, "sweep_s": sweep_s, "speedup": legacy_s / sweep_s},
        {"speedup": (">", 1.0)},
    )


#: 8-cell grid for the process-pool and warm-store acceptance benchmarks,
#: swept over fig07's locality model.  Every cell has a unique
#: (scene, seed, samples-per-ray) trace, so the grid measures the executors
#: on independent cells — the regime process pools exist for.  (Grids with
#: heavy cross-cell sharing are the shared-context thread executor's home
#: turf and are covered by the suite/PSNR benchmarks above.)
PROC_GRID = {
    "scene": ["lego", "chair"],
    "seed": ["0", "1"],
    "points_per_ray": ["48", "64"],
}
PROC_EXTRA = (
    {"rays": "64", "probe_samples": "12"} if SMOKE else {"rays": "768", "probe_samples": "96"}
)
PROC_WORKERS = min(8, os.cpu_count() or 1)


def test_process_pool_sweep_byte_identical_and_scales(bench):
    """Claim 4: process-pool sweeps match the serial bytes and use the cores."""
    serial_s, serial = bench.time(
        lambda: sweep("fig07", PROC_GRID, executor="serial", extra_params=PROC_EXTRA)
    )
    assert not serial.failed

    executor = ProcessSweepExecutor(PROC_WORKERS)
    process_s, procs = bench.time(
        lambda: sweep(
            "fig07", PROC_GRID, workers=PROC_WORKERS, executor=executor, extra_params=PROC_EXTRA
        )
    )
    assert not procs.failed
    assert procs.to_json() == serial.to_json(), (
        "process-pool sweep must be byte-identical to the serial run"
    )

    cpus = os.cpu_count() or 1
    bench.record(
        "process_pool_sweep",
        {
            "cells": len(serial.cells),
            "workers": PROC_WORKERS,
            "cpus": cpus,
            "serial_s": serial_s,
            "process_s": process_s,
            "speedup": serial_s / process_s,
        },
        # The >=2x floor measures parallel hardware, not the executor: it
        # cannot hold on a 1-2 core box where the pool time-slices one CPU.
        {"speedup": (">=", 2.0)} if cpus >= 4 else None,
    )


def test_warm_store_rerun_skips_all_simulation(bench, tmp_path):
    """Claim 5: a second run of the same grid is answered entirely by the store."""
    grid = PROC_GRID
    extra = {"rays": PROC_EXTRA["rays"] if SMOKE else "384", "probe_samples": "24"}

    cold_store = ArtifactStore(tmp_path / "cache")
    cold_s, cold = bench.time(lambda: sweep("fig07", grid, extra_params=extra, store=cold_store))
    assert not cold.failed

    warm_store = ArtifactStore(tmp_path / "cache")
    warm_context = SimulationContext(store=warm_store)
    warm_s, warm = bench.time(
        lambda: sweep(
            "fig07", grid, extra_params=extra, store=warm_store, resume=True, context=warm_context
        )
    )

    assert warm.to_json() == cold.to_json(), "a resumed sweep must equal the fresh run"
    assert all(cell.resumed for cell in warm.cells), "every cell should come from the store"
    assert warm_store.stats.hit_rate == 1.0, warm_store.stats
    assert warm_context.stats.computes == 0, "store hits must never recompute"

    bench.record(
        "warm_store_rerun",
        {
            "cells": len(cold.cells),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
            "store_hit_rate": warm_store.stats.hit_rate,
        },
        {"speedup": (">", 2.0)},
    )


@pytest.mark.parametrize("name", experiment_names())
def test_every_experiment_runs_through_the_registry(name):
    """`python -m repro run <spec>` works for each registered experiment,
    at its smoke scale passed as ``--set`` pairs."""
    from repro.pipeline.cli import main

    args = ["run", name, "--quiet"]
    for key, value in SPEC_SMOKE[name].items():
        args += ["--set", f"{key}={value}"]
    assert main(args) == 0
