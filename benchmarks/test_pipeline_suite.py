"""Pipeline acceptance benchmarks: shared-context suite speedup and sweeps.

Five claims are checked:

1. Running the full registered suite against one shared
   :class:`SimulationContext` produces results identical to calling the
   ``run_*`` functions back-to-back, each on its own fresh context (the
   "legacy" path), while reusing artifacts (cache hits) and finishing
   faster.  The timed comparison covers the ten model-driven experiments;
   the trainer-based Table IV experiment performs byte-identical work on
   both paths (asserted via the result equality, which includes it) and is
   left out of the timing loop only because its allocation-heavy training
   adds timing noise, not signal.  CPU time is
   compared (both paths are single-threaded deterministic work), with the
   wall-style assertion relaxed under ``PERF_SMOKE=1`` for noisy CI runners,
   mirroring ``test_perf_hotpaths.py``.
2. A multi-worker sweep writes deterministic, seed-stable JSON artifacts:
   running the same grid twice — with a different worker count, or serially
   — yields byte-identical files (runtime provenance is excluded from them).
3. A (scene x method) PSNR sweep through the shared context is faster than
   the equivalent legacy per-cell ``run_tab04`` calls, because the rendered
   datasets are shared across the hash-function cells.
4. A process-pool sweep of an 8-cell grid (shared-memory artifact export,
   GIL-free workers) is byte-identical to the serial run; at full scale on a
   multi-core machine it clears a >=2x wall-clock floor.  The floor needs
   real parallel hardware, so it is asserted only when ``os.cpu_count() >= 4``
   and not under ``PERF_SMOKE=1`` — the measured numbers (and the core count
   they were measured on) are recorded either way.
5. A second, warm-store run of the same grid resumes every cell from the
   on-disk artifact store — 100% store hit rate, zero simulation — and is
   at least 2x faster than the cold run even on one core.

Timing summaries are recorded into ``BENCH_pipeline.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.codesign import AlgorithmConfig, InstantNeRFSystem
from repro.experiments import (
    PrecisionRunConfig,
    QualityRunConfig,
    run_fig01,
    run_fig04,
    run_fig06,
    run_fig07,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_tab01,
    run_tab02,
    run_tab03,
    run_tab04,
    run_tab05,
)
from repro.experiments.runner import atomic_write_text
from repro.nerf.encoding import HashGridConfig
from repro.pipeline import ArtifactStore, SimulationContext, run_suite, sweep
from repro.pipeline.sweep import ProcessSweepExecutor
from repro.serve import BatchPolicy, ServeWorkloadConfig, ServiceCostConfig
from repro.workloads.embedding import EmbeddingTraceConfig
from repro.workloads.traces import TraceConfig

PERF_SMOKE = os.environ.get("PERF_SMOKE", "") == "1"
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

#: Shared trace/grid configuration of the locality trio (Fig. 7/9/11): one
#: lego training batch at a meaningful scale, matched between both paths.
RAYS, POINTS_PER_RAY, PROBES = 384, 64, 96
SUBARRAYS = (1, 16)
GRID16 = HashGridConfig(num_levels=16)
TRACE = TraceConfig(
    num_rays=RAYS, points_per_ray=POINTS_PER_RAY, seed=0, scene="lego", probe_samples=PROBES
)
#: Smoke-scale Table IV configuration (identical work on both paths).
PSNR_KW = dict(
    image_size=12,
    num_train_views=2,
    num_test_views=1,
    iterations=8,
    rays_per_batch=48,
    samples_per_ray=12,
)
FAST_NAMES = [
    "fig01", "fig04", "fig06", "fig07", "fig09",
    "fig10", "fig11", "tab01", "tab02", "tab03",
]
CACHE_KB = (16, 64)
OCC_RESOLUTIONS = (16, 32)
#: Smoke-scale Table V precision pair (fp32 trained + int8 PTQ'd from it).
TAB05_DTYPES = ("fp32", "int8")
#: Smoke-scale embedding front-end (Fig. 15): two small Zipfian tables.
EMB_CONFIG = EmbeddingTraceConfig(num_tables=2, table_rows=2048, batch_size=64, pooling_factor=4)
EMB_SUBARRAYS = (1, 4)
#: Smoke-scale serving sweep (Fig. 14): light + saturated load, both policies.
SERVE_LOADS = (0.5, 4.0)
SERVE_POLICIES = (BatchPolicy.FIFO, BatchPolicy.SJF)
SERVE_ADMISSIONS = ("none", "depth")
SERVE_WORKLOAD = ServeWorkloadConfig(requests_per_tenant=24)
SERVE_COST = ServiceCostConfig(grid_levels=2)
OVERRIDES = {
    "fig07": {"rays": RAYS, "probe_samples": PROBES},
    "fig09": {
        "rays": RAYS,
        "probe_samples": PROBES,
        "subarrays": ",".join(map(str, SUBARRAYS)),
    },
    "fig11": {"rays": RAYS, "probe_samples": PROBES},
    "fig12_cache_hit_rate": {
        "rays": RAYS,
        "probe_samples": PROBES,
        "cache_kb": ",".join(map(str, CACHE_KB)),
        "timing": "false",
    },
    "fig13_occupancy_traffic": {
        "rays": RAYS,
        "probe_samples": PROBES,
        "resolutions": ",".join(map(str, OCC_RESOLUTIONS)),
        "timing": "false",
    },
    "fig14_serving_latency": {
        "loads": ",".join(map(str, SERVE_LOADS)),
        "policies": ",".join(p.value for p in SERVE_POLICIES),
        "admission": ",".join(SERVE_ADMISSIONS),
        "requests": SERVE_WORKLOAD.requests_per_tenant,
        "grid_levels": SERVE_COST.grid_levels,
    },
    "fig15_embedding_locality": {
        "tables": EMB_CONFIG.num_tables,
        "table_rows": EMB_CONFIG.table_rows,
        "batch": EMB_CONFIG.batch_size,
        "pooling": EMB_CONFIG.pooling_factor,
        "subarrays": ",".join(map(str, EMB_SUBARRAYS)),
        "timing": "false",
    },
    "tab04": {
        "scenes": "lego",
        "methods": "ingp",
        "image_size": PSNR_KW["image_size"],
        "num_train_views": PSNR_KW["num_train_views"],
        "iterations": PSNR_KW["iterations"],
        "rays_per_batch": PSNR_KW["rays_per_batch"],
        "samples_per_ray": PSNR_KW["samples_per_ray"],
    },
    "tab05_psnr_precision": {
        "scenes": "lego",
        "dtypes": ",".join(TAB05_DTYPES),
        "image_size": PSNR_KW["image_size"],
        "num_train_views": PSNR_KW["num_train_views"],
        "iterations": PSNR_KW["iterations"],
        "rays_per_batch": PSNR_KW["rays_per_batch"],
        "samples_per_ray": PSNR_KW["samples_per_ray"],
    },
}


def _tab05_config() -> PrecisionRunConfig:
    return PrecisionRunConfig(scenes=("lego",), dtypes=TAB05_DTYPES, **PSNR_KW)


def _legacy_fast() -> dict:
    """The ten model-driven experiments via their ``run_*`` functions."""
    return {
        "fig01": run_fig01(),
        "fig04": run_fig04(),
        "fig06": run_fig06(),
        "fig07": run_fig07(GRID16, TRACE),
        "fig09": run_fig09(SUBARRAYS, GRID16, TRACE),
        "fig10": run_fig10(),
        "fig11": run_fig11(
            InstantNeRFSystem(AlgorithmConfig.instant_nerf(), GRID16, trace_config=TRACE)
        ),
        "tab01": run_tab01(),
        "tab02": run_tab02(),
        "tab03": run_tab03(),
    }


def _legacy_full() -> dict:
    results = _legacy_fast()
    results["tab04"] = run_tab04(QualityRunConfig(scenes=("lego",), **PSNR_KW), ("ingp",))
    results["tab05_psnr_precision"] = run_tab05(_tab05_config())
    results["fig12_cache_hit_rate"] = run_fig12(GRID16, TRACE, CACHE_KB, timing=False)
    results["fig13_occupancy_traffic"] = run_fig13(
        GRID16,
        TraceConfig(
            num_rays=RAYS, points_per_ray=POINTS_PER_RAY, seed=0, scene="mic", probe_samples=PROBES
        ),
        OCC_RESOLUTIONS,
        timing=False,
    )
    results["fig15_embedding_locality"] = run_fig15(EMB_CONFIG, EMB_SUBARRAYS, timing=False)
    # Fig. 14's run function takes a context; a private throwaway one keeps
    # it standalone like the others.
    results["fig14_serving_latency"] = run_fig14(
        SERVE_WORKLOAD,
        SERVE_COST,
        SERVE_LOADS,
        SERVE_POLICIES,
        SERVE_ADMISSIONS,
        context=SimulationContext(),
    )
    return results


def _canonical(results: dict) -> str:
    return json.dumps({name: res.to_dict() for name, res in results.items()}, sort_keys=True)


_RESULTS: dict[str, dict] = {}


def _record_bench(key: str, payload: dict) -> None:
    payload = dict(payload)
    payload.pop("smoke", None)  # recorded once at the trajectory-entry level
    _RESULTS[key] = payload


@pytest.fixture(scope="module", autouse=True)
def bench_trajectory():
    """Append this run's measurements to the BENCH_pipeline.json trajectory.

    The same append-only format as the other suites: one entry per run with
    a top-level ``smoke`` flag, so full-scale and smoke baselines coexist
    and `python -m repro bench compare` can gate both flavors (a pre-PR-5
    single-snapshot file is discarded).
    """
    yield
    if not _RESULTS:
        return
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": PERF_SMOKE,
        "results": _RESULTS,
    }
    trajectory = []
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            data = []
        if isinstance(data, list):
            trajectory = data
    trajectory.append(entry)
    atomic_write_text(BENCH_PATH, json.dumps(trajectory, indent=2) + "\n", overwrite=True)


def test_full_suite_shared_context_faster_than_legacy():
    # --- correctness: the registry path reproduces the legacy results exactly
    context = SimulationContext()
    suite = run_suite(context=context, overrides=OVERRIDES)
    legacy = _legacy_full()
    assert set(suite) == set(legacy)
    assert _canonical(suite) == _canonical(legacy)
    # Sharing must actually happen: the locality trio draws from one trace,
    # Fig. 7 and Fig. 12 reuse Fig. 9's request streams, Fig. 4 reuses
    # Fig. 1's kernel profiles.
    assert context.stats.hits >= 100, f"expected heavy artifact reuse, got {context.stats}"
    reuse = context.stats.hits_by_kind()
    assert reuse.get("batch_points", 0) >= 2, reuse  # one trace feeds the trio
    # fig12 reads fig09's 16 streams at both cache sizes (32), fig07 once more (16)
    assert reuse.get("request_stream", 0) >= 48, reuse
    assert reuse.get("scene_profile", 0) >= 6, reuse  # fig04 reads fig01's kernel profiles

    # --- speed: shared context beats legacy back-to-back on the model-driven set
    def run_pipeline_fast():
        ctx = SimulationContext()
        run_suite(FAST_NAMES, context=ctx, overrides=OVERRIDES)

    reps = 2 if PERF_SMOKE else 5
    legacy_times, pipeline_times = [], []
    for _ in range(reps):
        start = time.process_time()
        _legacy_fast()
        legacy_times.append(time.process_time() - start)
        start = time.process_time()
        run_pipeline_fast()
        pipeline_times.append(time.process_time() - start)
    legacy_best, pipeline_best = min(legacy_times), min(pipeline_times)
    speedup = legacy_best / pipeline_best
    print(
        f"\nfull-suite (model-driven set): legacy {legacy_best:.3f}s, "
        f"shared-context {pipeline_best:.3f}s ({speedup:.3f}x, "
        f"{context.stats.hits} artifact reuses)"
    )
    _record_bench(
        "suite_shared_context",
        {
            "legacy_cpu_s": legacy_best,
            "pipeline_cpu_s": pipeline_best,
            "speedup": speedup,
            "cache_hits": context.stats.hits,
            "smoke": PERF_SMOKE,
        },
    )
    if not PERF_SMOKE:
        assert pipeline_best < legacy_best, (
            f"shared-context suite ({pipeline_best:.3f}s CPU) should beat legacy "
            f"back-to-back ({legacy_best:.3f}s CPU)"
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


def test_psnr_sweep_shares_datasets_across_cells():
    """The (scene x hash-method) training matrix reuses rendered datasets."""
    cfg_kw = dict(
        image_size=16, num_train_views=3, num_test_views=1,
        iterations=12, rays_per_batch=64, samples_per_ray=16,
    )
    grid = {"scenes": ["lego", "chair"], "methods": ["ingp", "instant-nerf"]}
    extra = {
        "seed": "0",
        "image_size": "16",
        "num_train_views": "3",
        "iterations": "12",
        "rays_per_batch": "64",
        "samples_per_ray": "16",
    }

    def legacy_cells() -> dict:
        out = {}
        for scene in grid["scenes"]:
            for method in grid["methods"]:
                result = run_tab04(QualityRunConfig(scenes=(scene,), **cfg_kw), (method,))
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

    legacy_values = legacy_cells()
    sweep_values, ctx = swept_cells()
    assert sweep_values == legacy_values
    # Each scene's dataset renders once, not once per method cell.
    dataset_misses = sum(
        1 for key in ctx._cache if isinstance(key, tuple) and key[0] == "dataset"
    )
    assert dataset_misses == len(grid["scenes"])

    reps = 1 if PERF_SMOKE else 3
    legacy_times, sweep_times = [], []
    for _ in range(reps):
        start = time.perf_counter()
        legacy_cells()
        legacy_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        swept_cells()
        sweep_times.append(time.perf_counter() - start)
    legacy_best, sweep_best = min(legacy_times), min(sweep_times)
    print(
        f"\npsnr sweep: legacy per-cell {legacy_best:.3f}s, shared-context sweep "
        f"{sweep_best:.3f}s ({legacy_best / sweep_best:.2f}x)"
    )
    _record_bench(
        "psnr_sweep_shared_datasets",
        {
            "legacy_s": legacy_best,
            "sweep_s": sweep_best,
            "speedup": legacy_best / sweep_best,
            "smoke": PERF_SMOKE,
        },
    )
    if not PERF_SMOKE:
        assert sweep_best < legacy_best


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
    {"rays": "64", "probe_samples": "12"}
    if PERF_SMOKE
    else {"rays": "768", "probe_samples": "96"}
)
PROC_WORKERS = min(8, os.cpu_count() or 1)


def test_process_pool_sweep_byte_identical_and_scales():
    """Claim 4: process-pool sweeps match the serial bytes and use the cores."""
    start = time.perf_counter()
    serial = sweep("fig07", PROC_GRID, executor="serial", extra_params=PROC_EXTRA)
    serial_s = time.perf_counter() - start
    assert not serial.failed

    executor = ProcessSweepExecutor(PROC_WORKERS)
    start = time.perf_counter()
    procs = sweep("fig07", PROC_GRID, workers=PROC_WORKERS, executor=executor,
                  extra_params=PROC_EXTRA)
    process_s = time.perf_counter() - start
    assert not procs.failed
    assert procs.to_json() == serial.to_json(), (
        "process-pool sweep must be byte-identical to the serial run"
    )

    speedup = serial_s / process_s
    cpus = os.cpu_count() or 1
    print(
        f"\nprocess-pool sweep ({len(serial.cells)} cells, {PROC_WORKERS} workers, "
        f"{cpus} cpus): serial {serial_s:.2f}s, process {process_s:.2f}s ({speedup:.2f}x)"
    )
    _record_bench(
        "process_pool_sweep",
        {
            "cells": len(serial.cells),
            "workers": PROC_WORKERS,
            "cpus": cpus,
            "serial_s": serial_s,
            "process_s": process_s,
            "speedup": speedup,
            "smoke": PERF_SMOKE,
        },
    )
    # The >=2x floor measures parallel hardware, not the executor: it cannot
    # hold on a 1-2 core box where the pool time-slices one CPU.
    if not PERF_SMOKE and cpus >= 4:
        assert speedup >= 2.0, (
            f"process-pool sweep should be >=2x faster than serial on {cpus} cores, "
            f"got {speedup:.2f}x"
        )


def test_warm_store_rerun_skips_all_simulation(tmp_path):
    """Claim 5: a second run of the same grid is answered entirely by the store."""
    grid = PROC_GRID
    extra = {"rays": PROC_EXTRA["rays"] if PERF_SMOKE else str(RAYS), "probe_samples": "24"}

    cold_store = ArtifactStore(tmp_path / "cache")
    start = time.perf_counter()
    cold = sweep("fig07", grid, extra_params=extra, store=cold_store)
    cold_s = time.perf_counter() - start
    assert not cold.failed

    warm_store = ArtifactStore(tmp_path / "cache")
    warm_context = SimulationContext(store=warm_store)
    start = time.perf_counter()
    warm = sweep("fig07", grid, extra_params=extra, store=warm_store, resume=True,
                 context=warm_context)
    warm_s = time.perf_counter() - start

    assert warm.to_json() == cold.to_json(), "a resumed sweep must equal the fresh run"
    assert all(cell.resumed for cell in warm.cells), "every cell should come from the store"
    assert warm_store.stats.hit_rate == 1.0, warm_store.stats
    assert warm_context.stats.computes == 0, "store hits must never recompute"

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(
        f"\nwarm-store rerun ({len(cold.cells)} cells): cold {cold_s:.2f}s, "
        f"warm {warm_s:.3f}s ({speedup:.1f}x, hit rate "
        f"{warm_store.stats.hit_rate:.0%})"
    )
    _record_bench(
        "warm_store_rerun",
        {
            "cells": len(cold.cells),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": speedup,
            "store_hit_rate": warm_store.stats.hit_rate,
            "smoke": PERF_SMOKE,
        },
    )
    if not PERF_SMOKE:
        assert warm_s * 2 < cold_s, (
            f"warm-store rerun ({warm_s:.3f}s) should be at least 2x faster than "
            f"the cold run ({cold_s:.3f}s)"
        )


@pytest.mark.parametrize(
    "name",
    FAST_NAMES
    + ["tab04", "fig12_cache_hit_rate", "fig13_occupancy_traffic", "fig15_embedding_locality"],
)
def test_every_experiment_runs_through_the_registry(name):
    """`python -m repro run <spec>` works for each registered experiment."""
    from repro.pipeline.cli import main

    args = ["run", name, "--quiet"]
    for key, value in OVERRIDES.get(name, {}).items():
        args += ["--set", f"{key}={value}"]
    # Keep the registry path cheap for the heavy specs.
    if name in ("fig07", "fig09", "fig11", "fig12_cache_hit_rate", "fig13_occupancy_traffic"):
        args += ["--set", "rays=48", "--set", "probe_samples=12"]
    assert main(args) == 0
