"""Occupancy-grid adaptive-marching benchmarks: pruning wins vs dense.

Three measurements, recorded into ``BENCH_occupancy.json`` (same trajectory
format as ``BENCH_hotpaths.json``/``BENCH_mem.json``):

* vectorized adaptive-mask engine vs the per-sample reference oracle
  (exact equivalence asserted, speedup recorded);
* sample / DRAM row-request / timing-model reduction of the pruned lookup
  stream of a sparse scene (the headline >= 2x empty-space-skipping win);
* end-to-end trainer with a field-refreshed occupancy grid vs the dense
  trainer (field evaluations and wall-clock per iteration).

``PERF_SMOKE=1`` shrinks the inputs and relaxes the reduction/speedup
floors (equivalence is still asserted) so CI smoke runs stay fast and
insensitive to machine load.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.hashing import MortonLocalityHash
from repro.experiments.runner import atomic_write_text
from repro.core.streaming import StreamingOrder
from repro.nerf import (
    HashGridConfig,
    InstantNGPField,
    OccupancyGridConfig,
    Trainer,
    TrainerConfig,
    adaptive_sample_mask,
    adaptive_sample_mask_reference,
)
from repro.pipeline import SimulationContext
from repro.scenes import DatasetConfig
from repro.workloads.traces import TraceConfig, occupancy_grid_for_trace

SMOKE = os.environ.get("PERF_SMOKE", "") == "1"
#: The sparsest library scene (lowest occupied-voxel fraction) — the
#: headline empty-space-skipping numbers are measured on it.
SPARSE_SCENE = "mic"
NUM_RAYS = 64 if SMOKE else 256
POINTS_PER_RAY = 16 if SMOKE else 64
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_occupancy.json"

_RESULTS: dict[str, dict] = {}


def _time(fn, repeats=2):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.fixture(scope="module", autouse=True)
def bench_trajectory():
    """Append this run's measurements to the BENCH_occupancy.json trajectory."""
    yield
    if not _RESULTS:
        return
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": SMOKE,
        "num_rays": NUM_RAYS,
        "points_per_ray": POINTS_PER_RAY,
        "scene": SPARSE_SCENE,
        "results": _RESULTS,
    }
    trajectory = []
    if BENCH_PATH.exists():
        try:
            trajectory = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            trajectory = []
    trajectory.append(entry)
    atomic_write_text(BENCH_PATH, json.dumps(trajectory, indent=2) + "\n", overwrite=True)


@pytest.fixture(scope="module")
def sparse_trace():
    return TraceConfig(
        num_rays=NUM_RAYS,
        points_per_ray=POINTS_PER_RAY,
        seed=0,
        scene=SPARSE_SCENE,
        occupancy=True,
        occupancy_resolution=32 if SMOKE else 64,
        occupancy_termination=1e-3,
    )


def test_adaptive_mask_oracle_speedup(sparse_trace):
    """Vectorized mask engine is exactly the oracle, and much faster."""
    grid = occupancy_grid_for_trace(sparse_trace)
    rng = np.random.default_rng(0)
    rays = 32 if SMOKE else 128
    samples = POINTS_PER_RAY
    points = rng.random((rays, samples, 3))
    t_values = np.sort(rng.random((rays, samples)) * 3.0, axis=1)
    densities = rng.random((rays, samples)) * 2.0

    def vectorized():
        return adaptive_sample_mask(grid, points, t_values, densities, 1e-3)

    def reference():
        return adaptive_sample_mask_reference(grid, points, t_values, densities, 1e-3)

    vec_s, vec = _time(vectorized)
    ref_s, ref = _time(reference, repeats=1)
    assert np.array_equal(vec, ref)
    speedup = ref_s / vec_s if vec_s > 0 else float("inf")
    _RESULTS["adaptive_mask"] = {
        "reference_s": round(ref_s, 4),
        "vectorized_s": round(vec_s, 4),
        "speedup": round(speedup, 2),
    }
    print(f"\nadaptive_mask: reference {ref_s:.3f}s vectorized {vec_s:.4f}s -> {speedup:.0f}x")
    if not SMOKE:
        assert speedup >= 10.0


def test_sparse_scene_traffic_reduction(sparse_trace):
    """>= 2x sample and DRAM-traffic reduction on the sparse scene."""
    ctx = SimulationContext()
    grid = HashGridConfig(num_levels=8 if SMOKE else 16)
    hash_fn = MortonLocalityHash()
    level = grid.num_levels - 1
    dense = sparse_trace.dense()
    dense_samples = sparse_trace.num_rays * sparse_trace.points_per_ray
    kept = int(ctx.occupancy_mask(sparse_trace).sum())
    sample_reduction = dense_samples / kept

    dense_stream = ctx.request_stream(grid, dense, hash_fn, StreamingOrder.RAY_FIRST, level)
    pruned_stream = ctx.request_stream(grid, sparse_trace, hash_fn, StreamingOrder.RAY_FIRST, level)
    dense_rows = ctx.stream_row_requests(dense_stream)
    pruned_rows = ctx.stream_row_requests(pruned_stream)
    row_reduction = dense_rows / pruned_rows

    dense_batch = ctx.stream_serviced("lpddr4-2400", dense_stream, size_bytes=32)
    pruned_batch = ctx.stream_serviced("lpddr4-2400", pruned_stream, size_bytes=32)
    cycle_reduction = dense_batch["total_cycles"] / pruned_batch["total_cycles"]

    _RESULTS["sparse_scene_pruning"] = {
        "dense_samples": dense_samples,
        "pruned_samples": kept,
        "sample_reduction": round(sample_reduction, 3),
        "row_request_reduction": round(row_reduction, 3),
        "dram_cycle_reduction": round(cycle_reduction, 3),
    }
    print(
        f"\n{SPARSE_SCENE}: samples {dense_samples} -> {kept} ({sample_reduction:.2f}x), "
        f"rows {dense_rows} -> {pruned_rows} ({row_reduction:.2f}x), "
        f"cycles {cycle_reduction:.2f}x"
    )
    floor = 1.5 if SMOKE else 2.0
    assert sample_reduction >= floor
    assert row_reduction >= floor
    assert cycle_reduction >= floor


def test_trainer_occupancy_speedup():
    """Adaptive trainer evaluates far fewer samples than the dense loop."""
    iterations = 20 if SMOKE else 120
    ctx = SimulationContext()
    dataset = ctx.dataset(
        SPARSE_SCENE,
        DatasetConfig(image_size=24, num_train_views=4, num_test_views=1, gt_samples_per_ray=48),
    )
    grid = HashGridConfig(num_levels=6, table_size=2**12, max_resolution=128)

    def trainer(occupancy):
        field = InstantNGPField(grid, hidden_dim=16, geo_features=7, rng=np.random.default_rng(1))
        config = TrainerConfig(
            num_iterations=iterations,
            rays_per_batch=96,
            samples_per_ray=24,
            seed=3,
            occupancy=occupancy,
        )
        return Trainer(field, dataset, config)

    dense = trainer(None)
    dense_s, _ = _time(lambda: dense.train(), repeats=1)
    adaptive = trainer(
        OccupancyGridConfig(resolution=16, update_every=8, ema_decay=0.6, density_threshold=0.5)
    )
    adaptive_s, _ = _time(lambda: adaptive.train(), repeats=1)

    window = max(1, iterations // 4)
    dense_tail = sum(dense.history.samples_evaluated[-window:])
    adaptive_tail = sum(adaptive.history.samples_evaluated[-window:])
    tail_sample_reduction = dense_tail / adaptive_tail
    wall_speedup = dense_s / adaptive_s if adaptive_s > 0 else float("inf")
    # In smoke mode the runs are ~0.1 s, so the wall-clock ratio is pure
    # noise: record it under an ungated key and gate only the deterministic
    # sample reduction.
    wall_key = "wall_ratio" if SMOKE else "speedup"
    _RESULTS["trainer_adaptive"] = {
        "iterations": iterations,
        "dense_s": round(dense_s, 4),
        "adaptive_s": round(adaptive_s, 4),
        wall_key: round(wall_speedup, 3),
        "tail_sample_reduction": round(tail_sample_reduction, 3),
    }
    print(
        f"\ntrainer: dense {dense_s:.2f}s adaptive {adaptive_s:.2f}s ({wall_speedup:.2f}x), "
        f"late-iteration samples reduced {tail_sample_reduction:.2f}x"
    )
    assert np.isfinite(adaptive.history.final_loss)
    if not SMOKE:
        assert tail_sample_reduction >= 2.0
        assert wall_speedup >= 1.05
