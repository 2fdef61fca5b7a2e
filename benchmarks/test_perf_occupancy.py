"""Occupancy-grid adaptive-marching benchmarks: pruning wins vs dense.

Three measurements, recorded into ``BENCH_occupancy.json`` through the
``bench`` fixture (see ``benchmarks/conftest.py``):

* vectorized adaptive-mask engine vs the per-sample reference oracle
  (exact equivalence asserted, speedup recorded);
* sample / DRAM row-request / timing-model reduction of the pruned lookup
  stream of a sparse scene (the headline >= 2x empty-space-skipping win);
* end-to-end trainer with a field-refreshed occupancy grid vs the dense
  trainer (field evaluations and wall-clock per iteration).

``PERF_SMOKE=1`` shrinks the inputs, lowers the modeled reduction floors
and drops the wall-clock speedup floors; equivalence is still asserted.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import SMOKE

from repro.core.hashing import MortonLocalityHash
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

#: The sparsest library scene (lowest occupied-voxel fraction) — the
#: headline empty-space-skipping numbers are measured on it.
SPARSE_SCENE = "mic"
NUM_RAYS = 64 if SMOKE else 256
POINTS_PER_RAY = 16 if SMOKE else 64
BENCH_ENTRY = {"num_rays": NUM_RAYS, "points_per_ray": POINTS_PER_RAY, "scene": SPARSE_SCENE}


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


def test_adaptive_mask_oracle_speedup(bench, sparse_trace):
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

    vec_s, vec = bench.time(vectorized, repeats=2)
    ref_s, ref = bench.time(reference)
    assert np.array_equal(vec, ref)
    bench.record_speedup("adaptive_mask", ref_s, vec_s, floor=10.0)


def test_sparse_scene_traffic_reduction(bench, sparse_trace):
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

    bench.record(
        "sparse_scene_pruning",
        {
            "dense_samples": dense_samples,
            "pruned_samples": kept,
            "sample_reduction": sample_reduction,
            "row_request_reduction": row_reduction,
            "dram_cycle_reduction": cycle_reduction,
        },
    )
    floor = 1.5 if SMOKE else 2.0
    assert sample_reduction >= floor
    assert row_reduction >= floor
    assert cycle_reduction >= floor


def test_trainer_occupancy_speedup(bench):
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
    dense_s, _ = bench.time(dense.train)
    adaptive = trainer(
        OccupancyGridConfig(resolution=16, update_every=8, ema_decay=0.6, density_threshold=0.5)
    )
    adaptive_s, _ = bench.time(adaptive.train)

    window = max(1, iterations // 4)
    dense_tail = sum(dense.history.samples_evaluated[-window:])
    adaptive_tail = sum(adaptive.history.samples_evaluated[-window:])
    tail_sample_reduction = dense_tail / adaptive_tail
    wall_speedup = dense_s / adaptive_s if adaptive_s > 0 else float("inf")
    # In smoke mode the runs are ~0.1 s, so the wall-clock ratio is pure
    # noise: record it under a key ``bench compare`` does not gate, with no
    # bound; only the deterministic sample reduction is gated there.
    wall_key = "wall_ratio" if SMOKE else "speedup"
    bench.record(
        "trainer_adaptive",
        {
            "iterations": iterations,
            "dense_s": dense_s,
            "adaptive_s": adaptive_s,
            wall_key: wall_speedup,
            "tail_sample_reduction": tail_sample_reduction,
        },
        {"speedup": (">=", 1.05)},
    )
    assert np.isfinite(adaptive.history.final_loss)
    if not SMOKE:
        assert tail_sample_reduction >= 2.0
