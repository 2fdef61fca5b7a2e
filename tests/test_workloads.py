"""Tests for the workload characterisation (batch, steps, traces)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import MortonLocalityHash, OriginalSpatialHash
from repro.core.streaming import StreamingOrder
from repro.nerf.encoding import HashGridConfig, HashGridEncoding
from repro.pipeline import SimulationContext
from repro.workloads import (
    PAPER_BATCH,
    BatchGeometry,
    INGPWorkloadModel,
    StepName,
    TraceConfig,
    generate_batch_points,
    level_lookup_indices,
)


def test_paper_batch_geometry():
    PAPER_BATCH.validate()
    assert PAPER_BATCH.points_per_iteration == 256 * 1024
    assert PAPER_BATCH.iterations_per_scene == 35_000
    assert PAPER_BATCH.rays_per_iteration == 8192
    assert PAPER_BATCH.input_bytes_per_iteration == 256 * 1024 * 24


def test_batch_geometry_validation():
    with pytest.raises(ValueError):
        BatchGeometry(points_per_iteration=0).validate()
    with pytest.raises(ValueError):
        BatchGeometry(points_per_iteration=100, points_per_ray=32).validate()


def test_table2_sizes_match_paper():
    """Table II: derived sizes must be close to the paper's reported MB values."""
    table = INGPWorkloadModel().table2()
    assert table["HT"]["param_mb"] == pytest.approx(25.0, rel=0.15)
    assert table["HT"]["input_mb"] == pytest.approx(3.0, rel=0.05)
    assert table["HT"]["output_mb"] == pytest.approx(16.0, rel=0.05)
    assert table["MLP"]["param_mb"] == pytest.approx(0.014, rel=0.5)
    assert table["MLP"]["input_mb"] == pytest.approx(16.0, rel=0.05)
    assert table["MLP"]["output_mb"] == pytest.approx(1.5, rel=0.4)
    assert table["MLP"]["intermediate_mb"] == pytest.approx(32.0, rel=0.05)
    assert table["HT_b"]["param_mb"] == pytest.approx(25.0, rel=0.15)
    assert table["HT_b"]["input_mb"] == pytest.approx(16.0, rel=0.05)
    assert table["HT_b"]["output_mb"] == 0.0
    assert table["HT"]["intermediate_mb"] == 0.0


def test_each_hash_level_is_about_2mb():
    model = INGPWorkloadModel()
    fine_levels = [b for lvl, b in enumerate(model.level_bytes) if model.grid.level_uses_hash(lvl)]
    for level_bytes in fine_levels:
        assert level_bytes / 1024**2 == pytest.approx(2.0, rel=0.01)


def test_step_descriptors_are_consistent():
    model = INGPWorkloadModel()
    steps = model.all_steps()
    assert len(steps) == len(StepName)
    for step in steps:
        assert step.dram_traffic_bytes > 0
        assert step.arithmetic_intensity >= 0
    ht = model.step(StepName.HT)
    assert ht.reads_parameters_randomly
    assert ht.int_ops > ht.fp_ops  # index calculation dominates integer work
    mlp = model.step(StepName.MLP_COLOR)
    assert not mlp.reads_parameters_randomly
    assert mlp.fp_ops > 0 and mlp.int_ops == 0
    backward = model.step(StepName.MLP_COLOR_BACKWARD)
    assert backward.fp_ops == pytest.approx(2 * mlp.fp_ops)


def test_workload_scales_with_batch_size():
    small = INGPWorkloadModel(
        batch=BatchGeometry(points_per_iteration=64 * 1024, points_per_ray=32)
    )
    large = INGPWorkloadModel(
        batch=BatchGeometry(points_per_iteration=256 * 1024, points_per_ray=32)
    )
    assert large.encoding_output_bytes == 4 * small.encoding_output_bytes
    assert large.step(StepName.HT).fp_ops == 4 * small.step(StepName.HT).fp_ops
    # Hash-table size is independent of batch size.
    assert large.hash_table_bytes == small.hash_table_bytes


# -------------------------------------------------------------------- traces
def test_generate_batch_points_shape_and_ray_ordering():
    config = TraceConfig(num_rays=16, points_per_ray=8, seed=3)
    points = generate_batch_points(config)
    assert points.shape == (16, 8, 3)
    assert np.all((points >= 0) & (points <= 1))
    # Points along one ray are closer to each other than to other rays' points.
    intra = np.linalg.norm(np.diff(points, axis=1), axis=-1).mean()
    inter = np.linalg.norm(points[0, 0] - points[1:, 0], axis=-1).mean()
    assert intra < inter


def test_level_lookup_indices_bounds():
    grid = HashGridConfig(num_levels=8, table_size=2**14, max_resolution=256)
    points = generate_batch_points(TraceConfig(num_rays=8, points_per_ray=8))
    for level in (0, 4, 7):
        idx = level_lookup_indices(points.reshape(-1, 3), level, grid)
        assert idx.shape == (64, 8)
        assert idx.min() >= 0
        assert idx.max() < grid.level_table_entries(level)


#: Levels 0-2 (resolutions 4, 7, 15) are stored dense, levels 3-5 hashed.
MIXED_GRID = HashGridConfig(num_levels=6, table_size=2**12, base_resolution=4, max_resolution=128)
ORACLES = [
    HashGridEncoding(replace(MIXED_GRID, hash_fn=fn))
    for fn in (MortonLocalityHash(), OriginalSpatialHash())
]
COORD = st.one_of(st.floats(min_value=-0.1, max_value=1.1), st.sampled_from([0.0, 1.0]))


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(st.tuples(COORD, COORD, COORD), min_size=1, max_size=32),
    oracle=st.sampled_from(ORACLES),
)
def test_level_lookup_indices_match_the_encoding_oracle(points, oracle):
    """The memory path's corner indices are the encoding's, on every level,
    for points outside the unit cube and exactly on its faces too."""
    pts = np.asarray(points, dtype=np.float64)
    fn = oracle.config.hash_fn
    for level in range(MIXED_GRID.num_levels):
        expected = oracle.vertex_indices(pts, level)[0]
        np.testing.assert_array_equal(level_lookup_indices(pts, level, MIXED_GRID, fn), expected)


def test_stream_addresses_respect_level_offsets():
    grid = HashGridConfig(num_levels=4, table_size=2**12, max_resolution=64)
    trace_cfg = TraceConfig(num_rays=8, points_per_ray=8)
    ctx = SimulationContext()
    entry_bytes = trace_cfg.entry_bytes
    level0, level1 = (
        ctx.request_stream(grid, trace_cfg, grid.hash_fn, StreamingOrder.RAY_FIRST, level)
        for level in (0, 1)
    )
    assert level0.base_address == 0
    assert np.array_equal(level0.addresses, level0.indices.ravel() * entry_bytes)
    assert level1.base_address == grid.level_table_entries(0) * entry_bytes
    assert level1.addresses.min() >= grid.level_table_entries(0) * entry_bytes


def test_hash_trace_generator_streams_every_level():
    grid = HashGridConfig(num_levels=4, table_size=2**12, max_resolution=64)
    trace = TraceConfig(num_rays=8, points_per_ray=8)
    ctx = SimulationContext()
    hash_fn = MortonLocalityHash()
    # The random order reorders each level's ray-first stream point by point.
    order = ctx.stream_order(trace, StreamingOrder.RANDOM)
    for level in range(grid.num_levels):
        stream = ctx.request_stream(grid, trace, hash_fn, StreamingOrder.RAY_FIRST, level)
        assert stream.indices.shape == (64, 8)
        assert stream.addresses.shape == (64 * 8,)
        assert np.all(stream.addresses >= 0)
        permuted = ctx.request_stream(grid, trace, hash_fn, StreamingOrder.RANDOM, level)
        assert np.array_equal(permuted.indices, stream.indices[order])
        assert np.array_equal(permuted.group_ids, stream.group_ids[order])


def test_trace_generator_hash_function_changes_addresses():
    grid = HashGridConfig(num_levels=6, table_size=2**12, max_resolution=256)
    trace_cfg = TraceConfig(num_rays=8, points_per_ray=8)
    ctx = SimulationContext()
    morton, original = (
        ctx.request_stream(grid, trace_cfg, hash_fn, StreamingOrder.RAY_FIRST, 5)
        for hash_fn in (MortonLocalityHash(), OriginalSpatialHash())
    )
    assert not np.array_equal(morton.addresses, original.addresses)
