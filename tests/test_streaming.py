"""Tests for the point streaming orders and Fig. 7 locality statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import MortonLocalityHash, OriginalSpatialHash
from repro.core.streaming import (
    StreamingOrder,
    point_order,
    row_requests_for_stream,
    row_requests_for_stream_reference,
    stream_register_hit_rate,
    stream_sharing_run_length,
)
from repro.nerf.encoding import HashGridConfig
from repro.workloads.traces import HashTraceGenerator, TraceConfig

#: Level 0 (resolution 16) is stored dense, levels 1-7 (28 ... 1024) hashed.
GRID = HashGridConfig(num_levels=8, table_size=2**14, max_resolution=1024)
TRACE = TraceConfig(num_rays=32, points_per_ray=32, seed=0)


def random_order(seed):
    return point_order(
        TRACE.num_rays, TRACE.points_per_ray, StreamingOrder.RANDOM, rng=np.random.default_rng(seed)
    )


@pytest.fixture(scope="module")
def morton():
    return HashTraceGenerator(GRID, TRACE, MortonLocalityHash())


@pytest.fixture(scope="module")
def original():
    return HashTraceGenerator(GRID, TRACE, OriginalSpatialHash())


def test_point_order_shapes_and_kinds():
    ray_first = point_order(4, 8, StreamingOrder.RAY_FIRST)
    assert ray_first.tolist() == list(range(32))
    shuffled = point_order(4, 8, StreamingOrder.RANDOM, rng=np.random.default_rng(0))
    assert sorted(shuffled.tolist()) == list(range(32))
    assert shuffled.tolist() != list(range(32))
    with pytest.raises(ValueError):
        point_order(0, 8, StreamingOrder.RANDOM)


def test_ray_first_order_shares_cubes_more_than_random(morton):
    """Fig. 7(a): ray-first streaming keeps consecutive points in the same cube."""
    shuffled = random_order(1)
    for level in (0, 3):  # resolutions 16 and 95
        ray_sharing = stream_sharing_run_length(morton.stream(level))
        random_sharing = stream_sharing_run_length(morton.stream(level, shuffled))
        assert ray_sharing > random_sharing
        assert ray_sharing > 1.5
        assert random_sharing < 1.5
    assert stream_register_hit_rate(morton.stream(0)) > stream_register_hit_rate(
        morton.stream(0, shuffled)
    )


def test_sharing_decreases_with_resolution(morton):
    """Fig. 7(a) shape: coarse levels share much more than fine levels."""
    coarse = stream_sharing_run_length(morton.stream(0))
    fine = stream_sharing_run_length(morton.stream(GRID.num_levels - 1))
    assert coarse > fine
    assert fine >= 1.0


def test_memory_requests_reduced_by_morton_and_ray_order(morton, original):
    level = 6
    baseline = row_requests_for_stream(original.stream(level, random_order(2)))
    optimized = row_requests_for_stream(morton.stream(level))
    assert optimized < baseline
    assert optimized >= 1


def test_memory_requests_vectorized_matches_loop_oracle(morton, original):
    """The vectorized run-length/row-set accounting must equal the retained loop.

    A 3000-byte row holds 750 four-byte entries: not a power of two, so the
    kernel divides instead of shifting.
    """
    for generator in (original, morton):
        for level in range(GRID.num_levels):
            for order in (None, random_order(5)):
                stream = generator.stream(level, order)
                for row_bytes in (64, 1024, 3000):
                    fast = row_requests_for_stream(stream, row_bytes)
                    assert fast == row_requests_for_stream_reference(stream, row_bytes)


def empty_and_single_point(stream):
    first = np.arange(stream.num_points) == 0
    return stream.subset(np.zeros_like(first)), stream.subset(first)


def test_points_sharing_empty_input(morton):
    """No stream shorter than two points shares a cube or hits a register."""
    for level in range(GRID.num_levels):
        empty, one = empty_and_single_point(morton.stream(level))
        assert stream_sharing_run_length(empty) == 0.0
        assert stream_register_hit_rate(empty) == 0.0
        assert stream_sharing_run_length(one) == 1.0
        assert stream_register_hit_rate(one) == 0.0


def test_memory_requests_empty_and_single_point(morton):
    for level in range(GRID.num_levels):
        empty, one = empty_and_single_point(morton.stream(level))
        assert row_requests_for_stream(empty) == 0
        assert row_requests_for_stream_reference(empty) == 0
        fast = row_requests_for_stream(one)
        assert fast == row_requests_for_stream_reference(one)
        assert 1 <= fast <= 8
