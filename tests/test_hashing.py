"""Tests for the hash mapping functions and Fig. 6 locality statistics."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import (
    DISTANCE_BIN_LABELS,
    DenseGridIndexer,
    MortonLocalityHash,
    OriginalSpatialHash,
    average_row_requests_per_cube,
    average_row_requests_per_cube_reference,
    cube_vertices,
    index_distance_breakdown,
)
from repro.core.morton import MAX_BITS_PER_COORD
from repro.nerf.encoding import HashGridConfig
from repro.serve.cost import ServiceCostConfig


@pytest.fixture(scope="module")
def sampled_cubes():
    rng = np.random.default_rng(7)
    return rng.integers(0, 2048, size=(1500, 3))


def test_cube_vertices_shape_and_offsets():
    base = np.array([[0, 0, 0], [5, 6, 7]])
    verts = cube_vertices(base)
    assert verts.shape == (2, 8, 3)
    # The 8 corners of the first cube are exactly the binary offsets.
    expected = {(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)}
    assert {tuple(v) for v in verts[0]} == expected
    assert {tuple(v) for v in verts[1]} == {(5 + i, 6 + j, 7 + k) for i, j, k in expected}


def test_cube_vertices_rejects_bad_shape():
    with pytest.raises(ValueError):
        cube_vertices(np.zeros((3, 2)))


def test_hash_functions_return_valid_indices(sampled_cubes):
    table = 2**19
    for fn in (OriginalSpatialHash(), MortonLocalityHash(), DenseGridIndexer(64)):
        idx = fn(sampled_cubes, table)
        assert idx.shape == (sampled_cubes.shape[0],)
        assert idx.min() >= 0
        assert idx.max() < table


def test_original_hash_uses_primes():
    custom = OriginalSpatialHash(primes=(1, 3, 5))
    default = OriginalSpatialHash()
    coords = np.array([[10, 20, 30]])
    assert int(custom(coords, 10007)[0]) != int(default(coords, 10007)[0])


def test_dense_grid_indexer_is_row_major():
    indexer = DenseGridIndexer(resolution=4)
    # vertex (1, 0, 0) -> 1, (0, 1, 0) -> 5, (0, 0, 1) -> 25 for resolution 4 (5 vertices/axis)
    assert int(indexer(np.array([[1, 0, 0]]), 1000)[0]) == 1
    assert int(indexer(np.array([[0, 1, 0]]), 1000)[0]) == 5
    assert int(indexer(np.array([[0, 0, 1]]), 1000)[0]) == 25


def test_index_distance_breakdown_fractions_sum_to_one(sampled_cubes):
    stats = index_distance_breakdown(MortonLocalityHash(), sampled_cubes, 2**19)
    assert set(stats.fractions) == set(DISTANCE_BIN_LABELS)
    assert sum(stats.fractions.values()) == pytest.approx(1.0, abs=1e-9)


def test_morton_is_more_local_than_original(sampled_cubes):
    """Fig. 6 shape: Morton concentrates neighbour distances in small bins."""
    table = 2**19
    morton = index_distance_breakdown(MortonLocalityHash(), sampled_cubes, table)
    original = index_distance_breakdown(OriginalSpatialHash(), sampled_cubes, table)
    assert morton.fraction_leq_16 > original.fraction_leq_16
    assert morton.fraction_gt_5000 < original.fraction_gt_5000
    assert morton.fraction_leq_16 > 0.5
    assert original.fraction_gt_5000 > 0.4


def test_requests_per_cube_matches_paper_shape(sampled_cubes):
    """Sec. III-A: ~1.58 requests/cube for Morton vs ~4.02 for the original hash."""
    table = 2**19
    morton = average_row_requests_per_cube(MortonLocalityHash(), sampled_cubes, table)
    original = average_row_requests_per_cube(OriginalSpatialHash(), sampled_cubes, table)
    assert morton == pytest.approx(1.58, abs=0.35)
    assert original == pytest.approx(4.02, abs=0.35)
    assert morton < original / 2


def test_requests_per_cube_bounds(sampled_cubes):
    # Between 1 (all corners in one row) and 8 (every corner in its own row).
    value = average_row_requests_per_cube(MortonLocalityHash(), sampled_cubes, 2**19)
    assert 1.0 <= value <= 8.0


def test_requests_per_cube_rejects_bad_row_size(sampled_cubes):
    with pytest.raises(ValueError):
        average_row_requests_per_cube(MortonLocalityHash(), sampled_cubes, 2**19, row_bytes=0)
    with pytest.raises(ValueError):
        average_row_requests_per_cube_reference(
            MortonLocalityHash(), sampled_cubes, 2**19, row_bytes=0
        )


def test_requests_per_cube_vectorized_matches_unique_oracle(sampled_cubes):
    """The per-axis-sort version must equal the retained per-cube np.unique loop."""
    for fn in (MortonLocalityHash(), OriginalSpatialHash(), DenseGridIndexer(64)):
        for row_bytes in (64, 1024):
            fast = average_row_requests_per_cube(fn, sampled_cubes, 2**19, row_bytes=row_bytes)
            slow = average_row_requests_per_cube_reference(
                fn, sampled_cubes, 2**19, row_bytes=row_bytes
            )
            assert fast == slow
    empty = np.zeros((0, 3), dtype=np.int64)
    assert average_row_requests_per_cube(MortonLocalityHash(), empty, 2**19) == 0.0


@given(st.integers(1, 2**16))
@settings(max_examples=30, deadline=None)
def test_hash_indices_always_within_table(table_size):
    coords = np.array([[0, 0, 0], [100, 200, 300], [2047, 2047, 2047]])
    for fn in (OriginalSpatialHash(), MortonLocalityHash()):
        idx = fn(coords, table_size)
        assert np.all((idx >= 0) & (idx < table_size))


#: Coordinates up to and past the 21 bits the Morton interleave keeps, with
#: every power-of-two boundary (where the spread table grows) nearby.
COORDINATES = st.one_of(
    st.integers(0, 2**22),
    st.sampled_from(
        [2**k + d for k in range(MAX_BITS_PER_COORD + 2) for d in (-2, -1, 0) if 2**k + d >= 0]
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    hash_fn=st.one_of(
        st.sampled_from([OriginalSpatialHash(), MortonLocalityHash()]),
        st.integers(1, 300).map(DenseGridIndexer),
    ),
    coords=st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES), max_size=40),
    table_size=st.one_of(st.integers(1, 2**20), st.integers(0, 20).map(lambda k: 2**k)),
    dtype=st.sampled_from([np.int64, np.int32, np.uint64]),
)
def test_corner_hashes_match_hashing_every_corner(hash_fn, coords, table_size, dtype):
    """corner_hashes equals the hash of each of cube_vertices' 8 corners."""
    base = np.array(coords, dtype=dtype).reshape(-1, 3)
    expected = hash_fn(cube_vertices(base).reshape(-1, 3), table_size).reshape(-1, 8)
    got = hash_fn.corner_hashes(base, table_size)
    assert got.dtype == np.int64 and got.shape == (base.shape[0], 8)
    np.testing.assert_array_equal(got, expected)


def test_hash_functions_compare_by_value():
    """Equal parameters make equal hash functions, and so equal grid configs."""
    assert HashGridConfig() == HashGridConfig()
    assert ServiceCostConfig().grid() == ServiceCostConfig().grid()
    grid = HashGridConfig(hash_fn=MortonLocalityHash())
    twin = pickle.loads(pickle.dumps(grid))
    assert twin == grid and hash(twin) == hash(grid)
    assert OriginalSpatialHash() == OriginalSpatialHash(primes=(1, 2_654_435_761, 805_459_861))
    assert hash(DenseGridIndexer(8)) == hash(DenseGridIndexer(8))
    assert OriginalSpatialHash(primes=(1, 3, 5)) != OriginalSpatialHash()
    assert DenseGridIndexer(8) != DenseGridIndexer(9)
    assert MortonLocalityHash() != OriginalSpatialHash()
    assert HashGridConfig(hash_fn=MortonLocalityHash()) != HashGridConfig()
