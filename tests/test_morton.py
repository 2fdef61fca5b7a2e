"""Unit and property-based tests for Morton (Z-order) encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import MortonLocalityHash
from repro.core.morton import (
    MAX_BITS_PER_COORD,
    compact_by_two,
    morton_decode_3d,
    morton_encode_3d,
    morton_hash,
    separate_by_two,
)

COORD = st.integers(min_value=0, max_value=2**MAX_BITS_PER_COORD - 1)


def test_separate_by_two_known_value():
    # f(0b1011) = 0b1000001001 (paper example)
    assert int(separate_by_two(0b1011)) == 0b1000001001


def test_separate_by_two_zero_and_one():
    assert int(separate_by_two(0)) == 0
    assert int(separate_by_two(1)) == 1
    assert int(separate_by_two(2)) == 0b1000


def test_separate_by_two_vectorised_matches_scalar():
    values = np.arange(100)
    vector = separate_by_two(values)
    scalars = np.array([int(separate_by_two(int(v))) for v in values], dtype=np.uint64)
    np.testing.assert_array_equal(vector, scalars)


def test_morton_encode_interleaves_bits():
    # x0 bits go to positions 0,3,6..., x1 to 1,4,7..., x2 to 2,5,8...
    assert int(morton_encode_3d(np.array(1), np.array(0), np.array(0))) == 0b001
    assert int(morton_encode_3d(np.array(0), np.array(1), np.array(0))) == 0b010
    assert int(morton_encode_3d(np.array(0), np.array(0), np.array(1))) == 0b100
    assert int(morton_encode_3d(np.array(3), np.array(0), np.array(0))) == 0b001001


def test_morton_neighbors_are_close_on_average():
    rng = np.random.default_rng(0)
    coords = rng.integers(0, 1024, size=(1000, 3))
    neighbors = coords.copy()
    neighbors[:, 0] += 1
    base = morton_encode_3d(coords[:, 0], coords[:, 1], coords[:, 2]).astype(np.int64)
    near = morton_encode_3d(neighbors[:, 0], neighbors[:, 1], neighbors[:, 2]).astype(np.int64)
    random_pairs = np.abs(base - np.roll(base, 1))
    neighbor_pairs = np.abs(base - near)
    assert np.median(neighbor_pairs) < np.median(random_pairs)


@given(COORD, COORD, COORD)
@settings(max_examples=100, deadline=None)
def test_morton_roundtrip(x0, x1, x2):
    code = morton_encode_3d(np.array(x0), np.array(x1), np.array(x2))
    d0, d1, d2 = morton_decode_3d(code)
    assert (int(d0), int(d1), int(d2)) == (x0, x1, x2)


@given(COORD)
@settings(max_examples=100, deadline=None)
def test_separate_compact_roundtrip(value):
    assert int(compact_by_two(separate_by_two(value))) == value


@given(st.lists(st.tuples(COORD, COORD, COORD), min_size=1, max_size=20), st.integers(1, 2**20))
@settings(max_examples=50, deadline=None)
def test_morton_hash_in_range(coords, table_size):
    arr = np.array(coords, dtype=np.int64)
    idx = morton_hash(arr, table_size)
    assert idx.shape == (arr.shape[0],)
    assert np.all(idx >= 0)
    assert np.all(idx < table_size)


def test_morton_hash_rejects_bad_inputs():
    with pytest.raises(ValueError):
        morton_hash(np.zeros((3, 2)), 16)
    with pytest.raises(ValueError):
        morton_hash(np.zeros((3, 3)), 0)


def test_morton_hash_rejects_negative_coordinates():
    """Regression: -1 used to silently mask to 0x1FFFFF instead of failing."""
    with pytest.raises(ValueError):
        morton_hash(np.array([[-1, 0, 0]]), 16)
    with pytest.raises(ValueError):
        morton_hash(np.array([[0, 0, 0], [2, -5, 1]]), 2**19)
    with pytest.raises(ValueError):
        MortonLocalityHash().corner_hashes(np.array([[0, 0, 0], [2, -5, 1]]), 2**19)
    # Positive overflow keeps the documented hardware-style 21-bit masking.
    over = morton_hash(np.array([[2**MAX_BITS_PER_COORD, 0, 0]]), 2**19)
    masked = morton_hash(np.array([[0, 0, 0]]), 2**19)
    np.testing.assert_array_equal(over, masked)


def test_morton_hash_is_deterministic():
    coords = np.array([[1, 2, 3], [4, 5, 6]])
    np.testing.assert_array_equal(morton_hash(coords, 97), morton_hash(coords, 97))
