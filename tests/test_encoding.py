"""Tests for the multi-resolution hash encoding and frequency encoding."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import MortonLocalityHash, OriginalSpatialHash
from repro.nerf.encoding import (
    FrequencyEncoding,
    HashGridConfig,
    HashGridEncoding,
    level_resolutions,
)
from repro.pipeline.context import config_key


def test_level_resolutions_geometric_progression():
    res = level_resolutions(16, 16, 2048)
    assert res[0] == 16
    assert res[-1] == 2048
    assert all(res[i] <= res[i + 1] for i in range(15))


def test_level_resolutions_validation():
    with pytest.raises(ValueError):
        level_resolutions(0, 16, 2048)
    with pytest.raises(ValueError):
        level_resolutions(4, 32, 16)
    assert level_resolutions(1, 16, 2048) == [16]


def test_hash_grid_config_table_sizes():
    config = HashGridConfig(num_levels=16, table_size=2**19, features_per_entry=2)
    # Coarse levels store the dense grid; fine levels are capped at T.
    assert config.level_table_entries(0) == (config.resolutions[0] + 1) ** 3
    assert config.level_table_entries(15) == 2**19
    assert not config.level_uses_hash(0)
    assert config.level_uses_hash(15)
    # Paper-scale table is ~25 MB at FP16.
    assert config.table_bytes(dtype_bytes=2) / 1024**2 == pytest.approx(25.0, rel=0.15)
    assert config.output_dim == 32


def test_hash_grid_config_resolutions_are_computed_once():
    config = HashGridConfig(num_levels=4, base_resolution=8, max_resolution=64)
    pickled = pickle.dumps(config)
    key = config_key(config)
    first = config.resolutions
    assert first == (8, 16, 32, 64)
    assert config.resolutions is first
    # The cache is derived state: keys, pickles and equality see fields only.
    assert config_key(config) == key and pickle.dumps(config) == pickled
    twin = replace(config)
    assert twin == config and hash(twin) == hash(config)
    assert config_key(pickle.loads(pickled)) == key
    # A replaced config computes its own resolutions.
    coarser = replace(config, num_levels=2)
    assert coarser.resolutions == tuple(level_resolutions(2, 8, 64)) != first
    assert config.resolutions is first


def test_encoding_forward_shape_and_cache(small_grid_config, rng):
    enc = HashGridEncoding(small_grid_config, rng=rng)
    pos = rng.uniform(0, 1, (10, 3))
    feats = enc.forward(pos)
    assert feats.shape == (10, small_grid_config.output_dim)
    assert feats.dtype == np.float32
    with pytest.raises(ValueError):
        enc.forward(rng.uniform(0, 1, (10, 2)))


def test_encoding_backward_requires_forward(small_grid_config):
    enc = HashGridEncoding(small_grid_config)
    with pytest.raises(RuntimeError):
        enc.backward(np.zeros((1, small_grid_config.output_dim)))


def test_encoding_is_continuous_in_position(small_grid_config, rng):
    """Trilinear interpolation => small position changes give small feature changes."""
    enc = HashGridEncoding(small_grid_config, rng=rng)
    for e in enc.embeddings:
        e[...] = rng.normal(0, 1, e.shape).astype(np.float32)
    pos = rng.uniform(0.1, 0.9, (20, 3))
    f0 = enc.forward(pos)
    f1 = enc.forward(pos + 1e-5)
    assert np.max(np.abs(f0 - f1)) < 1e-2


def test_encoding_gradients_match_finite_differences(small_grid_config, rng):
    enc = HashGridEncoding(small_grid_config, rng=rng)
    for e in enc.embeddings:
        e[...] = rng.normal(0, 0.5, e.shape).astype(np.float32)
    pos = rng.uniform(0.05, 0.95, (6, 3))
    upstream = rng.normal(size=(6, small_grid_config.output_dim)).astype(np.float32)

    enc.forward(pos)
    enc.zero_grad()
    enc.backward(upstream)

    eps = 1e-3
    for level in range(small_grid_config.num_levels):
        grad = enc.grads[level]
        if not np.any(np.abs(grad) > 1e-7):
            continue
        idx = np.unravel_index(np.argmax(np.abs(grad)), grad.shape)
        original = enc.embeddings[level][idx]
        enc.embeddings[level][idx] = original + eps
        plus = float((enc.forward(pos) * upstream).sum())
        enc.embeddings[level][idx] = original - eps
        minus = float((enc.forward(pos) * upstream).sum())
        enc.embeddings[level][idx] = original
        fd = (plus - minus) / (2 * eps)
        assert fd == pytest.approx(float(grad[idx]), rel=0.05, abs=1e-3)


def test_encoding_with_morton_hash_matches_interface(small_grid_config, rng):
    config = HashGridConfig(
        num_levels=small_grid_config.num_levels,
        table_size=small_grid_config.table_size,
        base_resolution=small_grid_config.base_resolution,
        max_resolution=small_grid_config.max_resolution,
        hash_fn=MortonLocalityHash(),
    )
    enc = HashGridEncoding(config, rng=rng)
    feats = enc.forward(rng.uniform(0, 1, (5, 3)))
    assert feats.shape == (5, config.output_dim)


def test_fused_forward_matches_per_level_reference(small_grid_config, rng):
    """The fused multi-level forward must be bit-identical to the level loop."""
    enc = HashGridEncoding(small_grid_config, rng=rng)
    for e in enc.embeddings:
        e[...] = rng.normal(0, 1, e.shape).astype(np.float32)
    pos = rng.uniform(-0.1, 1.1, (200, 3))  # includes out-of-range positions
    fused = enc.forward(pos)
    reference = enc.forward_reference(pos)
    np.testing.assert_array_equal(fused, reference)


def test_multilevel_vertex_indices_match_per_level(small_grid_config, rng):
    """Each level's index and weight step in forward is vertex_indices'."""
    enc = HashGridEncoding(small_grid_config, rng=rng)
    pos = rng.uniform(-0.1, 1.1, (64, 3))
    enc.FORWARD_BLOCK = 24  # three blocks, the last one short
    enc.forward(pos)
    levels = enc._cache["levels"]
    assert len(levels) == small_grid_config.num_levels
    for level, (idx, w) in enumerate(levels):
        expected_idx, expected_w, _ = enc.vertex_indices(pos, level)
        assert idx.dtype == np.int64 and w.dtype == np.float32
        assert idx.shape == w.shape == (64, 8) and w.flags.c_contiguous
        np.testing.assert_array_equal(idx, expected_idx)
        np.testing.assert_array_equal(w, expected_w)


#: Levels 0-1 (resolutions 3 and 7) are stored dense, levels 2-4 hashed.
MIXED_GRID = HashGridConfig(num_levels=5, table_size=2**10, base_resolution=3, max_resolution=96)


@settings(max_examples=80, deadline=None)
@given(
    dtype=st.sampled_from(["fp64", "fp32", "fp16", "int8"]),
    hash_fn=st.sampled_from([OriginalSpatialHash(), MortonLocalityHash()]),
    features=st.sampled_from([1, 2, 4]),
    num_points=st.integers(0, 300),
    block=st.integers(1, 64),
    negative_zeros=st.booleans(),
    non_finite=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_is_bit_identical_to_the_reference(
    dtype, hash_fn, features, num_points, block, negative_zeros, non_finite, seed
):
    """forward equals forward_reference byte for byte, signed zeros and NaN or
    infinite coordinates included, in one block or many; backward gives the
    same grads after either."""
    rng = np.random.default_rng(seed)
    config = replace(MIXED_GRID, hash_fn=hash_fn, features_per_entry=features, dtype=dtype)
    enc = HashGridEncoding(config, rng=rng)
    for table in enc.embeddings:
        if dtype == "int8":
            table[...] = rng.integers(-128, 128, table.shape)
        else:
            table[...] = rng.normal(size=table.shape)
            if negative_zeros:  # then many points sum eight -0.0 products
                table[rng.random(table.shape) < 0.9] = -0.0
    pos = rng.uniform(-0.1, 1.1, (num_points, 3))
    # Coordinates on grid vertices give corners of zero weight.
    on_vertex = rng.random(pos.shape) < 0.2
    pos[on_vertex] = rng.choice([0.0, 0.25, 0.5, 1.0], size=int(on_vertex.sum()))
    if non_finite:  # NaN maps to vertex 0 with NaN weights; +-inf clip to the cube
        odd = rng.random(pos.shape) < 0.1
        pos[odd] = rng.choice([np.nan, np.inf, -np.inf], size=int(odd.sum()))
    upstream = rng.normal(size=(num_points, config.output_dim))
    enc.FORWARD_BLOCK = block

    def run(forward):
        outputs = [forward(pos)]
        if dtype != "int8":
            enc.zero_grad()
            enc.backward(upstream)
            outputs += [g.copy() for g in enc.grads]
        return outputs

    with np.errstate(invalid="ignore"):  # casting NaN to a vertex index
        outputs = zip(run(enc.forward), run(enc.forward_reference), strict=True)
    for fast, reference in outputs:
        assert fast.dtype == reference.dtype and fast.shape == reference.shape
        assert np.array_equal(fast.view(np.uint8), reference.view(np.uint8))


def test_bincount_backward_matches_scatter_reference(small_grid_config, rng):
    """Segment-sum backward must match the np.add.at oracle within float tolerance."""
    enc = HashGridEncoding(small_grid_config, rng=rng)
    pos = rng.uniform(0, 1, (300, 3))
    upstream = rng.normal(size=(300, small_grid_config.output_dim)).astype(np.float32)
    enc.forward(pos)
    enc.zero_grad()
    enc.backward(upstream)
    fast = [g.copy() for g in enc.grads]
    enc.forward(pos)
    enc.zero_grad()
    enc.backward_reference(upstream)
    for fast_grad, ref_grad in zip(fast, enc.grads):
        np.testing.assert_allclose(fast_grad, ref_grad, atol=1e-5)


def test_backward_reference_requires_forward(small_grid_config):
    enc = HashGridEncoding(small_grid_config)
    with pytest.raises(RuntimeError):
        enc.backward_reference(np.zeros((1, small_grid_config.output_dim)))


def test_vertex_indices_weights_sum_to_one(small_grid_config, rng):
    enc = HashGridEncoding(small_grid_config, rng=rng)
    pos = rng.uniform(0, 1, (50, 3))
    for level in range(small_grid_config.num_levels):
        idx, weights, base = enc.vertex_indices(pos, level)
        assert idx.shape == (50, 8)
        assert weights.shape == (50, 8)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-5)
        assert np.all(idx >= 0)
        assert np.all(idx < small_grid_config.level_table_entries(level))


def test_frequency_encoding_shapes_and_range():
    enc = FrequencyEncoding(input_dim=3, num_frequencies=4, include_input=True)
    assert enc.output_dim == 3 + 3 * 4 * 2
    x = np.random.default_rng(0).uniform(-1, 1, (7, 3))
    out = enc.forward(x)
    assert out.shape == (7, enc.output_dim)
    # sin/cos components bounded by 1.
    assert np.all(np.abs(out[:, 3:]) <= 1.0 + 1e-6)
    with pytest.raises(ValueError):
        enc.forward(np.zeros((4, 2)))


@given(st.integers(2, 8), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_frequency_encoding_output_dim_property(dim, freqs):
    enc = FrequencyEncoding(input_dim=dim, num_frequencies=freqs, include_input=False)
    assert enc.output_dim == dim * freqs * 2
    assert enc.forward(np.zeros((3, dim))).shape == (3, enc.output_dim)


#: Direction rows a batch can hold: +0.0 next to -0.0, NaNs with two
#: payloads and infinities must never share an encoding.
_NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
DIRECTION_ROWS = [
    (0.0, 0.6, 0.8),
    (-0.0, 0.6, 0.8),
    (0.0, 0.6, -0.0),
    (np.nan, 0.0, 1.0),
    (_NAN_PAYLOAD, 0.0, 1.0),
    (np.inf, -np.inf, 0.5),
    (-0.3, 1e-300, 2.0),
]


@settings(max_examples=100, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.sampled_from(range(len(DIRECTION_ROWS))), st.integers(1, 5)), max_size=12
    ),
    include_input=st.booleans(),
    num_frequencies=st.integers(1, 5),
)
def test_frequency_forward_is_bit_identical_to_the_reference(runs, include_input, num_frequencies):
    """forward, once per run of equal rows, equals the row-by-row reference byte for byte."""
    enc = FrequencyEncoding(3, num_frequencies, include_input=include_input)
    rows = np.array([DIRECTION_ROWS[row] for row, _ in runs], dtype=np.float64).reshape(-1, 3)
    x = np.repeat(rows, [count for _, count in runs], axis=0)
    with np.errstate(invalid="ignore"):  # sin and cos of infinity
        fast, reference = enc.forward(x), enc.forward_reference(x)
    assert fast.dtype == reference.dtype == np.float32
    assert fast.shape == reference.shape == (x.shape[0], enc.output_dim)
    assert np.array_equal(fast.view(np.uint8), reference.view(np.uint8))
