"""Tests for the end-to-end precision axis.

Covers: the ``repro.core.precision`` dtype/quantization helpers (including
a hypothesis round-trip bound), fp16 as a storage format (float16
parameters, float32 compute bit-identical to an fp32 twin holding the
rounded values, parameters still float16 after a training step), stored
table bytes matching the modeled footprint, int8 encoding equivalence
within half a code step, the precision field invalidating context/store
keys, and a tiny registry-level tab05 run with monotone modeled reductions.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import precision
from repro.core.hashing import MortonLocalityHash
from repro.nerf.encoding import HashGridConfig, HashGridEncoding
from repro.nerf.field import InstantNGPField
from repro.nerf.mlp import MLP
from repro.nerf.trainer import Trainer, TrainerConfig
from repro.pipeline.context import SimulationContext, config_key
from repro.core.streaming import StreamingOrder
from repro.workloads.traces import TraceConfig


# ------------------------------------------------------- precision helpers


def test_dtype_tables():
    assert [precision.dtype_bytes(d) for d in precision.PRECISIONS] == [8, 4, 2, 1]
    assert [precision.storage_dtype(d) for d in precision.PRECISIONS] == [
        np.float64,
        np.float32,
        np.float16,
        np.int8,
    ]
    # Reduced precisions are storage formats: everything below fp64 computes
    # in float32.
    assert [precision.compute_dtype(d) for d in precision.PRECISIONS] == [
        np.float64,
        np.float32,
        np.float32,
        np.float32,
    ]
    with pytest.raises(ValueError, match="unknown precision"):
        precision.validate_precision("fp8")
    with pytest.raises(ValueError):
        precision.validate_precision("int8", precision.FLOAT_PRECISIONS)


def test_quantize_int8_edges():
    codes, scale, zero = precision.quantize_int8(np.full(5, 3.25))
    assert codes.dtype == np.int8 and scale == 1.0
    np.testing.assert_allclose(precision.dequantize_int8(codes, scale, zero), 3.25)

    empty_codes, empty_scale, empty_zero = precision.quantize_int8(np.array([]))
    assert empty_codes.size == 0 and empty_scale == 1.0 and empty_zero == 0.0

    with pytest.raises(ValueError, match="finite"):
        precision.quantize_int8(np.array([1.0, np.nan]))


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=16),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    )
)
def test_quantize_int8_round_trip_bound(values):
    codes, scale, zero = precision.quantize_int8(values)
    assert codes.dtype == np.int8
    restored = precision.dequantize_int8(codes, scale, zero, dtype=np.float64)
    # Affine int8 reconstruction is off by at most half a code step.
    bound = scale / 2 * (1 + 1e-9) + 1e-12
    assert np.max(np.abs(restored - values), initial=0.0) <= bound


# ---------------------------------------------------- kernel equivalence


def _small_grid(dtype: str) -> HashGridConfig:
    return HashGridConfig(
        num_levels=4, table_size=2**12, max_resolution=64, dtype=dtype
    )


def _assert_same_arrays(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.dtype == e.dtype
        np.testing.assert_array_equal(a, e)


def test_stored_tables_match_modeled_footprint():
    """The executed tables occupy exactly the bytes the memory model charges."""
    stored = []
    for dtype in precision.PRECISIONS:
        cfg = _small_grid(dtype)
        enc = HashGridEncoding(cfg, rng=np.random.default_rng(1))
        stored.append(sum(e.nbytes for e in enc.embeddings))
        assert stored[-1] == cfg.table_bytes()
    assert stored == [262144, 131072, 65536, 32768]


def test_fp16_encoding_matches_fp32_within_tolerance():
    """fp16 tables are storage only: the math is fp32 on the rounded entries."""
    rng = np.random.default_rng(7)
    points = rng.random((256, 3))
    fp16 = HashGridEncoding(_small_grid("fp16"), rng=np.random.default_rng(1))
    fp32 = HashGridEncoding(_small_grid("fp32"), rng=np.random.default_rng(1))
    rounded = HashGridEncoding(_small_grid("fp32"), rng=np.random.default_rng(1))
    for table, stored in zip(rounded.embeddings, fp16.embeddings):
        table[...] = stored
    assert all(e.dtype == np.float16 for e in fp16.embeddings)

    out16 = fp16.forward(points)
    assert out16.dtype == np.float32
    np.testing.assert_array_equal(out16, rounded.forward(points))
    grad = np.random.default_rng(3).standard_normal(out16.shape)
    fp16.backward(grad)
    rounded.backward(grad)
    _assert_same_arrays(fp16.gradients(), rounded.gradients())
    assert all(g.dtype == np.float32 for g in fp16.gradients())
    np.testing.assert_array_equal(out16, fp16.forward_reference(points))
    # The rounding still takes effect: unrounded fp32 tables give other
    # features, off by fp16's ~3 decimal digits of the ~1e-4 entries.
    out32 = fp32.forward(points)
    assert not np.array_equal(out16, out32)
    np.testing.assert_allclose(out16, out32, rtol=0, atol=1e-6)


def test_int8_encoding_quantizes_within_half_step_and_is_inference_only():
    rng = np.random.default_rng(7)
    points = rng.random((256, 3))
    fp32 = HashGridEncoding(_small_grid("fp32"), rng=np.random.default_rng(1))
    int8 = fp32.quantized_int8()
    out32, out8 = fp32.forward(points), int8.forward(points)
    # Interpolation is convex, so the output error is bounded by the worst
    # per-level half code step.
    bound = max(int8.scales) / 2 * 1.01
    np.testing.assert_allclose(out8, out32, atol=bound)
    np.testing.assert_array_equal(out8, int8.forward_reference(points))
    with pytest.raises(ValueError, match="already int8"):
        int8.quantized_int8()
    with pytest.raises(RuntimeError, match="inference-only"):
        int8.backward(np.zeros_like(out8, dtype=np.float32))
    with pytest.raises(RuntimeError, match="inference-only"):
        int8.backward_reference(np.zeros_like(out8, dtype=np.float32))


def test_mlp_fp16_matches_fp32_within_tolerance():
    """fp16 weights are storage only: the math is fp32 on the rounded weights."""
    rng = np.random.default_rng(0)
    x = rng.random((64, 8))
    fp16 = MLP([8, 32, 4], rng=np.random.default_rng(2), dtype="fp16")
    fp32 = MLP([8, 32, 4], rng=np.random.default_rng(2), dtype="fp32")
    rounded = MLP([8, 32, 4], rng=np.random.default_rng(2), dtype="fp32")
    for param, stored in zip(rounded.parameters(), fp16.parameters()):
        param[...] = stored
    assert all(p.dtype == np.float16 for p in fp16.parameters())

    out16 = fp16.forward(x)
    assert out16.dtype == np.float32
    np.testing.assert_array_equal(out16, rounded.forward(x))
    grad = np.random.default_rng(5).standard_normal(out16.shape)
    _assert_same_arrays([fp16.backward(grad)], [rounded.backward(grad)])
    _assert_same_arrays(fp16.gradients(), rounded.gradients())
    assert all(g.dtype == np.float32 for g in fp16.gradients())
    out32 = fp32.forward(x)
    assert not np.array_equal(out16, out32)
    np.testing.assert_allclose(out16, out32, rtol=0, atol=5e-3)
    with pytest.raises(ValueError):
        MLP([8, 4], dtype="int8")


def test_fp16_field_parameters_stay_fp16_after_a_train_step(tiny_dataset):
    """Adam updates fp16 storage in place; the modeled 2-byte traffic holds."""
    field = InstantNGPField(
        _small_grid("fp16"), hidden_dim=16, geo_features=3, rng=np.random.default_rng(0)
    )
    before = [p.copy() for p in field.parameters()]
    trainer = Trainer(
        field,
        tiny_dataset,
        TrainerConfig(num_iterations=1, rays_per_batch=16, samples_per_ray=8, dtype="fp32"),
    )
    assert np.isfinite(trainer.train_step())
    params = field.parameters()  # every table, then both MLPs' weights and biases
    assert all(p.dtype == np.float16 for p in params)
    assert all(g.dtype == np.float32 for g in field.gradients())
    assert all(not np.array_equal(p, b) for p, b in zip(params, before))


# --------------------------------------------------- keys and invalidation


def test_dtype_axis_invalidates_canonical_keys():
    assert config_key(HashGridConfig(dtype="fp32")) != config_key(HashGridConfig(dtype="fp16"))
    assert config_key(TraceConfig(dtype="fp16")) != config_key(TraceConfig(dtype="int8"))
    assert config_key(TrainerConfig(dtype="fp64")) != config_key(TrainerConfig(dtype="fp32"))


def test_trace_entry_bytes_follow_dtype():
    widths = [TraceConfig(dtype=d).entry_bytes for d in precision.PRECISIONS]
    assert widths == [16, 8, 4, 2]
    assert TraceConfig().entry_bytes == 4  # fp16 default == the old hardcoded 4
    with pytest.raises(ValueError):
        TraceConfig(dtype="fp8")


def test_trainer_config_is_frozen_and_validated():
    cfg = TrainerConfig()
    with pytest.raises(AttributeError):
        cfg.dtype = "fp32"  # type: ignore[misc]
    with pytest.raises(ValueError):
        TrainerConfig(dtype="fp16")


def test_narrower_entries_shrink_row_requests_monotonically():
    ctx = SimulationContext()
    grid = HashGridConfig(num_levels=4, table_size=2**12, max_resolution=64)
    hash_fn = MortonLocalityHash()
    trace = TraceConfig(num_rays=32, points_per_ray=8)
    rows = [
        ctx.stream_row_requests(
            ctx.request_stream(grid, replace(trace, dtype=d), hash_fn, StreamingOrder.RAY_FIRST, 3)
        )
        for d in precision.PRECISIONS
    ]
    assert rows == sorted(rows, reverse=True)
    assert rows[0] > rows[-1]


# ------------------------------------------------------------- tab05 smoke


@pytest.mark.slow
def test_tab05_smoke_monotone_reductions():
    from repro.experiments.tab05_psnr_precision import PrecisionRunConfig, run_tab05

    config = replace(
        PrecisionRunConfig(),
        image_size=12,
        num_train_views=2,
        iterations=4,
        rays_per_batch=32,
        samples_per_ray=8,
    )
    result = run_tab05(config)
    assert [row["dtype"] for row in result.rows] == list(precision.PRECISIONS)
    for metric in ("entry_bytes", "row_requests", "dram_cycles", "sram_energy_j"):
        series = [row[metric] for row in result.rows]
        assert series == sorted(series, reverse=True), metric
    fp16_row = next(row for row in result.rows if row["dtype"] == "fp16")
    assert abs(fp16_row["psnr_drop_vs_fp32_lego"]) < 0.5
    for row in result.rows:
        assert np.isfinite(row["psnr_lego"])
