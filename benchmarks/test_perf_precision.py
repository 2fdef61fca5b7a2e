"""Mixed-precision benchmarks: fp32 kernel speedups and narrow-entry traffic.

Three measurements, recorded into ``BENCH_precision.json`` through the
``bench`` fixture (see ``benchmarks/conftest.py``):

* hash-grid encoding forward+backward at fp32 vs the historical fp64
  path (wall-clock speedup; outputs asserted close);
* MLP forward+backward at fp32 vs fp64 (same shape of measurement);
* deterministic modeled traffic reductions of narrow table entries:
  finest-level DRAM row requests and cache-filtered DRAM cycles for
  fp32/fp16/int8 entries against fp64, asserted monotone.

``PERF_SMOKE=1`` shrinks the inputs; the wall-clock speedup floors then do
not apply, while the deterministic traffic reductions stay asserted.
"""

from __future__ import annotations

import numpy as np
from conftest import SMOKE

from repro.core.hashing import MortonLocalityHash
from repro.core.streaming import StreamingOrder
from repro.mem.hierarchy import CacheHierarchy
from repro.nerf import HashGridConfig
from repro.nerf.mlp import MLP
from repro.pipeline import SimulationContext
from repro.workloads.traces import TraceConfig

NUM_POINTS = 4_096 if SMOKE else 65_536
MLP_BATCH = 4_096 if SMOKE else 65_536
BENCH_ENTRY = {"num_points": NUM_POINTS, "mlp_batch": MLP_BATCH}


def _grid(dtype: str) -> HashGridConfig:
    return HashGridConfig(
        num_levels=8 if SMOKE else 16,
        table_size=2**14 if SMOKE else 2**19,
        max_resolution=256 if SMOKE else 1024,
        dtype=dtype,
    )


def _record_fp32(bench, section: str, fp64_s: float, fp32_s: float, floor: float) -> None:
    speedup = fp64_s / fp32_s if fp32_s > 0 else float("inf")
    bench.record(
        section,
        {"fp64_s": fp64_s, "fp32_s": fp32_s, "speedup": speedup},
        {"speedup": (">=", floor)},
    )


def test_encoding_fp32_speedup(bench):
    """fp32 hash-grid forward+backward beats the historical fp64 path."""
    from repro.nerf.encoding import HashGridEncoding

    rng = np.random.default_rng(0)
    points = rng.random((NUM_POINTS, 3))
    grad_rng = np.random.default_rng(1)

    def run(dtype: str):
        enc = HashGridEncoding(_grid(dtype), rng=np.random.default_rng(2))
        out = enc.forward(points)
        grad = grad_rng.standard_normal(out.shape)
        enc.backward(grad)
        return out

    fp64_s, fp64_out = bench.time(lambda: run("fp64"), repeats=3)
    fp32_s, fp32_out = bench.time(lambda: run("fp32"), repeats=3)
    np.testing.assert_allclose(fp32_out, fp64_out, atol=2e-5)
    _record_fp32(bench, "encoding_fp32", fp64_s, fp32_s, floor=1.05)


def test_mlp_fp32_speedup(bench):
    """fp32 MLP forward+backward beats fp64 on the same geometry."""
    rng = np.random.default_rng(0)
    x = rng.random((MLP_BATCH, 32))
    grad = rng.standard_normal((MLP_BATCH, 16))

    def run(dtype: str):
        mlp = MLP([32, 64, 64, 16], rng=np.random.default_rng(3), dtype=dtype)
        out = mlp.forward(x)
        mlp.backward(grad)
        return out

    fp64_s, fp64_out = bench.time(lambda: run("fp64"), repeats=3)
    fp32_s, fp32_out = bench.time(lambda: run("fp32"), repeats=3)
    np.testing.assert_allclose(fp32_out, fp64_out, atol=1e-3)
    _record_fp32(bench, "mlp_fp32", fp64_s, fp32_s, floor=1.2)


def test_narrow_entry_traffic_reduction(bench):
    """Narrower table entries shrink modeled DRAM traffic monotonically.

    Deterministic (pure memory-system model), so the floors are gated in
    smoke mode too.
    """
    ctx = SimulationContext()
    grid = HashGridConfig(num_levels=8 if SMOKE else 16)
    hash_fn = MortonLocalityHash()
    hierarchy = CacheHierarchy()
    order = StreamingOrder.RAY_FIRST
    level = grid.num_levels - 1

    rows: dict[str, int] = {}
    cycles: dict[str, float] = {}
    for dtype in ("fp64", "fp32", "fp16", "int8"):
        stream = ctx.request_stream(grid, TraceConfig(dtype=dtype), hash_fn, order, level)
        rows[dtype] = ctx.stream_row_requests(stream)
        lines = ctx.stream_filtered(hierarchy, stream).dram_stream()
        batch = ctx.stream_serviced("lpddr4-2400", lines, size_bytes=hierarchy.cache.line_bytes)
        cycles[dtype] = batch["total_cycles"]

    fp16_row_reduction = rows["fp64"] / rows["fp16"]
    int8_row_reduction = rows["fp64"] / rows["int8"]
    int8_cycle_reduction = cycles["fp64"] / cycles["int8"]
    bench.record(
        "narrow_entry_traffic",
        {
            "row_requests": rows,
            "dram_cycles": cycles,
            "fp16_row_request_reduction": fp16_row_reduction,
            "int8_row_request_reduction": int8_row_reduction,
            "int8_dram_cycle_reduction": int8_cycle_reduction,
        },
    )
    assert rows["fp64"] >= rows["fp32"] >= rows["fp16"] >= rows["int8"]
    assert cycles["fp64"] >= cycles["fp32"] >= cycles["fp16"] >= cycles["int8"]
    assert fp16_row_reduction >= 1.2
    assert int8_row_reduction >= 1.5
    assert int8_cycle_reduction >= 1.5
