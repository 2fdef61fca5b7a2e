"""Mixed-precision benchmarks: fp32 kernel speedups and narrow-entry traffic.

Three measurements, recorded into ``BENCH_precision.json`` (same trajectory
format as the other ``BENCH_*.json`` files):

* hash-grid encoding forward+backward at fp32 vs the historical fp64
  path (wall-clock speedup; outputs asserted close);
* MLP forward+backward at fp32 vs fp64 (same shape of measurement);
* deterministic modeled traffic reductions of narrow table entries:
  finest-level DRAM row requests and cache-filtered DRAM cycles for
  fp32/fp16/int8 entries against fp64, asserted monotone.

``PERF_SMOKE=1`` shrinks the inputs and drops the wall-clock floors (the
deterministic traffic reductions stay gated) so CI smoke runs are fast and
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
from repro.core.streaming import StreamingOrder
from repro.experiments.runner import atomic_write_text
from repro.mem.hierarchy import CacheHierarchy
from repro.nerf import HashGridConfig
from repro.nerf.mlp import MLP
from repro.pipeline import SimulationContext
from repro.workloads.traces import TraceConfig

SMOKE = os.environ.get("PERF_SMOKE", "") == "1"
NUM_POINTS = 4_096 if SMOKE else 65_536
MLP_BATCH = 4_096 if SMOKE else 65_536
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_precision.json"

_RESULTS: dict[str, dict] = {}


def _time(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.fixture(scope="module", autouse=True)
def bench_trajectory():
    """Append this run's measurements to the BENCH_precision.json trajectory."""
    yield
    if not _RESULTS:
        return
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": SMOKE,
        "num_points": NUM_POINTS,
        "mlp_batch": MLP_BATCH,
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


def _grid(dtype: str) -> HashGridConfig:
    return HashGridConfig(
        num_levels=8 if SMOKE else 16,
        table_size=2**14 if SMOKE else 2**19,
        max_resolution=256 if SMOKE else 1024,
        dtype=dtype,
    )


def test_encoding_fp32_speedup():
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

    fp64_s, fp64_out = _time(lambda: run("fp64"))
    fp32_s, fp32_out = _time(lambda: run("fp32"))
    np.testing.assert_allclose(fp32_out, fp64_out, atol=2e-5)
    speedup = fp64_s / fp32_s if fp32_s > 0 else float("inf")
    _RESULTS["encoding_fp32"] = {
        "fp64_s": round(fp64_s, 4),
        "fp32_s": round(fp32_s, 4),
        "speedup": round(speedup, 3),
    }
    print(f"\nencoding: fp64 {fp64_s:.3f}s fp32 {fp32_s:.3f}s -> {speedup:.2f}x")
    if not SMOKE:
        assert speedup >= 1.05


def test_mlp_fp32_speedup():
    """fp32 MLP forward+backward beats fp64 on the same geometry."""
    rng = np.random.default_rng(0)
    x = rng.random((MLP_BATCH, 32))
    grad = rng.standard_normal((MLP_BATCH, 16))

    def run(dtype: str):
        mlp = MLP([32, 64, 64, 16], rng=np.random.default_rng(3), dtype=dtype)
        out = mlp.forward(x)
        mlp.backward(grad)
        return out

    fp64_s, fp64_out = _time(lambda: run("fp64"))
    fp32_s, fp32_out = _time(lambda: run("fp32"))
    np.testing.assert_allclose(fp32_out, fp64_out, atol=1e-3)
    speedup = fp64_s / fp32_s if fp32_s > 0 else float("inf")
    _RESULTS["mlp_fp32"] = {
        "fp64_s": round(fp64_s, 4),
        "fp32_s": round(fp32_s, 4),
        "speedup": round(speedup, 3),
    }
    print(f"\nmlp: fp64 {fp64_s:.3f}s fp32 {fp32_s:.3f}s -> {speedup:.2f}x")
    if not SMOKE:
        assert speedup >= 1.2


def test_narrow_entry_traffic_reduction():
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
    _RESULTS["narrow_entry_traffic"] = {
        "row_requests": rows,
        "dram_cycles": cycles,
        "fp16_row_request_reduction": round(fp16_row_reduction, 3),
        "int8_row_request_reduction": round(int8_row_reduction, 3),
        "int8_dram_cycle_reduction": round(int8_cycle_reduction, 3),
    }
    print(
        f"\nrows {rows} -> fp16 {fp16_row_reduction:.2f}x int8 {int8_row_reduction:.2f}x, "
        f"int8 cycles {int8_cycle_reduction:.2f}x"
    )
    assert rows["fp64"] >= rows["fp32"] >= rows["fp16"] >= rows["int8"]
    assert cycles["fp64"] >= cycles["fp32"] >= cycles["fp16"] >= cycles["int8"]
    assert fp16_row_reduction >= 1.2
    assert int8_row_reduction >= 1.5
    assert int8_cycle_reduction >= 1.5
