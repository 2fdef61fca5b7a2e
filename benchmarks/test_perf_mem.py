"""Memory-hierarchy performance benchmarks: vectorized engines vs oracles.

Each test times one stage of the :mod:`repro.mem` subsystem (and the
composed :class:`~repro.mem.hierarchy.CacheHierarchy`) against the
per-access reference oracle it is equivalence-tested with, asserts a
conservative speedup floor, and records the measured numbers.  On module
teardown the measurements are appended to ``BENCH_mem.json`` at the
repository root so successive runs build a performance trajectory.

Scales follow the paper's training batch: 1024 rays x 64 samples = 64K
points, eight corner lookups each, at the finest hash-grid level.  Setting
``PERF_SMOKE=1`` shrinks the inputs and drops the speedup assertions
(equivalence is still checked) so CI smoke runs stay fast and insensitive
to machine load.
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
from repro.mem import (
    CacheConfig,
    CacheHierarchy,
    PrefetcherConfig,
    plan_prefetches,
    plan_prefetches_reference,
    scratchpad_filter,
    scratchpad_filter_reference,
    simulate_cache,
    simulate_cache_reference,
)
from repro.nerf.encoding import HashGridConfig
from repro.streams import RequestStream
from repro.workloads.traces import TraceConfig, generate_batch_points, level_lookup_indices

SMOKE = os.environ.get("PERF_SMOKE", "") == "1"
NUM_RAYS = 64 if SMOKE else 1024
POINTS_PER_RAY = 16 if SMOKE else 64
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_mem.json"

_RESULTS: dict[str, dict] = {}


def _time(fn, repeats=2):
    """Best-of-``repeats`` wall time and the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _record(name: str, reference_s: float, vectorized_s: float) -> float:
    speedup = reference_s / vectorized_s if vectorized_s > 0 else float("inf")
    _RESULTS[name] = {
        "reference_s": round(reference_s, 4),
        "vectorized_s": round(vectorized_s, 4),
        "speedup": round(speedup, 2),
    }
    print(
        f"\n{name}: reference {reference_s:.3f}s vectorized {vectorized_s:.3f}s "
        f"-> {speedup:.1f}x"
    )
    return speedup


@pytest.fixture(scope="module", autouse=True)
def bench_trajectory():
    """Append this run's measurements to the BENCH_mem.json trajectory."""
    yield
    if not _RESULTS:
        return
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": SMOKE,
        "num_rays": NUM_RAYS,
        "points_per_ray": POINTS_PER_RAY,
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
def finest_level_indices():
    """Corner-lookup indices of the finest level of one training batch."""
    grid = HashGridConfig()  # L=16, T=2**19, paper defaults
    points = generate_batch_points(
        TraceConfig(num_rays=NUM_RAYS, points_per_ray=POINTS_PER_RAY, seed=0)
    ).reshape(-1, 3)
    return level_lookup_indices(points, grid.num_levels - 1, grid, MortonLocalityHash())


def test_cache_simulation_speedup(finest_level_indices):
    """Segmented-wave cache engine (LRU-only waves) vs the per-access state machine."""
    config = CacheConfig(capacity_bytes=64 * 1024, line_bytes=64, ways=4, mshr_latency=4)
    lines = (finest_level_indices.ravel().astype(np.int64) * 4) // config.line_bytes
    simulate_cache(lines, config)  # warm
    vec_s, (out_vec, stats_vec) = _time(lambda: simulate_cache(lines, config))
    ref_s, (out_ref, stats_ref) = _time(lambda: simulate_cache_reference(lines, config), repeats=1)
    np.testing.assert_array_equal(out_vec, out_ref)
    assert stats_vec == stats_ref
    speedup = _record("simulate_cache", ref_s, vec_s)
    if not SMOKE:
        assert speedup >= 8.0


def test_scratchpad_filter_speedup(finest_level_indices):
    """Vectorized L0 reuse-window filter vs the per-point loop."""
    lines = (finest_level_indices.astype(np.int64) * 4) // 64
    scratchpad_filter(lines, 8)  # warm
    vec_s, vec = _time(lambda: scratchpad_filter(lines, 8))
    ref_s, ref = _time(lambda: scratchpad_filter_reference(lines, 8), repeats=1)
    np.testing.assert_array_equal(vec, ref)
    speedup = _record("scratchpad_filter", ref_s, vec_s)
    if not SMOKE:
        assert speedup >= 5.0


def test_prefetch_plan_speedup(finest_level_indices):
    """Vectorized stride-prefetch planning vs the per-access state machine."""
    config = PrefetcherConfig(policy="stride", degree=2)
    lines = (finest_level_indices.ravel().astype(np.int64) * 4) // 64
    plan_prefetches(lines, config)  # warm
    vec_s, (merged_vec, flags_vec) = _time(lambda: plan_prefetches(lines, config))
    ref_s, (merged_ref, flags_ref) = _time(
        lambda: plan_prefetches_reference(lines, config), repeats=1
    )
    np.testing.assert_array_equal(merged_vec, merged_ref)
    np.testing.assert_array_equal(flags_vec, flags_ref)
    speedup = _record("plan_prefetches", ref_s, vec_s)
    if not SMOKE:
        assert speedup >= 5.0


def test_hierarchy_filter_stream_speedup(finest_level_indices):
    """Composed L0 + prefetcher + L1 pipeline vs the oracle composition."""
    hierarchy = CacheHierarchy(
        CacheConfig(capacity_bytes=128 * 1024, line_bytes=64, ways=4, mshr_latency=4),
        PrefetcherConfig(policy="stride"),
    )
    stream = RequestStream(
        indices=finest_level_indices,
        entry_bytes=4,
        table_entries=int(finest_level_indices.max()) + 1,
        source="bench.mem",
    )
    hierarchy.filter_stream(stream)  # warm
    vec_s, fast = _time(lambda: hierarchy.filter_stream(stream))
    ref_s, oracle = _time(lambda: hierarchy.filter_stream_reference(stream), repeats=1)
    np.testing.assert_array_equal(fast.outcomes, oracle.outcomes)
    np.testing.assert_array_equal(fast.dram_lines, oracle.dram_lines)
    assert fast.stats == oracle.stats
    speedup = _record("hierarchy_filter_stream", ref_s, vec_s)
    if not SMOKE:
        assert speedup >= 5.0
