"""Memory-hierarchy performance benchmarks: vectorized engines vs oracles.

Each test times one stage of the :mod:`repro.mem` subsystem (and the
composed :class:`~repro.mem.hierarchy.CacheHierarchy`) against the
per-access reference oracle it is equivalence-tested with, and records the
timings with a conservative speedup floor into ``BENCH_mem.json`` through
the ``bench`` fixture (see ``benchmarks/conftest.py``).

Scales follow the paper's training batch: 1024 rays x 64 samples = 64K
points, eight corner lookups each, at the finest hash-grid level.
``PERF_SMOKE=1`` shrinks the inputs; the speedup floors then do not apply,
while equivalence is still checked.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SMOKE
from repro.core.hashing import MortonLocalityHash
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

NUM_RAYS = 64 if SMOKE else 1024
POINTS_PER_RAY = 16 if SMOKE else 64
BENCH_ENTRY = {"num_rays": NUM_RAYS, "points_per_ray": POINTS_PER_RAY}


@pytest.fixture(scope="module")
def finest_level_indices():
    """Corner-lookup indices of the finest level of one training batch."""
    grid = HashGridConfig()  # L=16, T=2**19, paper defaults
    points = generate_batch_points(
        TraceConfig(num_rays=NUM_RAYS, points_per_ray=POINTS_PER_RAY, seed=0)
    ).reshape(-1, 3)
    return level_lookup_indices(points, grid.num_levels - 1, grid, MortonLocalityHash())


def test_cache_simulation_speedup(bench, finest_level_indices):
    """Cache engine on a prefetch-free stream (its stack-distance path) vs the
    per-access state machine."""
    config = CacheConfig(capacity_bytes=64 * 1024, line_bytes=64, ways=4, mshr_latency=4)
    lines = (finest_level_indices.ravel().astype(np.int64) * 4) // config.line_bytes
    simulate_cache(lines, config)  # warm
    vec_s, (out_vec, stats_vec) = bench.time(lambda: simulate_cache(lines, config), repeats=2)
    ref_s, (out_ref, stats_ref) = bench.time(lambda: simulate_cache_reference(lines, config))
    np.testing.assert_array_equal(out_vec, out_ref)
    assert stats_vec == stats_ref
    bench.record_speedup("simulate_cache", ref_s, vec_s, floor=8.0)


def test_scratchpad_filter_speedup(bench, finest_level_indices):
    """Vectorized L0 reuse-window filter vs the per-point loop."""
    lines = (finest_level_indices.astype(np.int64) * 4) // 64
    scratchpad_filter(lines, 8)  # warm
    vec_s, vec = bench.time(lambda: scratchpad_filter(lines, 8), repeats=2)
    ref_s, ref = bench.time(lambda: scratchpad_filter_reference(lines, 8))
    np.testing.assert_array_equal(vec, ref)
    bench.record_speedup("scratchpad_filter", ref_s, vec_s, floor=5.0)


def test_prefetch_plan_speedup(bench, finest_level_indices):
    """Vectorized stride-prefetch planning vs the per-access state machine."""
    config = PrefetcherConfig(policy="stride", degree=2)
    lines = (finest_level_indices.ravel().astype(np.int64) * 4) // 64
    plan_prefetches(lines, config)  # warm
    vec_s, (merged_vec, flags_vec) = bench.time(lambda: plan_prefetches(lines, config), repeats=2)
    ref_s, (merged_ref, flags_ref) = bench.time(lambda: plan_prefetches_reference(lines, config))
    np.testing.assert_array_equal(merged_vec, merged_ref)
    np.testing.assert_array_equal(flags_vec, flags_ref)
    bench.record_speedup("plan_prefetches", ref_s, vec_s, floor=5.0)


def test_hierarchy_filter_stream_speedup(bench, finest_level_indices):
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
    vec_s, fast = bench.time(lambda: hierarchy.filter_stream(stream), repeats=2)
    ref_s, oracle = bench.time(lambda: hierarchy.filter_stream_reference(stream))
    np.testing.assert_array_equal(fast.outcomes, oracle.outcomes)
    np.testing.assert_array_equal(fast.dram_lines, oracle.dram_lines)
    assert fast.stats == oracle.stats
    bench.record_speedup("hierarchy_filter_stream", ref_s, vec_s, floor=5.0)
