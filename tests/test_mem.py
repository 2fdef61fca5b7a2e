"""Tests for the on-chip memory-hierarchy simulator (:mod:`repro.mem`).

The load-bearing guarantees: the vectorized engines are *exactly* equivalent
to their per-access reference oracles (on random streams and on
scene-conditioned corner streams across hash functions), an LRU cache that
holds the working set reaches a 100% steady-state hit rate with zero extra
DRAM traffic, and the L0 scratchpad window reproduces the row-request
accounting of :mod:`repro.core.streaming` at matching granularity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel import NMPAccelerator, Scratchpad
from repro.accel.cost_model import ComparisonModel
from repro.core.hashing import (
    DenseGridIndexer,
    HashFunction,
    MortonLocalityHash,
    get_hash_function,
)
from repro.core.streaming import StreamingOrder, cube_ids, row_requests_for_stream
from repro.gpu import XNX
from repro.mem import (
    COALESCED,
    HIT,
    MISS,
    PREFETCH_FILL,
    CacheConfig,
    CacheHierarchy,
    CacheStats,
    PrefetcherConfig,
    plan_prefetches,
    plan_prefetches_reference,
    scratchpad_filter,
    scratchpad_filter_reference,
    simulate_cache,
    simulate_cache_reference,
)
from repro.nerf.encoding import HashGridConfig
from repro.pipeline.context import SimulationContext
from repro.streams import RequestStream, StreamKind
from repro.workloads.traces import TraceConfig, generate_batch_points, level_lookup_indices


def _gather_stream(indices, kind=StreamKind.GATHER):
    """The (N, P) index array as a 4-byte-entry RequestStream (legacy layout)."""
    return RequestStream(
        indices=indices,
        entry_bytes=4,
        table_entries=int(np.max(indices)) + 1,
        kind=kind,
        source="tests.mem",
    )


# ----------------------------------------------------------- configuration
def test_cache_config_validation():
    CacheConfig()  # defaults are valid
    with pytest.raises(ValueError):
        CacheConfig(line_bytes=48)  # not a power of two
    with pytest.raises(ValueError):
        CacheConfig(ways=0)
    with pytest.raises(ValueError):
        CacheConfig(capacity_bytes=1000, line_bytes=64, ways=4)  # not divisible
    with pytest.raises(ValueError):
        CacheConfig(mshr_latency=-1)
    with pytest.raises(ValueError):
        CacheConfig(access_energy_pj=-0.1)
    full = CacheConfig.fully_associative(4096, line_bytes=64)
    assert full.num_sets == 1 and full.ways == 64


def test_prefetcher_config_validation():
    with pytest.raises(ValueError):
        PrefetcherConfig(policy="belady")
    with pytest.raises(ValueError):
        PrefetcherConfig(degree=0)


def test_scratchpad_invalid_configs_fail_at_construction():
    with pytest.raises(ValueError):
        Scratchpad(capacity_bytes=0)
    with pytest.raises(ValueError):
        Scratchpad(bytes_per_cycle=-1)
    with pytest.raises(ValueError):
        Scratchpad(energy_pj_per_byte=-0.01)
    with pytest.raises(ValueError):
        Scratchpad(area_mm2=-1.0)


def test_scratchpad_filter_requires_positive_capacity():
    with pytest.raises(ValueError):
        scratchpad_filter(np.zeros((2, 8), dtype=np.int64), 0)


# ----------------------------------------------- equivalence: random streams
@pytest.mark.parametrize("mshr", [0, 3])
@pytest.mark.parametrize(
    "capacity,line,ways", [(2048, 64, 1), (4096, 64, 4), (8192, 32, 8), (1024, 64, 16)]
)
def test_cache_matches_reference_on_random_streams(capacity, line, ways, mshr, rng):
    config = CacheConfig(capacity_bytes=capacity, line_bytes=line, ways=ways, mshr_latency=mshr)
    for density in (40, 400, 4000):
        lines = rng.integers(0, density, 600)
        writes = rng.random(600) < 0.3
        prefetches = rng.random(600) < 0.2
        out_vec, stats_vec = simulate_cache(lines, config, writes, prefetches)
        out_ref, stats_ref = simulate_cache_reference(lines, config, writes, prefetches)
        np.testing.assert_array_equal(out_vec, out_ref)
        assert stats_vec == stats_ref


def _flags(draw, n):
    """All-false, all-true or random per-access flags."""
    mode = draw(st.sampled_from(["none", "all", "random"]))
    if mode == "random":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return np.full(n, mode == "all")


@st.composite
def _reuse_heavy_cases(draw):
    """A cache geometry and a stream that re-references few lines.

    Long same-line runs (sorted or repeated streams), LRU order and thrash
    (cycles over ``ways`` or ``ways + 1`` lines of one set), dirty lines
    evicted and filled again, and prefetched lines touched by later demand
    accesses are the cases the engine's residency derivation has to get
    right.
    """
    num_sets = draw(st.sampled_from([1, 2, 8, 64]))
    ways = draw(st.integers(min_value=1, max_value=8))
    line_bytes = draw(st.sampled_from([32, 64]))
    config = CacheConfig(
        capacity_bytes=num_sets * ways * line_bytes,
        line_bytes=line_bytes,
        ways=ways,
        mshr_latency=draw(st.sampled_from([0, 1, 3, 4, 16])),
    )
    pattern = draw(st.sampled_from(["random", "sorted", "repeated", "cyclic"]))
    if pattern == "cyclic":
        # Fill one set, touch its lines again in a drawn order, then cycle
        # through them twice.  With ways + 1 lines every miss evicts by LRU
        # order, which a dropped prefetch in the reordered pass must not move.
        period = draw(st.sampled_from([ways, ways + 1]))
        cycle = list(range(period))
        reorder = draw(st.permutations(cycle))
        lines = np.array(cycle + reorder + 2 * cycle, dtype=np.int64) * num_sets  # all in set 0
    else:
        alphabet = draw(st.integers(min_value=1, max_value=3 * ways + 2))
        spread = draw(st.sampled_from([1, num_sets]))  # many sets, or one
        symbols = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=80))
        lines = np.array(symbols, dtype=np.int64) * spread
        if pattern == "sorted":
            lines = np.sort(lines)
        elif pattern == "repeated":
            lines = np.repeat(lines, draw(st.integers(min_value=2, max_value=4)))
    return config, lines, _flags(draw, lines.size), _flags(draw, lines.size)


@settings(max_examples=200, deadline=None)
@given(_reuse_heavy_cases())
def test_cache_matches_reference_on_reuse_heavy_streams(case):
    """Property: the engine matches the oracle on every outcome and on every
    :class:`CacheStats` field, write-backs and useful prefetches included."""
    config, lines, writes, prefetches = case
    out, stats = simulate_cache(lines, config, writes, prefetches)
    out_ref, stats_ref = simulate_cache_reference(lines, config, writes, prefetches)
    np.testing.assert_array_equal(out, out_ref)
    assert stats == stats_ref


def test_cache_matches_reference_beyond_16_bit_set_keys(rng):
    """More than 65,536 sets: the set sort cannot use 16-bit keys."""
    config = CacheConfig(capacity_bytes=70_000 * 64, line_bytes=64, ways=1, mshr_latency=2)
    low = rng.integers(0, 70_000 - (1 << 16), 100)
    sets = np.concatenate([low, low + (1 << 16)])  # pairs that agree in their low 16 bits
    lines = sets[rng.integers(0, 200, 3_000)] + 70_000 * rng.integers(0, 3, 3_000)
    writes = rng.random(3_000) < 0.3
    out, stats = simulate_cache(lines, config, writes)
    out_ref, stats_ref = simulate_cache_reference(lines, config, writes)
    np.testing.assert_array_equal(out, out_ref)
    assert stats == stats_ref


def test_cache_matches_reference_beyond_16_bit_wave_keys():
    """More than 65,536 runs in one set: the wave sort cannot use 16-bit keys."""
    config = CacheConfig(capacity_bytes=4 * 64, line_bytes=64, ways=4)
    lines = np.arange(66_000) % 5  # five lines cycling through four ways
    out, stats = simulate_cache(lines, config)
    out_ref, stats_ref = simulate_cache_reference(lines, config)
    np.testing.assert_array_equal(out, out_ref)
    assert stats == stats_ref
    assert stats.misses == lines.size  # LRU thrash: every access misses


def test_cache_matches_reference_beyond_32_bit_line_ids(rng):
    """Line ids past 2**31 keep 64-bit tags: lines whose tags agree in their
    low 32 bits are still different lines."""
    config = CacheConfig(capacity_bytes=2 * 2 * 64, line_bytes=64, ways=2, mshr_latency=1)
    lines = rng.integers(0, 6, 500) + (1 << 33) * rng.integers(0, 3, 500)  # tags 2**32 apart
    writes, prefetches = rng.random(500) < 0.3, rng.random(500) < 0.2
    out, stats = simulate_cache(lines, config, writes, prefetches)
    out_ref, stats_ref = simulate_cache_reference(lines, config, writes, prefetches)
    np.testing.assert_array_equal(out, out_ref)
    assert stats == stats_ref
    folded, _ = simulate_cache(lines % (1 << 32), config, writes, prefetches)
    assert not np.array_equal(out, folded)  # the high bits change the outcomes


def test_cache_empty_stream_and_bad_inputs():
    config = CacheConfig()
    out, stats = simulate_cache(np.array([], dtype=np.int64), config)
    assert out.size == 0 and stats == CacheStats(line_bytes=config.line_bytes)
    with pytest.raises(ValueError):
        simulate_cache(np.array([-1]), config)
    with pytest.raises(ValueError):
        simulate_cache(np.array([1, 2]), config, is_write=np.array([True]))


def test_cache_outcome_semantics_are_exact():
    """Hand-checked micro-stream: misses, hits, LRU eviction, writeback."""
    config = CacheConfig(capacity_bytes=256, line_bytes=64, ways=2)  # 2 sets x 2 ways
    # Lines 0, 2, 4 all map to set 0 (line % 2 == 0): 2-way LRU within one set.
    lines = np.array([0, 2, 0, 4, 2, 0])
    writes = np.array([True, False, False, False, False, False])
    out, stats = simulate_cache(lines, config, is_write=writes)
    #                 0:miss 2:miss 0:hit 4:evicts-2 2:evicts-0(dirty) 0:miss
    np.testing.assert_array_equal(out, [MISS, MISS, HIT, MISS, MISS, MISS])
    assert stats.hits == 1 and stats.misses == 5
    assert stats.writebacks == 1  # line 0 was dirty when line 2 reclaimed its way
    assert stats.dram_line_fetches == 5


def test_mshr_coalescing_merges_duplicate_misses():
    config = CacheConfig(capacity_bytes=256, line_bytes=64, ways=2, mshr_latency=2)
    out, stats = simulate_cache(np.array([8, 8, 8, 8]), config)
    # The first access misses; the next two land inside the fill window and
    # coalesce into the outstanding MSHR; the fourth is a plain hit.
    np.testing.assert_array_equal(out, [MISS, COALESCED, COALESCED, HIT])
    assert stats.dram_line_fetches == 1
    assert stats.coalesced == 2


# ------------------------------------------------------ equivalence: scenes
SCENE_CASES = [
    (scene, hash_name)
    for scene in ("lego", "chair")
    for hash_name in ("morton", "original", "dense")
]


@pytest.mark.parametrize("scene,hash_name", SCENE_CASES)
def test_hierarchy_matches_reference_on_scene_streams(scene, hash_name):
    """Exact equivalence on scene-conditioned corner streams: three mapping
    functions (Morton, original iNGP, dense row-major) x two scenes, at a
    dense level, a hashed mid level and the finest level each."""
    grid = HashGridConfig(num_levels=16)
    trace = TraceConfig(num_rays=24, points_per_ray=24, seed=3, scene=scene, probe_samples=12)
    points = generate_batch_points(trace).reshape(-1, 3)
    hierarchy = CacheHierarchy(
        CacheConfig(capacity_bytes=8192, line_bytes=64, ways=4, mshr_latency=4),
        PrefetcherConfig("stride"),
    )
    for level in (0, 9, 15):  # dense level, hashed mid level, finest level
        if hash_name == "dense":
            hash_fn: HashFunction = DenseGridIndexer(int(grid.resolutions[level]))
        else:
            hash_fn = get_hash_function(hash_name)
        indices = level_lookup_indices(points, level, grid, hash_fn)
        stream = _gather_stream(indices)
        fast = hierarchy.filter_stream(stream)
        oracle = hierarchy.filter_stream_reference(stream)
        np.testing.assert_array_equal(fast.outcomes, oracle.outcomes)
        np.testing.assert_array_equal(fast.dram_lines, oracle.dram_lines)
        np.testing.assert_array_equal(fast.demand_lines, oracle.demand_lines)
        assert fast.stats == oracle.stats


def test_hierarchy_write_streams_match_reference(rng):
    hierarchy = CacheHierarchy(CacheConfig(capacity_bytes=2048, line_bytes=64, ways=2))
    indices = rng.integers(0, 64 * 400, 50 * 8).reshape(50, 8)
    stream = _gather_stream(indices, kind=StreamKind.WRITE)
    fast = hierarchy.filter_stream(stream)
    oracle = hierarchy.filter_stream_reference(stream)
    assert fast.stats == oracle.stats
    assert fast.stats.cache.writebacks + fast.stats.cache.dirty_lines_left > 0


# ------------------------------------------- many streams, each as if alone
@st.composite
def _stream_hierarchies(draw):
    """Every prefetch policy at degree 1-3 and MSHR 0-4, in front of a
    cache of 1-8 sets or the default 32 KB one, behind a scratchpad of 1-8
    lines, often fewer than a point's accesses."""
    line_bytes = draw(st.sampled_from([32, 64]))
    mshr = draw(st.integers(min_value=0, max_value=4))
    if draw(st.booleans()):
        ways = draw(st.sampled_from([1, 2, 4]))
        sets = draw(st.sampled_from([1, 2, 8]))
        cache = CacheConfig(line_bytes * ways * sets, line_bytes, ways, mshr)
    else:
        cache = CacheConfig(line_bytes=line_bytes, mshr_latency=mshr)
    prefetcher = PrefetcherConfig(
        draw(st.sampled_from(["none", "next_line", "stride"])),
        draw(st.integers(min_value=1, max_value=3)),
    )
    lines = draw(st.integers(min_value=1, max_value=8))
    return CacheHierarchy(cache, prefetcher, Scratchpad(capacity_bytes=line_bytes * lines))


@st.composite
def _stream_lists(draw):
    """0-6 streams of one point shape and one kind (READ or WRITE) over one
    table, some empty.  Small tables make streams share lines with their
    neighbours, so state carried across a stream boundary would change the
    outcomes."""
    per_point = draw(st.integers(min_value=1, max_value=8))
    entries = draw(st.sampled_from([4, 24, 4096]))
    entry_bytes = draw(st.sampled_from([4, 16]))
    kind = draw(st.sampled_from([StreamKind.READ, StreamKind.WRITE]))
    streams = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        num_points = draw(st.sampled_from([0, 1, 2, 5, 12, 30]))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        indices = rng.integers(0, entries, (num_points, per_point))
        if draw(st.booleans()):  # strided runs, so the stride prefetcher fires
            indices = np.sort(indices, axis=None).reshape(indices.shape)
        streams.append(RequestStream(indices, entry_bytes, entries, kind=kind))
    return per_point, kind, streams


#: Every count of a :class:`CacheStats` (all fields but ``line_bytes``).
CACHE_COUNTS = (
    "demand_accesses",
    "hits",
    "misses",
    "coalesced",
    "prefetch_issued",
    "prefetch_fills",
    "prefetch_redundant",
    "prefetch_useful",
    "writebacks",
    "dirty_lines_left",
)


@settings(max_examples=200, deadline=None)
@given(hierarchy=_stream_hierarchies(), drawn=_stream_lists())
@example(  # lines 0, 1 | 2, 3: a stride across the boundary, none within a stream
    hierarchy=CacheHierarchy(prefetcher=PrefetcherConfig("stride"), scratchpad=Scratchpad(64)),
    drawn=(
        1,
        StreamKind.READ,
        [RequestStream([[0], [4]], 16, 16), RequestStream([[8], [12]], 16, 16)],
    ),
)
def test_filter_lines_filters_each_stream_as_if_alone(hierarchy, drawn):
    """Property: one ``filter_lines`` call over the stacked line matrices,
    with a stream id per point, gives every stream's accesses exactly the
    filtered stream the per-access oracle gives it alone: each stream
    starts with an empty L0 window, no stride history and empty cache sets.
    Its cache counts are the oracle's summed over the streams, and a later,
    larger call changes none of the returned arrays."""
    per_point, kind, streams = drawn
    line_bytes = hierarchy.cache.line_bytes
    lines = np.concatenate(
        [np.zeros((0, per_point), dtype=np.int64)]
        + [(s.addresses // line_bytes).reshape(s.indices.shape) for s in streams]
    )
    ids = np.repeat(np.arange(len(streams)), [s.num_points for s in streams])
    passed = hierarchy.filter_lines(lines, ids, writes=kind is StreamKind.WRITE)
    # A second, larger call on other lines reuses this thread's scratch pool:
    # what the first call returned must not change, and a call that read past
    # its own length would see the longer call's leftovers in the next example.
    bigger = np.concatenate([lines[::-1] + 3, lines, np.full((1, per_point), 7)])
    hierarchy.filter_lines(bigger, np.arange(len(bigger)) // 2, writes=kind is StreamKind.READ)
    oracles = [hierarchy.filter_stream_reference(stream) for stream in streams]
    demand_ids = passed.streams.compress(~passed.is_prefetch)
    for index, oracle in enumerate(oracles):
        mine, dram = passed.streams == index, passed.dram_streams == index
        for actual, expected in [
            (passed.demand[demand_ids == index], oracle.demand_lines),
            (passed.merged[mine], oracle.merged_lines),
            (passed.is_prefetch[mine], oracle.is_prefetch),
            (passed.outcomes[mine], oracle.outcomes),
            (passed.dram[dram], oracle.dram_lines),
        ]:
            np.testing.assert_array_equal(actual, expected)
            assert actual.dtype == expected.dtype
    for name in CACHE_COUNTS:
        assert getattr(passed.cache, name) == sum(
            getattr(o.stats.cache, name) for o in oracles
        ), name


def test_filter_lines_needs_a_line_matrix():
    hierarchy = CacheHierarchy()
    with pytest.raises(ValueError, match=r"\(N, P\)"):
        hierarchy.filter_lines(np.arange(8))
    empty = hierarchy.filter_lines(np.zeros((0, 8), dtype=np.int64))
    assert empty.merged.size == empty.dram.size == empty.cache.demand_accesses == 0


# -------------------------------------------------------------- prefetcher
@st.composite
def _demand_streams(draw):
    """Demand line streams: random walks with repeats, constant strides
    (negative ones too, whose targets cross below line 0, each line
    repeated or not), and empty and one-line streams."""
    kind = draw(st.sampled_from(["walk", "stride", "short"]))
    if kind == "short":
        return np.array(draw(st.lists(st.integers(0, 50), max_size=1)), dtype=np.int64)
    if kind == "walk":
        steps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=120))
        return np.abs(draw(st.integers(0, 20)) + np.cumsum(steps))
    stride = draw(st.integers(-6, 6))
    lines = draw(st.integers(0, 40)) + stride * np.arange(draw(st.integers(2, 40)))
    return np.repeat(lines[lines >= 0], draw(st.integers(1, 3)))


@pytest.mark.parametrize("policy", ["none", "next_line", "stride"])
@pytest.mark.parametrize("degree", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(lines=_demand_streams())
def test_prefetch_plan_matches_reference(policy, degree, lines):
    """Property: merged lines and prefetch flags equal the oracle's, and the
    demand stream passes through unchanged."""
    config = PrefetcherConfig(policy=policy, degree=degree)
    merged, flags = plan_prefetches(lines, config)
    merged_ref, flags_ref = plan_prefetches_reference(lines, config)
    np.testing.assert_array_equal(merged, merged_ref)
    np.testing.assert_array_equal(flags, flags_ref)
    np.testing.assert_array_equal(merged[~flags], lines)


def test_next_line_prefetcher_turns_sequential_misses_into_hits():
    lines = np.arange(512)
    config = CacheConfig(capacity_bytes=4096, line_bytes=64, ways=4)
    _, cold = simulate_cache(lines, config)
    merged, flags = plan_prefetches(lines, PrefetcherConfig("next_line"))
    out, warm = simulate_cache(merged, config, is_prefetch=flags)
    assert cold.hits == 0  # every access is a compulsory miss without prefetch
    assert warm.hits > 0.9 * warm.demand_accesses
    assert warm.prefetch_accuracy > 0.9


def test_stride_prefetcher_detects_constant_stride():
    stride = 7
    lines = np.arange(0, 7 * 300, stride)
    merged, flags = plan_prefetches(lines, PrefetcherConfig("stride"))
    out, stats = simulate_cache(merged, CacheConfig(capacity_bytes=8192), is_prefetch=flags)
    assert stats.hits > 0.9 * stats.demand_accesses
    # A shuffled stream confirms no stride and issues (almost) nothing.
    shuffled = np.random.default_rng(0).permutation(lines)
    merged_s, flags_s = plan_prefetches(shuffled, PrefetcherConfig("stride"))
    assert flags_s.sum() < 0.2 * shuffled.size


# ------------------------------------------------------ L0 scratchpad window
@st.composite
def _scratchpad_cases(draw):
    """``(N, P)`` line ids over a small alphabet, so lines repeat inside a
    point and across consecutive points, offset near 2**40 or not, and a
    capacity from one line to one more than a point holds."""
    p = draw(st.integers(min_value=1, max_value=9))
    n = draw(st.integers(min_value=0, max_value=60))
    alphabet = draw(st.integers(min_value=1, max_value=12))
    ids = draw(st.lists(st.integers(0, alphabet - 1), min_size=n * p, max_size=n * p))
    offset = draw(st.sampled_from([0, 2**40 - 6]))
    lines = offset + np.array(ids, dtype=np.int64).reshape(n, p)
    return lines, draw(st.integers(min_value=1, max_value=p + 1))


@settings(max_examples=300, deadline=None)
@given(_scratchpad_cases())
@example((np.random.default_rng(0).integers(0, 6, (4_100, 8)), 3))  # past two block ends
def test_scratchpad_filter_matches_reference(case):
    """Property: the L0 window mask equals the per-point oracle's."""
    lines, capacity = case
    np.testing.assert_array_equal(
        scratchpad_filter(lines, capacity), scratchpad_filter_reference(lines, capacity)
    )


def test_l0_window_reproduces_row_request_accounting():
    """With row-sized lines and an 8-line scratchpad, the L0-surviving line
    count equals the row-request count of :mod:`repro.core.streaming` — the
    hierarchy generalizes the locality statistic the paper reports."""
    grid = HashGridConfig(num_levels=16)
    points = generate_batch_points(TraceConfig(num_rays=48, points_per_ray=32, seed=0)).reshape(
        -1, 3
    )
    hierarchy = CacheHierarchy(
        CacheConfig(capacity_bytes=4096, line_bytes=1024, ways=4),
        scratchpad=Scratchpad(capacity_bytes=8 * 1024),
    )
    for level in (0, 8, 15):
        indices = level_lookup_indices(points, level, grid, MortonLocalityHash())
        filtered = hierarchy.filter_stream(_gather_stream(indices))
        stream = RequestStream(
            indices=indices,
            entry_bytes=4,
            table_entries=grid.level_table_entries(level),
            group_ids=cube_ids(points, int(grid.resolutions[level])),
            source="tests.mem",
        )
        expected = row_requests_for_stream(stream, row_bytes=1024)
        assert filtered.stats.demand_lines == expected


# -------------------------------------------------- LRU capacity properties
@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=120),
    st.sampled_from([32, 64]),
)
def test_full_working_set_cache_reaches_steady_state_hit_rate_one(line_list, line_bytes):
    """Property: a fully-associative LRU cache sized >= the working set has
    only compulsory misses — a second pass over the stream hits 100% and
    adds zero DRAM traffic."""
    lines = np.array(line_list, dtype=np.int64)
    distinct = np.unique(lines).size
    config = CacheConfig.fully_associative(
        max(1, distinct) * line_bytes * 2, line_bytes=line_bytes
    )
    assert config.ways >= distinct
    twice = np.concatenate([lines, lines])
    out, stats = simulate_cache(twice, config)
    assert stats.dram_line_fetches == distinct  # compulsory misses only
    assert stats.writebacks == 0
    steady = out[lines.size :]
    assert np.all(steady == HIT)  # 100% steady-state hit rate
    out_ref, stats_ref = simulate_cache_reference(twice, config)
    np.testing.assert_array_equal(out, out_ref)
    assert stats == stats_ref


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=400), min_size=8, max_size=160))
def test_larger_caches_never_fetch_more(line_list):
    """Property: growing an LRU cache (same geometry otherwise) never
    increases DRAM line fetches on the same stream (LRU inclusion)."""
    lines = np.array(line_list, dtype=np.int64)
    fetches = [
        simulate_cache(lines, CacheConfig.fully_associative(capacity, line_bytes=32))[
            1
        ].dram_line_fetches
        for capacity in (32 * 4, 32 * 16, 32 * 64, 32 * 512)
    ]
    assert fetches == sorted(fetches, reverse=True)


# ----------------------------------------------------- hierarchy end-to-end
def test_hierarchy_filters_traffic_and_reports_energy():
    grid = HashGridConfig(num_levels=8)
    points = generate_batch_points(TraceConfig(num_rays=64, points_per_ray=32, seed=1)).reshape(
        -1, 3
    )
    indices = level_lookup_indices(points, 7, grid, MortonLocalityHash())
    hierarchy = CacheHierarchy(CacheConfig(capacity_bytes=64 * 1024, ways=4, mshr_latency=4))
    filtered = hierarchy.filter_stream(_gather_stream(indices))
    stats = filtered.stats
    assert stats.l0_accesses == indices.size
    assert 0.0 < stats.l0_hit_rate < 1.0
    assert stats.dram_line_fetches <= stats.demand_lines
    assert stats.traffic_reduction >= 1.0
    assert stats.sram_energy_j > 0
    assert filtered.dram_addresses.size == stats.dram_line_fetches
    assert np.all(filtered.dram_addresses % hierarchy.cache.line_bytes == 0)
    # The DRAM stream is exactly the miss/prefetch-fill subset of the merged stream.
    mask = (filtered.outcomes == MISS) | (filtered.outcomes == PREFETCH_FILL)
    np.testing.assert_array_equal(filtered.merged_lines[mask], filtered.dram_lines)


# -------------------------------------------------------- pipeline context
def test_context_memoizes_filtered_streams():
    ctx = SimulationContext()
    grid = HashGridConfig(num_levels=4)
    trace = TraceConfig(num_rays=16, points_per_ray=16, seed=0)
    stream = ctx.request_stream(grid, trace, MortonLocalityHash(), StreamingOrder.RAY_FIRST, 3)
    hierarchy = CacheHierarchy(CacheConfig(capacity_bytes=16 * 1024))
    first = ctx.stream_filtered(hierarchy, stream)
    hits_before = ctx.stats.hits
    # An equal-but-distinct hierarchy object must hit the same cache entry.
    same = CacheHierarchy(CacheConfig(capacity_bytes=16 * 1024))
    second = ctx.stream_filtered(same, stream)
    assert second is first
    assert ctx.stats.hits == hits_before + 1
    # A different geometry computes a fresh stream.
    other = CacheHierarchy(CacheConfig(capacity_bytes=32 * 1024))
    third = ctx.stream_filtered(other, stream)
    assert third is not first


def test_context_hierarchy_serviced_batch_reduces_requests():
    ctx = SimulationContext()
    grid = HashGridConfig(num_levels=4)
    trace = TraceConfig(num_rays=32, points_per_ray=16, seed=0)
    hierarchy = CacheHierarchy(CacheConfig(capacity_bytes=256 * 1024, mshr_latency=4))
    stream = ctx.request_stream(grid, trace, MortonLocalityHash(), StreamingOrder.RAY_FIRST, 3)
    filtered = ctx.stream_filtered(hierarchy, stream)
    line_bytes = hierarchy.cache.line_bytes
    cached = ctx.stream_serviced("lpddr4-2400", filtered.dram_stream(), size_bytes=line_bytes)
    baseline = ctx.stream_serviced("lpddr4-2400", filtered.demand_stream(), size_bytes=line_bytes)
    assert cached["total_requests"] <= baseline["total_requests"]
    assert cached["total_requests"] == filtered.stats.dram_line_fetches


# ------------------------------------------------------- accelerator model
def _measured_stats():
    grid = HashGridConfig(num_levels=8)
    points = generate_batch_points(TraceConfig(num_rays=32, points_per_ray=32, seed=0)).reshape(
        -1, 3
    )
    indices = level_lookup_indices(points, 7, grid, MortonLocalityHash())
    hierarchy = CacheHierarchy(CacheConfig(capacity_bytes=512 * 1024, ways=8, mshr_latency=4))
    return hierarchy.filter_stream(_gather_stream(indices)).stats


def test_nmp_accelerator_consumes_hierarchy_stats():
    stats = _measured_stats()
    assert stats.dram_traffic_fraction < 1.0
    base = NMPAccelerator()
    cached = NMPAccelerator(cache_stats=stats)
    # Fewer row accesses reach the banks, so HT steps get faster...
    assert cached.step_cost("HT").memory_seconds < base.step_cost("HT").memory_seconds
    assert cached.scene_training_seconds() < base.scene_training_seconds()
    # ...while the HT energy now includes the SRAM lookup energy.
    assert cached._hash_sram_energy_j() > 0


def test_comparison_model_memory_system_summary():
    base = ComparisonModel(NMPAccelerator(), XNX).memory_system_summary()
    assert base["cache_modelled"] is False and "l0_hit_rate" not in base
    stats = _measured_stats()
    summary = ComparisonModel(NMPAccelerator(cache_stats=stats), XNX).memory_system_summary()
    assert summary["cache_modelled"] is True
    assert 0.0 < summary["overall_hit_rate"] <= 1.0
    assert summary["dram_traffic_fraction"] == pytest.approx(stats.dram_traffic_fraction)
    assert summary["sram_energy_j_per_iteration"] > 0
    assert 0.0 < summary["sram_energy_fraction"] < 1.0


# ------------------------------------------------------------- experiment
def test_fig12_experiment_reports_traffic_reduction():
    from repro.experiments import run_fig12

    ctx = SimulationContext()
    grid = HashGridConfig(num_levels=6)
    trace = TraceConfig(num_rays=32, points_per_ray=32, seed=0)
    result = run_fig12(grid, trace, (16, 256), context=ctx, timing=True)
    assert [row["cache_kb"] for row in result.rows] == [16, 256]
    for row in result.rows:
        assert 0.0 <= row["cache_hit_rate"] <= 1.0
        assert row["dram_lines"] > 0 and row["uncached_dram_lines"] > 0
        assert row["traffic_reduction"] == pytest.approx(
            row["uncached_dram_lines"] / row["dram_lines"]
        )
        assert row["dram_cycles"] > 0 and row["uncached_dram_cycles"] > 0
    # Larger caches keep more lines on chip.
    assert result.rows[1]["dram_lines"] <= result.rows[0]["dram_lines"]
    # The baseline DRAM simulation is shared between the two cache sizes:
    # both sizes service the same demand-line stream, so one entry serves both.
    demand_runs = sum(
        1
        for key in ctx._cache
        if isinstance(key, tuple)
        and key[0] == "stream_serviced"
        and dict(key[2][1])["label"] == "demand"
    )
    assert demand_runs == 1
    with pytest.raises(ValueError):
        run_fig12(grid, trace, (), context=ctx)
