"""Tests for the typed request-stream IR (``repro.streams``).

Covers:

* ``RequestStream`` construction, validation, derived properties and the
  reshape operations (``with_order`` / ``subset`` / ``run_starts``);
* the two NeRF stream emitters (``HashTraceGenerator.stream`` and
  ``SimulationContext.request_stream``) agree field for field, with
  addresses at ``base_address + index * entry_bytes``;
* both front-ends satisfy the ``StreamSource`` protocol, and occupancy
  pruning yields exact IR subsets of the dense stream;
* ``RequestStream`` round-trips through the :class:`ArtifactStore` (npz
  payload with a typed JSON metadata document);
* fig07/fig09 artifacts are byte-identical to values recomputed on freshly
  emitted streams (fig07 with the row-request loop oracle), the row-request
  kernel equals that oracle on arbitrary streams, and the DRAM model
  services a stream exactly like its raw byte addresses;
* a ``run_*`` function and its registered experiment return identical
  results;
* the embedding front-end: determinism, Zipfian skew, bag sorting, and the
  ``fig15_embedding_locality`` experiment that runs the shared analyses on
  embedding traffic with no analysis-code changes.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.nmp import AlgorithmLocality
from repro.core.hashing import MortonLocalityHash, OriginalSpatialHash
from repro.core.mapping import HashTableMapper, HashTableMappingConfig, IntraLevelPolicy
from repro.core.streaming import (
    StreamingOrder,
    row_requests_for_stream,
    row_requests_for_stream_reference,
    stream_register_hit_rate,
    stream_sharing_run_length,
)
from repro.dram.spec import DRAM_SPECS, DRAMOrganization, DRAMSpec, DRAMTiming
from repro.dram.system import DRAMSystem
from repro.dram.trace import MemoryRequest, RequestType
from repro.experiments import run_fig07, run_fig09, run_fig10, run_fig15
from repro.accel.scratchpad import Scratchpad
from repro.mem import CacheConfig, CacheHierarchy, PrefetcherConfig
from repro.nerf.encoding import HashGridConfig
from repro.pipeline import ArtifactStore, SimulationContext
from repro.pipeline.registry import get_experiment
from repro.serve.cost import ServiceCostModel
from repro.streams import (
    RequestStream,
    StreamKind,
    StreamSource,
    iter_streams,
    table_base_address,
)
from repro.workloads.embedding import (
    EmbeddingStreamSource,
    EmbeddingTableLayout,
    EmbeddingTraceConfig,
    zipfian_indices,
)
from repro.workloads.traces import HashTraceGenerator, TraceConfig

GRID = HashGridConfig(num_levels=4)
TRACE = TraceConfig(num_rays=16, points_per_ray=8, seed=3)
EMB = EmbeddingTraceConfig(num_tables=2, table_rows=512, batch_size=32, pooling_factor=4)


def small_stream(**overrides):
    defaults = dict(
        indices=np.arange(12).reshape(3, 4),
        entry_bytes=8,
        table_entries=64,
        group_ids=np.array([0, 0, 1]),
        source="test",
        label="unit",
    )
    defaults.update(overrides)
    return RequestStream(**defaults)


# ------------------------------------------------------------------ the IR
def test_request_stream_properties_and_freezing():
    stream = small_stream()
    assert stream.num_points == 3
    assert stream.accesses_per_point == 4
    assert stream.num_accesses == 12
    assert stream.total_bytes == 12 * 8
    assert stream.kind is StreamKind.GATHER and not stream.writes
    assert not stream.indices.flags.writeable
    assert not stream.group_ids.flags.writeable
    # the constructor copies rather than freezing the caller's array
    mine = np.arange(12).reshape(3, 4)
    RequestStream(indices=mine, entry_bytes=4, table_entries=64)
    assert mine.flags.writeable


def test_request_stream_validation():
    with pytest.raises(ValueError, match=r"\(N, P\)"):
        small_stream(indices=np.arange(4))
    with pytest.raises(ValueError, match="entry_bytes"):
        small_stream(entry_bytes=0)
    with pytest.raises(ValueError, match="table_entries"):
        small_stream(table_entries=0)
    with pytest.raises(ValueError, match="base_address"):
        small_stream(base_address=-1)
    with pytest.raises(ValueError, match=r"indices must lie"):
        small_stream(table_entries=4)
    with pytest.raises(ValueError, match="group_ids"):
        small_stream(group_ids=np.array([0, 1]))


def test_addresses_with_order_subset_and_run_starts():
    stream = small_stream(base_address=1000)
    assert np.array_equal(
        stream.addresses, 1000 + np.arange(12) * 8
    )
    perm = np.array([2, 0, 1])
    reordered = stream.with_order(perm)
    assert np.array_equal(reordered.indices, stream.indices[perm])
    assert np.array_equal(reordered.group_ids, stream.group_ids[perm])
    sub = stream.subset(np.array([True, False, True]))
    assert np.array_equal(sub.indices, stream.indices[[0, 2]])
    assert np.array_equal(sub.group_ids, np.array([0, 1]))
    # runs of equal consecutive group ids charge only their first point
    assert np.array_equal(stream.run_starts(), np.array([True, False, True]))
    assert stream.subset(np.zeros(3, dtype=bool)).num_points == 0
    with pytest.raises(ValueError, match="keep"):
        stream.subset(np.array([True]))


def test_table_base_address_matches_back_to_back_layout():
    layout = EmbeddingTableLayout(num_tables=3, table_rows=100)
    assert table_base_address(layout, 0, 8) == 0
    assert table_base_address(layout, 2, 8) == 2 * 100 * 8
    with pytest.raises(ValueError, match="out of range"):
        table_base_address(layout, 3, 8)


# ------------------------------------------------------------ stream sources
def test_both_front_ends_satisfy_the_stream_source_protocol():
    nerf = HashTraceGenerator(GRID, TRACE, MortonLocalityHash())
    emb = EmbeddingStreamSource(EMB)
    for source, expected in ((nerf, GRID.num_levels), (emb, EMB.num_tables)):
        assert isinstance(source, StreamSource)
        assert source.num_streams == expected
        streams = list(iter_streams(source))
        assert len(streams) == expected
        assert all(isinstance(s, RequestStream) for s in streams)
        assert streams[0].source == source.name


def test_nerf_generator_streams_match_context_request_streams():
    """The two NeRF stream emitters agree on every field but ``source``."""
    ctx = SimulationContext()
    scalar_fields = ("entry_bytes", "table_entries", "base_address", "dtype", "kind", "label")
    traces = (
        TRACE,  # dense, with the default fp16 entries
        dataclasses.replace(TRACE, dtype="fp32"),
        dataclasses.replace(TRACE, scene="lego", occupancy=True),
    )
    for trace in traces:
        for hash_fn in (MortonLocalityHash(), OriginalSpatialHash()):
            gen = HashTraceGenerator(GRID, trace, hash_fn)
            for order in (StreamingOrder.RAY_FIRST, StreamingOrder.RANDOM):
                for level in range(GRID.num_levels):
                    emitted = gen.stream(level, ctx.stream_order(trace, order))
                    memoized = ctx.request_stream(GRID, trace, hash_fn, order, level)
                    assert np.array_equal(emitted.indices, memoized.indices)
                    assert np.array_equal(emitted.group_ids, memoized.group_ids)
                    for attr in scalar_fields:
                        assert getattr(emitted, attr) == getattr(memoized, attr), attr
                    assert np.array_equal(
                        emitted.addresses,
                        emitted.base_address + emitted.indices.ravel() * emitted.entry_bytes,
                    )


def test_pruned_occupancy_streams_are_exact_ir_subsets_of_dense():
    ctx = SimulationContext()
    occ = TraceConfig(num_rays=16, points_per_ray=8, seed=3, scene="lego", occupancy=True)
    hash_fn = MortonLocalityHash()
    for level in (0, GRID.num_levels - 1):
        dense = ctx.request_stream(GRID, occ.dense(), hash_fn, StreamingOrder.RAY_FIRST, level)
        pruned = ctx.request_stream(GRID, occ, hash_fn, StreamingOrder.RAY_FIRST, level)
        mask = ctx.occupancy_mask(occ)
        assert 0 < pruned.num_points < dense.num_points
        assert np.array_equal(pruned.indices, dense.indices[mask])
        assert np.array_equal(pruned.group_ids, dense.group_ids[mask])


# ----------------------------------------------------------- store roundtrip
def test_request_stream_roundtrips_through_the_artifact_store(tmp_path):
    store = ArtifactStore(tmp_path)
    gen = HashTraceGenerator(GRID, TRACE, MortonLocalityHash())
    original = gen.stream(1)
    assert store.put(("k", "stream"), original)
    loaded = ArtifactStore(tmp_path).get(("k", "stream"))
    assert isinstance(loaded, RequestStream)
    assert np.array_equal(loaded.indices, original.indices)
    assert np.array_equal(loaded.group_ids, original.group_ids)
    assert not loaded.indices.flags.writeable
    for attr in ("entry_bytes", "table_entries", "base_address", "kind", "dtype",
                 "source", "label"):
        assert getattr(loaded, attr) == getattr(original, attr), attr
    # a group-less WRITE stream keeps its kind and its None group axis
    bare = RequestStream(
        indices=np.arange(6).reshape(6, 1),
        entry_bytes=2,
        table_entries=8,
        kind=StreamKind.WRITE,
        dtype="int8",
    )
    assert store.put(("k", "bare"), bare)
    reloaded = ArtifactStore(tmp_path).get(("k", "bare"))
    assert reloaded.kind is StreamKind.WRITE and reloaded.writes
    assert reloaded.group_ids is None and reloaded.dtype == "int8"


def test_warm_store_reproduces_fig09_byte_identically(tmp_path):
    kwargs = dict(subarrays="1,4", levels=3, rays=16, points_per_ray=8, scene="")
    cold = get_experiment("fig09").run(SimulationContext(store=ArtifactStore(tmp_path)), **kwargs)
    warm = get_experiment("fig09").run(SimulationContext(store=ArtifactStore(tmp_path)), **kwargs)
    assert cold.to_json() == warm.to_json()


# --------------------------------------------- byte-identity vs legacy paths
def test_fig07_row_requests_match_the_oracle():
    ctx = SimulationContext()
    baseline, optimized = OriginalSpatialHash(), MortonLocalityHash()
    result = run_fig07(GRID, TRACE, context=ctx, baseline_hash=baseline, optimized_hash=optimized)
    random_order = ctx.stream_order(TRACE, StreamingOrder.RANDOM)
    for row in result.rows:
        level = row["level"]
        base_stream = HashTraceGenerator(GRID, TRACE, baseline).stream(level, random_order)
        opt_stream = HashTraceGenerator(GRID, TRACE, optimized).stream(level)
        assert row["baseline_row_requests"] == row_requests_for_stream_reference(base_stream)
        assert row["optimized_row_requests"] == row_requests_for_stream_reference(opt_stream)
        assert row["points_sharing_cube"] == stream_sharing_run_length(opt_stream)
        assert row["register_hit_rate"] == stream_register_hit_rate(opt_stream)


def test_fig09_conflicts_match_the_legacy_level_indices_path():
    ctx = SimulationContext()
    hash_fn = MortonLocalityHash()
    result = run_fig09((1, 4), GRID, TRACE, 16, context=ctx, hash_fn=hash_fn)
    for row in result.rows:
        indices = ctx.level_indices(GRID, TRACE, hash_fn, row["level"]).ravel()
        for subarrays in (1, 4):
            mapper = HashTableMapper(
                GRID,
                HashTableMappingConfig(
                    subarrays_per_bank=subarrays,
                    intra_level_policy=IntraLevelPolicy.SUBARRAY_INTERLEAVED,
                ),
            )
            stats = mapper.count_conflicts(row["level"], indices, parallel_points=16)
            assert row[f"conflicts_{subarrays}sa"] == stats.bank_conflicts


def test_dram_service_batch_accepts_streams_and_matches_addresses():
    gen = HashTraceGenerator(GRID, TRACE, MortonLocalityHash())
    stream = gen.stream(0)
    capacity = DRAMSystem().spec.organization.total_capacity_bytes
    via_stream = DRAMSystem().service_batch(stream, size_bytes=32)
    # The same byte addresses as a one-byte-entry stream of raw addresses.
    addresses = stream.addresses % capacity
    raw = RequestStream(
        indices=addresses.reshape(-1, 1), entry_bytes=1, table_entries=int(addresses.max()) + 1
    )
    via_addresses = DRAMSystem().service_batch(raw, size_bytes=32)
    assert via_stream.total_cycles == via_addresses.total_cycles
    assert via_stream.row_hits == via_addresses.row_hits


# ------------------------------------------------- accounting properties
#: The named specs, plus timings and organizations that stress the DRAM
#: batch kernel: an activation window that binds, no window at all, and
#: channel/bank/subarray counts that are not powers of two, at a
#: power-of-two capacity and at one that is not (24 MiB), which the
#: capacity wrap takes as a remainder rather than a mask.
PROPERTY_DRAM_SPECS = [
    *DRAM_SPECS.values(),
    DRAMSpec(timing=DRAMTiming(tRRD=7, tFAW=40, tCL=1, tRCD=1, tRP=1, tCCD=1)),
    DRAMSpec(timing=DRAMTiming(tRRD=0, tFAW=0)),
    DRAMSpec(
        organization=DRAMOrganization(
            num_channels=3, banks_per_chip=5, subarrays_per_bank=3, total_capacity_bytes=16 << 20
        )
    ),
    DRAMSpec(
        organization=DRAMOrganization(
            num_channels=3, banks_per_chip=5, subarrays_per_bank=3, total_capacity_bytes=24 << 20
        )
    ),
]


#: The serving cost model's hierarchy: 64 KB, 4-way, MSHR 4, stride prefetch.
SERVING_HIERARCHY = ServiceCostModel().hierarchy


@st.composite
def _hierarchies(draw):
    """The serving hierarchy, or a drawn cache and prefetcher behind a
    scratchpad of 1 to 7 lines, so the L0 window's rank bound binds."""
    if draw(st.booleans()):
        return SERVING_HIERARCHY
    line_bytes = draw(st.sampled_from([32, 64]))
    ways = draw(st.sampled_from([1, 2, 4]))
    cache = CacheConfig(
        capacity_bytes=line_bytes * ways * draw(st.sampled_from([1, 2, 3, 8, 12, 64])),
        line_bytes=line_bytes,
        ways=ways,
        mshr_latency=draw(st.integers(min_value=0, max_value=4)),
    )
    return CacheHierarchy(
        cache,
        PrefetcherConfig(draw(st.sampled_from(["none", "next_line", "stride"]))),
        Scratchpad(capacity_bytes=line_bytes * draw(st.integers(min_value=1, max_value=7))),
    )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_points=st.integers(min_value=0, max_value=48),
    per_point=st.integers(min_value=1, max_value=8),
    entry_bytes=st.integers(min_value=1, max_value=64),
    base_address=st.integers(min_value=0, max_value=2**40),
    kind=st.sampled_from([StreamKind.GATHER, StreamKind.WRITE]),
    burst=st.integers(min_value=16, max_value=4096),
    hierarchy=_hierarchies(),
    spec=st.sampled_from(PROPERTY_DRAM_SPECS),
    subarrays_per_bank=st.sampled_from([None, 1, 4, 7]),
    sorted_indices=st.booleans(),
    small_table=st.booleans(),
)
def test_stream_accounting_balances_through_hierarchy_and_dram(
    seed,
    num_points,
    per_point,
    entry_bytes,
    base_address,
    kind,
    burst,
    hierarchy,
    spec,
    subarrays_per_bank,
    sorted_indices,
    small_table,
):
    """Property: on any request stream, the hierarchy and DRAM engines equal
    their per-access oracles and every count they report balances.  Sorted
    indices give row-hit-heavy streams, and tables of at most 64 entries
    give L0 and L1 hits."""
    rng = np.random.default_rng(seed)
    table_entries = int(rng.integers(1, 65 if small_table else 1 << 16))
    indices = rng.integers(0, table_entries, (num_points, per_point))
    if sorted_indices:
        indices = np.sort(indices, axis=None).reshape(indices.shape)
    stream = RequestStream(
        indices=indices,
        entry_bytes=entry_bytes,
        table_entries=table_entries,
        base_address=base_address,
        kind=kind,
    )

    system = DRAMSystem(spec, subarrays_per_bank)
    org = system.spec.organization
    batch = system.service_batch(stream, size_bytes=burst)
    request_type = RequestType.WRITE if stream.writes else RequestType.READ
    oracle = DRAMSystem(spec, subarrays_per_bank).service_requests(
        [
            MemoryRequest(int(a) % org.total_capacity_bytes, request_type, burst)
            for a in stream.addresses
        ]
    )
    assert batch == oracle
    assert batch.row_hits + batch.row_misses == batch.total_requests == stream.num_accesses
    assert batch.bytes_transferred == batch.total_requests * min(burst, org.row_buffer_bytes)

    filtered = hierarchy.filter_stream(stream)
    reference = hierarchy.filter_stream_reference(stream)
    assert filtered.stats == reference.stats
    np.testing.assert_array_equal(filtered.dram_lines, reference.dram_lines)
    stats = filtered.stats
    assert filtered.dram_lines.size == stats.cache.misses + stats.cache.prefetch_fills
    assert stats.l0_hits + stats.cache.demand_accesses == stats.l0_accesses


@settings(max_examples=100, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=6),
    burst=st.integers(min_value=16, max_value=4096),
    spec=st.sampled_from(PROPERTY_DRAM_SPECS),
    subarrays_per_bank=st.sampled_from([None, 1, 4, 7]),
    writes=st.booleans(),
    data=st.data(),
)
def test_service_addresses_time_each_stream_as_if_alone(
    seeds, burst, spec, subarrays_per_bank, writes, data
):
    """Property: one ``service_addresses`` call over the concatenated
    addresses, with a stream id per request, times every stream exactly as
    the per-request oracle times it alone: each stream starts on idle banks
    with empty tRRD/tFAW windows.  A later, larger call changes none of it."""
    system = DRAMSystem(spec, subarrays_per_bank)
    capacity = system.spec.organization.total_capacity_bytes
    streams = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        table_entries = int(rng.integers(1, 65 if data.draw(st.booleans()) else 1 << 16))
        indices = rng.integers(0, table_entries, (data.draw(st.integers(0, 40)), 1))
        if data.draw(st.booleans()):  # row-hit-heavy
            indices = np.sort(indices, axis=None).reshape(indices.shape)
        streams.append(RequestStream(indices, 64, table_entries).addresses % capacity)

    ids = np.repeat(np.arange(len(streams)), [a.size for a in streams])
    addresses = np.concatenate([np.zeros(0, dtype=np.int64), *streams])
    timed = system.service_addresses(addresses, burst, writes, ids, len(streams))
    # A second, larger call on other addresses reuses this thread's scratch
    # pool; a call that read past its own length would see the longer call's
    # leftovers in the next example.
    bigger = np.concatenate([(addresses[::-1] + 4096) % capacity, addresses, [0]])
    bigger_ids = np.arange(bigger.size) // 3
    system.service_addresses(bigger, burst, not writes, bigger_ids, int(bigger_ids[-1]) + 1)
    assert [len(column) for column in timed] == [len(streams)] * 3
    request_type = RequestType.WRITE if writes else RequestType.READ
    for index, stream in enumerate(streams):
        oracle = DRAMSystem(spec, subarrays_per_bank).service_requests(
            [MemoryRequest(int(a), request_type, burst) for a in stream]
        )
        assert [column[index] for column in timed] == [
            oracle.total_cycles,
            oracle.row_hits,
            oracle.bank_conflicts,
        ]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_points=st.integers(min_value=0, max_value=60),
    per_point=st.integers(min_value=1, max_value=8),
    entry_bytes=st.sampled_from([1, 2, 4, 8, 12, 16]),
    row_bytes=st.sampled_from([1, 3, 64, 100, 1024, 3000]),
    grouped=st.booleans(),
)
def test_row_requests_match_the_oracle_on_arbitrary_streams(
    seed, num_points, per_point, entry_bytes, row_bytes, grouped
):
    """Property: the vectorized row-request count equals the per-point loop,
    including rows that hold a non-power-of-two number of entries and rows
    narrower than one entry, which trace-derived streams never produce."""
    rng = np.random.default_rng(seed)
    table_entries = int(rng.integers(1, 1 << 12))
    stream = RequestStream(
        indices=rng.integers(0, table_entries, (num_points, per_point)),
        entry_bytes=entry_bytes,
        table_entries=table_entries,
        # Few distinct groups, so equal neighbours (register hits) are common.
        group_ids=rng.integers(0, 3, num_points) if grouped else None,
    )
    assert row_requests_for_stream(stream, row_bytes) == row_requests_for_stream_reference(
        stream, row_bytes
    )


def test_legacy_run_wrappers_warn_and_return_identical_results():
    direct = run_fig10(num_banks=4)
    registered = get_experiment("fig10").run(num_banks=4)
    assert registered.to_json() == direct.to_json()


# ---------------------------------------------------------------- embeddings
def test_embedding_streams_are_deterministic_and_in_range():
    a = EmbeddingStreamSource(EMB)
    b = EmbeddingStreamSource(EmbeddingTraceConfig(**vars(EMB)))
    for table in range(EMB.num_tables):
        sa, sb = a.stream(table), b.stream(table)
        assert np.array_equal(sa.indices, sb.indices)
        assert np.array_equal(sa.group_ids, sb.group_ids)
        assert sa.indices.shape == (EMB.batch_size, EMB.pooling_factor)
        assert sa.table_entries == EMB.table_rows
        assert sa.base_address == table * EMB.table_rows * EMB.entry_bytes
    assert not np.array_equal(a.stream(0).indices, a.stream(1).indices)


def test_zipfian_keys_are_skewed_toward_low_ranks():
    rng = np.random.default_rng(0)
    draws = zipfian_indices(rng, 1000, 20_000, alpha=1.2)
    assert draws.min() >= 0 and draws.max() < 1000
    # rank 0 must dominate; a uniform draw would put ~20 samples on any row
    assert (draws == 0).sum() > 1000
    uniform_cfg = EmbeddingTraceConfig(**{**vars(EMB), "distribution": "uniform"})
    zipf_unique = len(np.unique(EmbeddingStreamSource(EMB).stream(0).indices))
    uniform_unique = len(np.unique(EmbeddingStreamSource(uniform_cfg).stream(0).indices))
    assert zipf_unique < uniform_unique


def test_embedding_sorted_order_groups_bags_and_never_costs_more_rows():
    skewed = EmbeddingTraceConfig(
        num_tables=1, table_rows=64, batch_size=128, pooling_factor=2, zipf_alpha=1.6
    )
    source = EmbeddingStreamSource(skewed)
    arrival, bagged = source.stream(0, order="arrival"), source.stream(0, order="sorted")
    assert np.all(np.diff(bagged.group_ids) >= 0)
    assert np.array_equal(np.sort(arrival.indices, axis=None), np.sort(bagged.indices, axis=None))
    assert row_requests_for_stream(bagged) <= row_requests_for_stream(arrival)
    assert stream_sharing_run_length(bagged) >= stream_sharing_run_length(arrival)
    assert 0.0 <= stream_register_hit_rate(bagged) <= 1.0


def test_embedding_validation_errors():
    with pytest.raises(ValueError, match="distribution"):
        EmbeddingTraceConfig(distribution="gaussian")
    with pytest.raises(ValueError, match="zipf_alpha"):
        EmbeddingTraceConfig(zipf_alpha=0.0)
    with pytest.raises(ValueError, match="out of range"):
        EmbeddingStreamSource(EMB).stream(EMB.num_tables)
    with pytest.raises(ValueError, match="order"):
        EmbeddingStreamSource(EMB).stream(0, order="shuffled")


def test_algorithm_locality_from_request_stream():
    bagged = EmbeddingStreamSource(EMB).stream(0, order="sorted")
    locality = AlgorithmLocality.from_request_stream(bagged)
    assert locality.row_requests_per_cube > 0
    assert locality.cube_sharing_run_length >= 1.0


# -------------------------------------------------------------------- fig15
def test_fig15_runs_the_shared_analyses_on_embedding_traffic():
    ctx = SimulationContext()
    result = run_fig15(EMB, (1, 4), context=ctx, timing=True)
    assert len(result.rows) == EMB.num_tables
    expected = {
        "table", "bag_sharing_run_length", "register_hit_rate",
        "arrival_row_requests", "sorted_row_requests", "effective_bw_improvement",
        "conflicts_1sa", "conflicts_4sa", "sequential_fraction",
        "l0_hit_rate", "overall_hit_rate", "dram_lines", "traffic_reduction",
        "dram_cycles", "uncached_dram_cycles", "dram_time_reduction",
    }
    assert expected <= set(result.rows[0])
    # zero-analysis-change proof: the row's numbers ARE the shared consumers'
    # outputs on the embedding stream, not an embedding-specific reimplementation
    row_bytes = ctx.dram_spec("lpddr4-2400").organization.row_buffer_bytes
    bagged = ctx.embedding_stream(EMB, 0, order="sorted")
    assert result.rows[0]["sorted_row_requests"] == row_requests_for_stream(bagged, row_bytes)
    assert result.rows[0]["bag_sharing_run_length"] == stream_sharing_run_length(bagged)
    json.loads(result.to_json())  # artifact-serializable


def test_fig15_registered_experiment_end_to_end():
    result = get_experiment("fig15_embedding_locality").run(
        tables=2, table_rows=512, batch=32, pooling=4,
        subarrays="1", timing=False, distribution="uniform",
    )
    assert len(result.rows) == 2
    assert all(row["distribution"] == "uniform" for row in result.rows)
    assert all(row["arrival_row_requests"] >= row["sorted_row_requests"] for row in result.rows)
