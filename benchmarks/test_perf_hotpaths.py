"""Hot-path performance benchmarks: vectorized engines vs retained loop oracles.

Each test times a vectorized hot path against the loop implementation it
replaced (the loops are kept in the codebase as reference oracles), asserts
the results agree, and records the timings with a conservative speedup
floor into ``BENCH_hotpaths.json`` through the ``bench`` fixture (see
``benchmarks/conftest.py``).

Scales follow the paper: 4096 rays x 64 samples = 256K points per training
iteration over the 16-level / 2**19-entry hash table.  ``PERF_SMOKE=1``
shrinks the inputs; the speedup floors then do not apply, while equivalence
is still checked.

A note on the encoding-backward floor: the historical 5-20x gap between
``np.add.at`` and a bincount segment sum narrowed considerably once numpy
(>= 1.23) gained an indexed-loop fast path for ``ufunc.at``; on numpy 2.x the
honest end-to-end gain is ~3-5x, so the floor is set at 2.5x and the actual
measured ratio is tracked in the JSON trajectory.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SMOKE
from repro.core.hashing import (
    MortonLocalityHash,
    average_row_requests_per_cube,
    average_row_requests_per_cube_reference,
)
from repro.core.mapping import HashTableMapper, HashTableMappingConfig
from repro.core.streaming import row_requests_for_stream, row_requests_for_stream_reference
from repro.dram.system import DRAMSystem
from repro.dram.trace import MemoryRequest
from repro.nerf.encoding import HashGridConfig, HashGridEncoding
from repro.streams import RequestStream
from repro.workloads.traces import HashTraceGenerator, TraceConfig, generate_batch_points

NUM_RAYS = 256 if SMOKE else 4096
POINTS_PER_RAY = 16 if SMOKE else 64  # 4096 x 64 = 256K points/iteration
BENCH_ENTRY = {"num_rays": NUM_RAYS, "points_per_ray": POINTS_PER_RAY}


@pytest.fixture(scope="module")
def paper_grid():
    return HashGridConfig()  # L=16, T=2**19, paper defaults


@pytest.fixture(scope="module")
def paper_points():
    pts = generate_batch_points(
        TraceConfig(num_rays=NUM_RAYS, points_per_ray=POINTS_PER_RAY, seed=0)
    )
    return pts.reshape(-1, 3)


def test_row_requests_for_stream_speedup(bench, paper_grid):
    """Vectorized run-length/row-set accounting vs the per-point loop, all levels.

    Only the counting is timed: the 16 level streams are emitted (hashed)
    before either clock starts.
    """
    generator = HashTraceGenerator(
        paper_grid,
        TraceConfig(num_rays=NUM_RAYS, points_per_ray=POINTS_PER_RAY, seed=0),
        hash_fn=MortonLocalityHash(),
    )
    streams = [generator.stream(level) for level in range(paper_grid.num_levels)]
    row_requests_for_stream(streams[0])  # warm
    vec_s, vec = bench.time(
        lambda: [row_requests_for_stream(stream) for stream in streams], repeats=2
    )
    ref_s, ref = bench.time(
        lambda: [row_requests_for_stream_reference(stream) for stream in streams]
    )
    assert vec == ref
    bench.record_speedup("row_requests_for_stream", ref_s, vec_s, floor=5.0)


def test_count_conflicts_speedup(bench, paper_grid):
    """Lexsort-segmented conflict counting vs the nested group/key loops."""
    generator = HashTraceGenerator(
        paper_grid,
        TraceConfig(num_rays=NUM_RAYS, points_per_ray=POINTS_PER_RAY, seed=0),
        hash_fn=MortonLocalityHash(),
    )
    indices = generator.stream(paper_grid.num_levels - 1).indices.ravel()
    mapper = HashTableMapper(paper_grid, HashTableMappingConfig())
    level = paper_grid.num_levels - 1
    mapper.count_conflicts(level, indices, parallel_points=32)  # warm
    vec_s, vec = bench.time(
        lambda: mapper.count_conflicts(level, indices, parallel_points=32), repeats=2
    )
    ref_s, ref = bench.time(
        lambda: mapper.count_conflicts_reference(level, indices, parallel_points=32)
    )
    assert vec == ref
    bench.record_speedup("count_conflicts", ref_s, vec_s, floor=5.0)


def test_encoding_backward_speedup(bench, paper_grid, paper_points):
    """Bincount segment-sum gradient scatter vs the np.add.at scatter."""
    rng = np.random.default_rng(0)
    enc = HashGridEncoding(paper_grid, rng=rng)
    upstream = rng.normal(size=(paper_points.shape[0], paper_grid.output_dim)).astype(np.float32)
    enc.forward(paper_points)

    def run(backward):
        enc.zero_grad()
        backward(upstream)

    vec_s, _ = bench.time(lambda: run(enc.backward), repeats=2)
    vec_grads = [g.copy() for g in enc.grads]
    ref_s, _ = bench.time(lambda: run(enc.backward_reference))
    for fast, ref in zip(vec_grads, enc.grads):
        np.testing.assert_allclose(fast, ref, atol=1e-4)
    # See the module docstring on the numpy>=1.23 add.at fast path.
    bench.record_speedup("encoding_backward", ref_s, vec_s, floor=2.5)


def test_encoding_forward_fused_not_slower(bench, paper_grid, paper_points):
    """The per-level forward vs the forward_reference oracle, bit-identical.

    Times whole forwards (indices, weights, gather and corner sum) on a
    slice of the batch: full-batch wall times here are dominated by
    allocator page-fault noise for the ~400 MB of per-call cache arrays.
    """
    rng = np.random.default_rng(1)
    enc = HashGridEncoding(paper_grid, rng=rng)
    pts = paper_points[: min(paper_points.shape[0], 65536)]

    enc.forward(pts)  # warm
    enc.forward_reference(pts)  # warm
    vec_s, fast = bench.time(lambda: enc.forward(pts), repeats=2)
    ref_s, reference = bench.time(lambda: enc.forward_reference(pts), repeats=2)
    np.testing.assert_array_equal(fast, reference)
    bench.record_speedup("encoding_forward", ref_s, vec_s, floor=2.5)


def test_average_row_requests_speedup(bench, paper_grid, paper_points):
    """Per-axis sorted distinct-row counting vs the per-cube np.unique loop."""
    res = paper_grid.resolutions[paper_grid.num_levels - 1]
    base = np.clip((paper_points * res).astype(np.int64), 0, res - 1)
    hash_fn = MortonLocalityHash()
    average_row_requests_per_cube(hash_fn, base, paper_grid.table_size)  # warm
    vec_s, vec = bench.time(
        lambda: average_row_requests_per_cube(hash_fn, base, paper_grid.table_size), repeats=2
    )
    ref_s, ref = bench.time(
        lambda: average_row_requests_per_cube_reference(hash_fn, base, paper_grid.table_size)
    )
    assert vec == ref
    bench.record_speedup("average_row_requests_per_cube", ref_s, vec_s, floor=3.0)


def test_dram_service_batch_speedup(bench):
    """The array timing kernel vs the per-request bank state machines."""
    rng = np.random.default_rng(7)
    n = 2000 if SMOKE else 20000
    addresses = (rng.integers(0, 2**27, size=n) * 4).astype(np.int64)
    # The raw addresses as one-byte entries, so the stream's addresses are
    # exactly ``addresses``; built once, outside the timed calls.
    stream = RequestStream(
        indices=addresses.reshape(-1, 1), entry_bytes=1, table_entries=int(addresses.max()) + 1
    )

    def via_objects():
        return DRAMSystem().service_requests([MemoryRequest(int(a)) for a in addresses])

    def via_batch():
        return DRAMSystem().service_batch(stream, size_bytes=32)

    via_batch()  # warm
    vec_s, batch_result = bench.time(via_batch)
    ref_s, object_result = bench.time(via_objects)
    assert batch_result == object_result
    # Random addresses almost never hit an open row, the kernel's worst
    # case: its scalar loop over activations runs about once per request.
    bench.record_speedup("dram_service_batch", ref_s, vec_s, floor=3.0)
