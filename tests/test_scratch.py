"""The per-thread scratch pool of the memory engines (``repro.core.scratch``)."""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.core.scratch import held_bytes, scratch
from repro.dram.system import DRAMSystem
from repro.mem import CacheHierarchy, PrefetcherConfig

ROUNDS = 30


def test_scratch_is_per_thread_grow_only_and_keyed_by_slot_and_dtype():
    seen = {}

    def body():
        seen["empty"] = held_bytes()
        first = scratch(0, 10, np.int64)
        seen["first"] = (first.shape, first.dtype)
        seen["same key"] = np.shares_memory(scratch(0, 5, np.int64), first)
        seen["other slot"] = np.shares_memory(scratch(1, 10, np.int64), first)
        seen["other dtype"] = np.shares_memory(scratch(0, 10, np.int32), first)
        grown = scratch(0, 1000, np.int64)  # replaces the buffer, an eighth longer
        seen["grown"] = np.shares_memory(grown, first)
        seen["room"] = np.shares_memory(scratch(0, 1125, np.int64), grown)
        seen["held"] = held_bytes()

    before = held_bytes()
    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == {
        "empty": 0,
        "first": ((10,), np.dtype(np.int64)),
        "same key": True,
        "other slot": False,
        "other dtype": False,
        "grown": False,
        "room": True,
        "held": 1125 * 8 + 11 * 8 + 11 * 4,
    }
    assert held_bytes() == before  # the calling thread's pool is its own


def _filtered(passed):
    arrays = (passed.demand, passed.merged, passed.is_prefetch, passed.outcomes, passed.dram)
    return [a.tolist() for a in arrays], passed.cache


def test_engines_on_two_threads_equal_their_serial_results():
    """Two threads call both engines in lockstep on different streams, each
    with the pool of its own thread; every result equals the serial one."""
    hierarchy = CacheHierarchy(prefetcher=PrefetcherConfig("stride"))
    system = DRAMSystem()
    capacity = system.spec.organization.total_capacity_bytes
    rng = np.random.default_rng(7)
    inputs = []
    for points, streams in ((1500, 6), (2500, None)):
        lines = np.sort(rng.integers(0, 1 << 14, (points, 8)), axis=None).reshape(points, 8)
        ids = None if streams is None else np.arange(points) * streams // points
        addresses = rng.integers(0, capacity, 3 * points)
        inputs.append((lines, ids, addresses))

    def run(lines, ids, addresses):
        passed = hierarchy.filter_lines(lines, ids, writes=ids is None)
        timed = system.service_addresses(addresses, 64, ids is not None)
        return _filtered(passed), timed

    serial = [run(*args) for args in inputs]
    barrier = threading.Barrier(len(inputs))
    mismatches: list[tuple[int, int]] = []
    done = [0] * len(inputs)

    def worker(index):
        try:
            for round_index in range(ROUNDS):
                barrier.wait(timeout=60)
                if run(*inputs[index]) != serial[index]:
                    mismatches.append((index, round_index))
                done[index] += 1
        except Exception:
            barrier.abort()  # the other thread fails at once instead of timing out
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert done == [ROUNDS] * len(inputs)
    assert mismatches == []
