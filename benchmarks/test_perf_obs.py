"""Observability overhead benchmarks: the zero-overhead-when-disabled gate.

Measurements recorded into ``BENCH_obs.json`` through the ``bench`` fixture
(see ``benchmarks/conftest.py``):

* per-call cost of a span on the disabled (null-object) path, measured in a
  tight loop — this is the price every instrumented call site pays when
  tracing is off;
* disabled-instrumentation overhead of the two hot modeled kernels
  (``DRAMSystem.service_batch`` and ``CacheHierarchy.filter_stream``):
  spans-per-invocation (counted by enabling a recording tracer once) times
  the null-span cost, as a fraction of the kernel's wall time.  Bounded at
  ``MAX_DISABLED_OVERHEAD`` (2%), and recorded as
  ``overhead_headroom_speedup`` (higher is better) so ``bench compare``
  flags a creeping disabled path before it ever reaches the bound.

``PERF_SMOKE=1`` shrinks the loop/batch sizes.  All three bounds apply at
smoke scale too: the overhead bounds are ratios of two wall-clock
measurements on the same machine, and the null-span ceiling is generous.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SMOKE
from repro import obs
from repro.dram.system import DRAMSystem
from repro.mem.hierarchy import CacheHierarchy
from repro.streams import RequestStream

NUM_ADDRESSES = 4_096 if SMOKE else 65_536
SPAN_LOOP = 20_000 if SMOKE else 200_000
#: Disabled instrumentation may cost at most this fraction of kernel time.
MAX_DISABLED_OVERHEAD = 0.02
BENCH_ENTRY = {"num_addresses": NUM_ADDRESSES, "span_loop": SPAN_LOOP}


@pytest.fixture(scope="module", autouse=True)
def tracing_off():
    """The suite starts and ends with tracing disabled."""
    obs.disable()
    yield
    obs.disable()


def _per_span_seconds(bench, enabled: bool) -> float:
    """Best-of per-call cost of opening+closing one span."""
    if enabled:
        tracer, _ = obs.enable(wall_clock=False)
    else:
        obs.disable()
        tracer = obs.get_tracer()

    def loop():
        for _ in range(SPAN_LOOP):
            with tracer.span("bench.noop", "pipeline"):
                pass
        if enabled:
            tracer.drain()  # keep the event list from growing across repeats

    best, _ = bench.time(loop, repeats=3)
    obs.disable()
    return best / SPAN_LOOP


def _spans_per_invocation(fn) -> int:
    """How many events one kernel invocation emits when tracing is on."""
    tracer, _ = obs.enable(wall_clock=False)
    fn()
    count = len(tracer.drain())
    obs.disable()
    return count


def _record_kernel(bench, name: str, fn) -> None:
    """Time ``fn`` with obs disabled and bound its disabled-path span cost."""
    obs.disable()
    kernel_s, _ = bench.time(fn, repeats=3)
    spans = _spans_per_invocation(fn)
    per_span_s = _per_span_seconds(bench, enabled=False)
    overhead = (spans * per_span_s / kernel_s) if kernel_s > 0 else 0.0
    headroom = MAX_DISABLED_OVERHEAD / overhead if overhead > 0 else float("inf")
    bench.record(
        name,
        {
            "kernel_s": kernel_s,
            "spans_per_invocation": spans,
            "null_span_ns": per_span_s * 1e9,
            "disabled_overhead": overhead,
            "overhead_headroom_speedup": min(headroom, 1e6),
        },
        {"disabled_overhead": ("<=", MAX_DISABLED_OVERHEAD)},
        at_smoke=True,
    )


def test_null_span_is_cheap(bench):
    """The disabled span path is a shared null object: well under a microsecond."""
    disabled_s = _per_span_seconds(bench, enabled=False)
    enabled_s = _per_span_seconds(bench, enabled=True)
    # Generous ceiling (slow shared CI machines), still far below any kernel.
    bench.record(
        "null_span",
        {"disabled_ns": disabled_s * 1e9, "enabled_ns": enabled_s * 1e9},
        {"disabled_ns": ("<", 5000.0)},
        at_smoke=True,
    )


def test_dram_service_batch_disabled_overhead(bench):
    rng = np.random.default_rng(0)
    addresses = rng.integers(0, 1 << 28, size=NUM_ADDRESSES, dtype=np.int64)
    # One-byte entries: the stream's addresses are exactly ``addresses``.
    stream = RequestStream(
        indices=addresses.reshape(-1, 1), entry_bytes=1, table_entries=int(addresses.max()) + 1
    )
    dram = DRAMSystem()
    _record_kernel(bench, "dram_service_batch", lambda: dram.service_batch(stream, size_bytes=32))


def test_mem_filter_stream_disabled_overhead(bench):
    rng = np.random.default_rng(1)
    indices = rng.integers(0, 1 << 20, size=NUM_ADDRESSES, dtype=np.int64).reshape(-1, 8)
    stream = RequestStream(
        indices=indices, entry_bytes=4, table_entries=1 << 20, source="bench.obs"
    )
    hierarchy = CacheHierarchy()
    _record_kernel(bench, "mem_filter_stream", lambda: hierarchy.filter_stream(stream))
