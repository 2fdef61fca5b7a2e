"""Observability overhead benchmarks: the zero-overhead-when-disabled gate.

Measurements recorded into ``BENCH_obs.json`` (same trajectory format as the
other ``BENCH_*.json`` files):

* per-call cost of a span on the disabled (null-object) path, measured in a
  tight loop — this is the price every instrumented call site pays when
  tracing is off;
* disabled-instrumentation overhead of the two hot modeled kernels
  (``DRAMSystem.service_batch`` and ``CacheHierarchy.filter_stream``):
  spans-per-invocation (counted by enabling a recording tracer once) times
  the null-span cost, as a fraction of the kernel's wall time.  Gated at
  ``MAX_DISABLED_OVERHEAD`` (2%) in both smoke and full mode, and recorded
  as ``overhead_headroom_speedup`` (higher is better) so ``bench compare``
  flags a creeping disabled path before it ever reaches the gate.

``PERF_SMOKE=1`` shrinks the loop/batch sizes; the overhead gate itself is
a ratio of two wall-clock measurements on the same machine, so it stays on
in smoke mode.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.dram.system import DRAMSystem
from repro.experiments.runner import atomic_write_text
from repro.mem.hierarchy import CacheHierarchy
from repro.streams import RequestStream

SMOKE = os.environ.get("PERF_SMOKE", "") == "1"
NUM_ADDRESSES = 4_096 if SMOKE else 65_536
SPAN_LOOP = 20_000 if SMOKE else 200_000
#: Disabled instrumentation may cost at most this fraction of kernel time.
MAX_DISABLED_OVERHEAD = 0.02
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

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
    """Append this run's measurements to the BENCH_obs.json trajectory."""
    obs.disable()
    yield
    obs.disable()
    if not _RESULTS:
        return
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": SMOKE,
        "num_addresses": NUM_ADDRESSES,
        "span_loop": SPAN_LOOP,
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


def _per_span_seconds(enabled: bool) -> float:
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

    best, _ = _time(loop)
    obs.disable()
    return best / SPAN_LOOP


def _spans_per_invocation(fn) -> int:
    """How many events one kernel invocation emits when tracing is on."""
    tracer, _ = obs.enable(wall_clock=False)
    fn()
    count = len(tracer.drain())
    obs.disable()
    return count


def _gate_kernel(name: str, fn) -> None:
    """Time ``fn`` with obs disabled and gate its disabled-path span cost."""
    obs.disable()
    kernel_s, _ = _time(fn)
    spans = _spans_per_invocation(fn)
    per_span_s = _per_span_seconds(enabled=False)
    overhead = (spans * per_span_s / kernel_s) if kernel_s > 0 else 0.0
    headroom = MAX_DISABLED_OVERHEAD / overhead if overhead > 0 else float("inf")
    _RESULTS[name] = {
        "kernel_s": round(kernel_s, 5),
        "spans_per_invocation": spans,
        "null_span_ns": round(per_span_s * 1e9, 1),
        "disabled_overhead": round(overhead, 8),
        "overhead_headroom_speedup": round(min(headroom, 1e6), 3),
    }
    print(
        f"\n{name}: kernel {kernel_s * 1e3:.2f}ms, {spans} span(s) x "
        f"{per_span_s * 1e9:.0f}ns null -> overhead {overhead * 100:.5f}% "
        f"(gate {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )
    assert overhead <= MAX_DISABLED_OVERHEAD


def test_null_span_is_cheap():
    """The disabled span path is a shared null object: well under a microsecond."""
    disabled_s = _per_span_seconds(enabled=False)
    enabled_s = _per_span_seconds(enabled=True)
    _RESULTS["null_span"] = {
        "disabled_ns": round(disabled_s * 1e9, 1),
        "enabled_ns": round(enabled_s * 1e9, 1),
    }
    print(f"\nspan: disabled {disabled_s * 1e9:.0f}ns, recording {enabled_s * 1e9:.0f}ns")
    # Generous ceiling (slow shared CI machines), still far below any kernel.
    assert disabled_s < 5e-6


def test_dram_service_batch_disabled_overhead():
    rng = np.random.default_rng(0)
    addresses = rng.integers(0, 1 << 28, size=NUM_ADDRESSES, dtype=np.int64)
    # One-byte entries: the stream's addresses are exactly ``addresses``.
    stream = RequestStream(
        indices=addresses.reshape(-1, 1), entry_bytes=1, table_entries=int(addresses.max()) + 1
    )
    dram = DRAMSystem()
    _gate_kernel("dram_service_batch", lambda: dram.service_batch(stream, size_bytes=32))


def test_mem_filter_stream_disabled_overhead():
    rng = np.random.default_rng(1)
    indices = rng.integers(0, 1 << 20, size=NUM_ADDRESSES, dtype=np.int64).reshape(-1, 8)
    stream = RequestStream(
        indices=indices, entry_bytes=4, table_entries=1 << 20, source="bench.obs"
    )
    hierarchy = CacheHierarchy()
    _gate_kernel("mem_filter_stream", lambda: hierarchy.filter_stream(stream))
