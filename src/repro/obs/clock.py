"""The single sanctioned wall-clock accessor of the simulation stack.

Lint rule RPR004 confines raw monotonic-timer reads (``time.perf_counter``
and friends) to this module (plus ``benchmarks/``): every other module that
wants real elapsed time — the CLI's "finished in N s" lines, the trainer's
per-iteration timing, the tracer's optional wall timeline — imports
:func:`wall_time` instead of ``time``.  Centralising the call site keeps the
determinism audit trivial (one grep target) and makes it mechanical to
verify that wall time never feeds back into artifact bytes: values produced
here may only be *displayed* or recorded in the observability layer, never
serialized into experiment results.
"""

from __future__ import annotations

import time

__all__ = ["local_timestamp", "wall_time", "wall_time_ns"]


def wall_time() -> float:
    """Monotonic wall-clock seconds (``time.perf_counter``), display-only."""
    return time.perf_counter()


def wall_time_ns() -> int:
    """Monotonic wall-clock nanoseconds, for low-overhead timestamping."""
    return time.perf_counter_ns()


def local_timestamp() -> str:
    """Local date and time to the second, for benchmark trajectory entries."""
    return time.strftime("%Y-%m-%dT%H:%M:%S")
