"""Host-speed calibration: a fixed CPU kernel timed between chunks of ops.

The 2-CPU hosts this benchmark runs on change speed by up to ~1.5x for
seconds to minutes at a time (other tenants, frequency changes), and all
host code slows with it, by amounts that depend on the kind of code.  A
fixed kernel that shares nothing with
the repository, timed between chunks of ops, measures that speed: its
median time over the reference time is the *host factor*.  Reported times
are raw wall times divided by the factor of the chunk they ran in, i.e.
wall time on a host where the kernel takes ``REFERENCE_S``.  A change to
the program moves them; a change of host speed does not.

The kernel is many small numpy calls driven from a Python loop plus two
sorts of a cache-resident array, the mix the workloads themselves are made
of.  Among the kernels tried (a 16 MiB gather, a sort, a pure-Python loop,
a Python object-update loop, small matmuls in a Python loop) this mix
tracked all four workloads best: over 150 s on a 2-CPU host whose speed
switched between two states, the quartile spread of 3-second chunk
medians fell from 0.36-0.60 raw to 0.06-0.09 divided by the kernel time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time, in seconds, on the host the benchmark was tuned on.
REFERENCE_S = 0.0018
#: Kernel repetitions per calibration; their median is the sample.
REPS = 7


class Calibrator:
    """Times the calibration kernel; inputs are fixed, not seeded per run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._keys = rng.random(2**16)
        self._rows = rng.random((208, 64)).astype(np.float32)
        self._weights = rng.random((64, 64)).astype(np.float32)
        self.factor()  # first calls warm caches and allocator before any sample counts

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(2):
            total += float(np.sort(self._keys)[0])
        for i in range(200):
            total += float((self._rows[i : i + 8] @ self._weights).sum())
        return total

    def factor(self) -> float:
        """Current host factor: kernel time over ``REFERENCE_S`` (>1 is slower)."""
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times) / REFERENCE_S
