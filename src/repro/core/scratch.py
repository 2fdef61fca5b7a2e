"""Per-thread scratch buffers that outlive a call.

The memory engines (:meth:`repro.dram.system.DRAMSystem._time_batch` and
:func:`repro.mem.cache.simulate_cache`) write their stream-length
temporaries into buffers that stay allocated between calls, so a loop of
calls reuses its pages instead of faulting in fresh ones on every call.

Each thread has its own pool; nothing in it is shared between threads.  A
buffer is looked up by slot and dtype, and only grows, sized by the calls
it serves.  The engines never nest on one thread, so each numbers its slots
from 0 and they share them: the pool holds about one call's scratch, not
the sum over engines.  A view from :func:`scratch` is valid until the next
request for the same slot and dtype on the same thread, so an engine must
copy out anything it returns.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np
from numpy.typing import DTypeLike, NDArray

__all__ = ["scratch", "held_bytes"]

_pool = threading.local()


def _buffers() -> dict[tuple[int, np.dtype[Any]], NDArray[Any]]:
    buffers = getattr(_pool, "buffers", None)
    if buffers is None:
        buffers = _pool.buffers = {}
    return buffers


def scratch(slot: int, n: int, dtype: DTypeLike) -> NDArray[Any]:
    """An uninitialised length-``n`` view of this thread's buffer for ``(slot, dtype)``.

    A buffer that is too short is replaced by one with an eighth more room,
    so lengths that vary a little from call to call stop reallocating.
    """
    buffers = _buffers()
    key = (slot, np.dtype(dtype))
    buffer = buffers.get(key)
    if buffer is None or buffer.size < n:
        buffer = buffers[key] = np.empty(n + n // 8, dtype)
    return buffer[:n]


def held_bytes() -> int:
    """Bytes this thread's pool holds."""
    return sum(buffer.nbytes for buffer in _buffers().values())
