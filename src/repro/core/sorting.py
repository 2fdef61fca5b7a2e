"""Stable argsort of small non-negative integer keys.

The array engines (:mod:`repro.mem.cache`, :mod:`repro.dram.system`) group
requests by set, line, bank or wave with stable sorts whose keys lie in a
known range.  Keys that fit 16 bits go through numpy's radix sort, ~10x
faster than the merge sort it uses for int64.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = ["stable_order"]


def _argsort(keys: NDArray[Any], bound: int) -> NDArray[np.intp]:
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def stable_order(
    keys: NDArray[Any],
    bound: int,
    streams: NDArray[Any] | None = None,
    num_streams: int = 1,
) -> NDArray[np.intp]:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, bound)``.

    With ``streams`` (one id in ``[0, num_streams)`` per key) the order is by
    stream, then key, then position: a sort by the key and then a stable
    sort by the stream, so both stay 16-bit when ``bound`` and
    ``num_streams`` each fit, however large their product.  (One sort of
    the combined key, where the pairs fit 16 bits, measured no faster.)
    """
    order = _argsort(keys, bound)
    if streams is None:
        return order
    return order[_argsort(streams[order], num_streams)]
