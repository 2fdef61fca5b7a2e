"""Morton (Z-order) encoding utilities.

The Instant-NeRF algorithm replaces iNGP's prime-XOR spatial hash with a
locality-sensitive hash built on Morton codes (paper Eq. (2)):

    h(x) = (f(x0) + (f(x1) << 1) + (f(x2) << 2)) mod T

where ``f`` is the "separate one by two" bit expansion that inserts two zero
bits between every pair of adjacent bits of its argument (e.g.
``f(0b1011) = 0b1000001001``).  Interleaving the expanded coordinates gives
the Morton code of the 3D vertex, so vertices that are close in 3D space map
to nearby hash-table indices.

The interleave is separable: the code of ``(x0, x1, x2)`` is
``f(x0) | f(x1) << 1 | f(x2) << 2``, and ``f`` of a bounded coordinate can be
read from a table instead of computed.  :func:`_spread_table` keeps one
cached, read-only table of ``f`` over ``0 .. n-1`` (4,096 entries at grid
resolution 2,048), from which the hash of every cube corner is gathered
(:meth:`repro.core.hashing.MortonLocalityHash.corner_hashes`).

All functions in this module are vectorised over NumPy integer arrays so that
millions of vertices can be encoded per call.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

from .sorting import modulo

__all__ = [
    "separate_by_two",
    "compact_by_two",
    "morton_encode_3d",
    "morton_decode_3d",
    "morton_hash",
]

# Maximum number of bits per coordinate that survive the 64-bit interleave.
# 21 bits * 3 coordinates = 63 bits, which fits in an unsigned 64-bit word.
MAX_BITS_PER_COORD = 21
#: The bits of a coordinate that survive the interleave.
COORD_MASK = (1 << MAX_BITS_PER_COORD) - 1

# Magic-number masks for the classic parallel-prefix "part by two" expansion
# of a 21-bit integer into 63 bits (see Real-Time Collision Detection, ch. 7).
_PART_MASKS = (
    (np.uint64(0x1F00000000FFFF), np.uint64(32)),
    (np.uint64(0x1F0000FF0000FF), np.uint64(16)),
    (np.uint64(0x100F00F00F00F00F), np.uint64(8)),
    (np.uint64(0x10C30C30C30C30C3), np.uint64(4)),
    (np.uint64(0x1249249249249249), np.uint64(2)),
)


def separate_by_two(values: NDArray[Any] | int) -> NDArray[Any]:
    """Insert two zero bits between adjacent bits of each value.

    This is the ``f(x)`` function from paper Eq. (2).  Input values must be
    non-negative and fit in :data:`MAX_BITS_PER_COORD` bits; higher bits are
    masked off (matching hardware behaviour where the expansion unit has a
    fixed width).

    Parameters
    ----------
    values:
        Integer scalar or array of non-negative grid coordinates.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of the same shape with bits spread out, i.e. bit
        ``i`` of the input lands at bit ``3*i`` of the output.
    """
    v = np.asarray(values, dtype=np.uint64)
    v = v & np.uint64(COORD_MASK)
    for mask, shift in _PART_MASKS:
        v = (v | (v << shift)) & mask
    return v


def compact_by_two(values: NDArray[Any] | int) -> NDArray[Any]:
    """Inverse of :func:`separate_by_two` (keeps every third bit)."""
    v = np.asarray(values, dtype=np.uint64)
    v = v & np.uint64(0x1249249249249249)
    v = (v ^ (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v ^ (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v ^ (v >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    v = (v ^ (v >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    v = (v ^ (v >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return v


def morton_encode_3d(x0: NDArray[Any], x1: NDArray[Any], x2: NDArray[Any]) -> NDArray[Any]:
    """Interleave three coordinate arrays into 3D Morton codes.

    Bit ``i`` of ``x0`` lands at bit ``3*i``, of ``x1`` at ``3*i + 1`` and of
    ``x2`` at ``3*i + 2`` — exactly the ``f(x0) + (f(x1)<<1) + (f(x2)<<2)``
    combination used by the Instant-NeRF hash before the ``mod T`` step.
    """
    e0 = separate_by_two(x0)
    e1 = separate_by_two(x1)
    e2 = separate_by_two(x2)
    return e0 | (e1 << np.uint64(1)) | (e2 << np.uint64(2))


def morton_decode_3d(codes: NDArray[Any] | int) -> tuple[NDArray[Any], NDArray[Any], NDArray[Any]]:
    """Recover the three coordinates from 3D Morton codes."""
    c = np.asarray(codes, dtype=np.uint64)
    x0 = compact_by_two(c)
    x1 = compact_by_two(c >> np.uint64(1))
    x2 = compact_by_two(c >> np.uint64(2))
    return x0, x1, x2


def morton_hash(coords: NDArray[Any], table_size: int) -> NDArray[Any]:
    """Locality-sensitive hash of integer 3D vertices (paper Eq. (2)).

    Parameters
    ----------
    coords:
        Integer array of shape ``(..., 3)`` with non-negative vertex
        coordinates.
    table_size:
        ``T``, the number of entries per hash-table level.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of shape ``(...,)`` with indices in ``[0, T)``.

    Raises
    ------
    ValueError
        If any coordinate is negative.  A negative coordinate would silently
        wrap to 21 bits of garbage (e.g. ``-1`` -> ``0x1FFFFF``); positive
        overflow keeps the documented hardware-style masking of
        :func:`separate_by_two`.
    """
    if table_size <= 0:
        raise ValueError(f"table_size must be positive, got {table_size}")
    coords = np.asarray(coords)
    if coords.shape[-1] != 3:
        raise ValueError(f"coords must have a trailing dimension of 3, got shape {coords.shape}")
    if np.issubdtype(coords.dtype, np.signedinteger) or np.issubdtype(coords.dtype, np.floating):
        if coords.size and np.any(coords < 0):
            raise ValueError("morton_hash requires non-negative coordinates")
    codes = morton_encode_3d(coords[..., 0], coords[..., 1], coords[..., 2])
    return _mod_table(codes, table_size)


def _mod_table(codes: NDArray[Any], table_size: int) -> NDArray[Any]:
    """``codes % table_size`` as an int64 view of ``codes``, reduced in place.

    ``codes`` is a ``uint64`` array the caller owns and no longer needs; the
    reduction is a mask when ``T`` is a power of two (:func:`modulo`).
    """
    codes = np.asarray(codes)
    modulo(codes, table_size, out=codes)
    return codes.view(np.int64)[()]  # ``[()]``: a 0-d result becomes a scalar


#: ``separate_by_two(arange(n))`` for the largest ``n`` asked of
#: :func:`_spread_table` so far.  Read-only; replaced, never written.
_SPREAD = separate_by_two(np.arange(0))
_SPREAD.flags.writeable = False


def _spread_table(size: int) -> NDArray[Any]:
    """Read-only ``separate_by_two(arange(size))``, a slice of one cached table.

    The cached table grows to the next power of two of at least ``size``
    entries; ``size`` is at most ``2**MAX_BITS_PER_COORD``, one entry per
    coordinate that survives the interleave.  The slice has exactly
    ``size`` entries, so a lookup past it fails whatever the cache holds.
    """
    global _SPREAD
    if size > COORD_MASK + 1:
        raise ValueError(f"spread tables cover 21-bit coordinates, got size {size}")
    table = _SPREAD
    if table.shape[0] < size:
        table = separate_by_two(np.arange(1 << (size - 1).bit_length()))
        table.flags.writeable = False
        _SPREAD = table
    return table[:size]
