"""Hash mapping functions for the multi-resolution hash encoding.

iNGP maps integer grid-vertex coordinates to hash-table indices with a
prime-XOR spatial hash; Instant-NeRF replaces it with a locality-sensitive
Morton-code hash (see :mod:`repro.core.morton`).  This module provides a
small class hierarchy so the encoding, the workload-trace generators and the
accelerator model can all be parameterised by the hash function, plus the
locality statistics the paper uses to motivate the change:

* the index-distance breakdown between neighbouring cube vertices (Fig. 6),
* the average number of DRAM row requests needed per 3D cube (the paper's
  1.58 vs 4.02 statistic in Sec. III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Any

import numpy as np
from numpy.typing import NDArray

from .morton import COORD_MASK, _mod_table, _spread_table, morton_hash

__all__ = [
    "HashFunction",
    "OriginalSpatialHash",
    "MortonLocalityHash",
    "DenseGridIndexer",
    "cube_vertex_offsets",
    "cube_vertices",
    "index_distance_breakdown",
    "average_row_requests_per_cube",
    "average_row_requests_per_cube_reference",
    "IndexDistanceStats",
    "DISTANCE_BIN_EDGES",
    "DISTANCE_BIN_LABELS",
    "HASH_FUNCTIONS",
    "get_hash_function",
]

# iNGP's per-dimension hashing primes (the first is 1 so that the x0
# coordinate passes through unchanged, as in the reference implementation).
INGP_PRIMES = (1, 2_654_435_761, 805_459_861)


def cube_vertex_offsets() -> NDArray[Any]:
    """The eight ``(dx, dy, dz)`` corner offsets of a unit cube, shape (8, 3)."""
    offsets = np.array(
        [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)],
        dtype=np.int64,
    )
    return offsets


def cube_vertices(base_coords: NDArray[Any]) -> NDArray[Any]:
    """Expand base (lower-corner) vertices into the 8 cube-corner vertices.

    Parameters
    ----------
    base_coords:
        Integer array of shape ``(N, 3)`` holding the lower corner of each
        cube.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N, 8, 3)``.
    """
    base = np.asarray(base_coords, dtype=np.int64)
    if base.ndim != 2 or base.shape[1] != 3:
        raise ValueError(f"base_coords must have shape (N, 3), got {base.shape}")
    return base[:, None, :] + cube_vertex_offsets()[None, :, :]


class HashFunction:
    """Maps integer 3D vertex coordinates to hash-table indices in ``[0, T)``.

    Hash functions compare and hash by value: two of the same type with
    the same parameters (the primes of a prime-XOR hash, the resolution of
    a dense indexer) are equal.
    """

    #: human-readable name used in experiment tables
    name: str = "abstract"

    def __call__(self, coords: NDArray[Any], table_size: int) -> NDArray[Any]:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash((type(self), tuple(sorted(vars(self).items()))))

    def corner_hashes(self, base_coords: NDArray[Any], table_size: int) -> NDArray[Any]:
        """Table indices of all 8 cube corners per base vertex, shape ``(N, 8)``.

        Semantically identical to expanding :func:`cube_vertices` and calling
        the hash on the flattened corners.  Concrete hashes override this
        with incremental formulations that reuse per-axis work instead of
        re-hashing every corner from scratch (the hot path of the encoding
        forward and of the memory-path traces).  They build the indices
        corner-major, as an ``(8, N)`` array, and return its ``(N, 8)``
        transposed view, so a corner-major consumer (the encoding's
        ``np.take`` gather) reads them without a copy.
        """
        verts = cube_vertices(base_coords)  # (N, 8, 3)
        return self(verts.reshape(-1, 3), table_size).reshape(verts.shape[0], 8)


class OriginalSpatialHash(HashFunction):
    """iNGP's prime-multiplication XOR spatial hash.

    ``h(x) = (x0 * pi_0 XOR x1 * pi_1 XOR x2 * pi_2) mod T`` with the primes
    of the reference implementation.  Neighbouring vertices are scattered
    essentially uniformly over the table, which is exactly the locality
    problem Instant-NeRF addresses.
    """

    name = "ingp-prime-xor"

    def __init__(self, primes: tuple[int, int, int] = INGP_PRIMES):
        self.primes = tuple(int(p) for p in primes)
        if len(self.primes) != 3:
            raise ValueError("exactly three primes are required")

    def __call__(self, coords: NDArray[Any], table_size: int) -> NDArray[Any]:
        coords = np.asarray(coords, dtype=np.uint64)
        if coords.shape[-1] != 3:
            raise ValueError(f"coords must have a trailing dim of 3, got {coords.shape}")
        acc = coords[..., 0] * np.uint64(self.primes[0])
        acc = acc ^ (coords[..., 1] * np.uint64(self.primes[1]))
        acc = acc ^ (coords[..., 2] * np.uint64(self.primes[2]))
        return _mod_table(acc, table_size)

    def corner_hashes(self, base_coords: NDArray[Any], table_size: int) -> NDArray[Any]:
        # (x + dx) * p == x * p + dx * p with uint64 wraparound, so the three
        # per-axis products are computed once and each corner is two XORs.
        base = np.asarray(base_coords, dtype=np.uint64)
        if base.ndim != 2 or base.shape[1] != 3:
            raise ValueError(f"base_coords must have shape (N, 3), got {base.shape}")
        n = base.shape[0]
        primes = np.array(self.primes, dtype=np.uint64)[:, None]
        axes = np.empty((3, 2, n), dtype=np.uint64)  # per axis: x * p, (x + 1) * p
        np.multiply(base.T, primes, out=axes[:, 0])
        np.add(axes[:, 0], primes, out=axes[:, 1])
        codes = np.empty((2, 2, 2, n), dtype=np.uint64)  # corner 4i + 2j + k
        np.bitwise_xor((axes[0][:, None] ^ axes[1][None])[:, :, None], axes[2], out=codes)
        return _mod_table(codes.reshape(8, n), table_size).T


class MortonLocalityHash(HashFunction):
    """Instant-NeRF's locality-sensitive Morton-code hash (paper Eq. (2))."""

    name = "morton-locality"

    def __call__(self, coords: NDArray[Any], table_size: int) -> NDArray[Any]:
        return morton_hash(coords, table_size)

    def corner_hashes(self, base_coords: NDArray[Any], table_size: int) -> NDArray[Any]:
        """Morton indices of the 8 cube corners, gathered from per-axis spread codes.

        The interleave is separable, so corner ``(i, j, k)`` of base vertex
        ``(x, y, z)`` is ``S[x+i] | S[y+j] << 1 | S[z+k] << 2`` with
        ``S = separate_by_two``: six gathers per point from the cached
        spread table of :mod:`repro.core.morton` and twelve word-wide ORs,
        instead of a bit-interleave per corner.  Coordinates keep their low
        21 bits and ``x + 1`` wraps at 21 bits, as in :func:`morton_hash`.
        Returns the ``(N, 8)`` view of corner-major ``(8, N)`` indices.

        Raises
        ------
        ValueError
            If any coordinate is negative (see :func:`morton_hash`).
        """
        if table_size <= 0:
            raise ValueError(f"table_size must be positive, got {table_size}")
        base = np.asarray(base_coords)
        if base.ndim != 2 or base.shape[1] != 3:
            raise ValueError(f"base_coords must have shape (N, 3), got {base.shape}")
        if np.issubdtype(base.dtype, np.signedinteger) or np.issubdtype(base.dtype, np.floating):
            if base.size and base.min() < 0:
                raise ValueError("morton_hash requires non-negative coordinates")
        n = base.shape[0]
        axes = np.empty((3, 2, n), dtype=np.int64)  # per axis: x, x + 1 (21 bits each)
        np.bitwise_and(base.T.astype(np.int64, copy=False), COORD_MASK, out=axes[:, 0])
        np.add(axes[:, 0], 1, out=axes[:, 1])
        np.bitwise_and(axes[:, 1], COORD_MASK, out=axes[:, 1])
        spread = np.take(_spread_table(int(axes.max(initial=0)) + 1), axes)  # (3, 2, n)
        spread[1] <<= np.uint64(1)
        spread[2] <<= np.uint64(2)
        codes = np.empty((2, 2, 2, n), dtype=np.uint64)  # corner 4i + 2j + k
        np.bitwise_or((spread[0][:, None] | spread[1][None])[:, :, None], spread[2], out=codes)
        return _mod_table(codes.reshape(8, n), table_size).T


class DenseGridIndexer(HashFunction):
    """Row-major dense indexing used for coarse levels where the grid fits.

    iNGP only hashes levels whose grid has more vertices than ``T``; coarser
    levels index the table directly.  Both hash functions defer to this
    indexer through :class:`repro.nerf.encoding.HashGridEncoding`.
    """

    name = "dense"

    def __init__(self, resolution: int):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = int(resolution)

    def __call__(self, coords: NDArray[Any], table_size: int) -> NDArray[Any]:
        coords = np.asarray(coords, dtype=np.int64)
        r = self.resolution + 1  # vertices per axis
        idx = coords[..., 0] + r * (coords[..., 1] + r * coords[..., 2])
        return (idx % table_size).astype(np.int64)

    def corner_hashes(self, base_coords: NDArray[Any], table_size: int) -> NDArray[Any]:
        # Row-major indexing is affine, so each corner is the base index plus
        # a constant stride (1, r, or r*r per incremented axis).  Grid levels
        # never index past their dense table, so ``%`` runs only if one does.
        base = np.asarray(base_coords, dtype=np.int64)
        if base.ndim != 2 or base.shape[1] != 3:
            raise ValueError(f"base_coords must have shape (N, 3), got {base.shape}")
        r = self.resolution + 1
        coords = base.T
        linear = coords[0] + r * (coords[1] + r * coords[2])
        strides = cube_vertex_offsets() @ np.array([1, r, r * r], dtype=np.int64)
        idx = linear + strides[:, None]  # (8, N)
        if idx.size and (idx.min() < 0 or idx.max() >= table_size):
            idx %= table_size
        return idx.T


#: Hash-function constructors addressable by name from configuration files,
#: sweep grids and the CLI.  Short names and the instances' own ``name``
#: attributes are both accepted.
HASH_FUNCTIONS: dict[str, type[HashFunction]] = {
    "morton": MortonLocalityHash,
    "original": OriginalSpatialHash,
    MortonLocalityHash.name: MortonLocalityHash,
    OriginalSpatialHash.name: OriginalSpatialHash,
}


def get_hash_function(name: str) -> HashFunction:
    """Instantiate a registered hash function by name (``morton``/``original``)."""
    key = name.strip().lower()
    try:
        return HASH_FUNCTIONS[key]()
    except KeyError:
        known = ", ".join(sorted(HASH_FUNCTIONS))
        raise KeyError(f"unknown hash function {name!r}; available: {known}") from None


# Bin edges used in Fig. 6 of the paper (index distance between two
# neighbouring vertices of one 3D cube).
DISTANCE_BIN_EDGES = (0, 4, 16, 256, 5000)
DISTANCE_BIN_LABELS = ("1~4", "4~16", "16~256", "256~5000", ">5000")


@dataclass
class IndexDistanceStats:
    """Result of :func:`index_distance_breakdown`.

    Attributes
    ----------
    fractions:
        Mapping from a Fig. 6 bin label to the fraction of neighbouring
        vertex pairs whose hash-index distance falls in the bin.
    mean_distance:
        Mean absolute index distance over all neighbouring pairs.
    fraction_leq_16:
        Convenience shortcut: fraction of pairs with distance <= 16.
    fraction_gt_5000:
        Fraction of pairs with distance > 5000.
    """

    fractions: dict[str, float] = field(default_factory=dict)
    mean_distance: float = 0.0
    fraction_leq_16: float = 0.0
    fraction_gt_5000: float = 0.0


def _neighbor_pairs() -> NDArray[Any]:
    """Pairs of cube-corner indices that differ in exactly one coordinate."""
    offsets = cube_vertex_offsets()
    pairs = []
    for a in range(8):
        for b in range(a + 1, 8):
            if np.abs(offsets[a] - offsets[b]).sum() == 1:
                pairs.append((a, b))
    return np.array(pairs, dtype=np.int64)


def index_distance_breakdown(
    hash_fn: HashFunction,
    base_coords: NDArray[Any],
    table_size: int,
) -> IndexDistanceStats:
    """Fig. 6: index-distance breakdown between neighbouring cube vertices.

    For each cube, the 12 pairs of edge-adjacent vertices are hashed and the
    absolute difference of their table indices is histogrammed into the
    paper's five bins.

    Parameters
    ----------
    hash_fn:
        The hash mapping function under study.
    base_coords:
        ``(N, 3)`` lower-corner vertex coordinates of the sampled cubes.
    table_size:
        Number of entries per hash-table level, ``T``.
    """
    verts = cube_vertices(base_coords)  # (N, 8, 3)
    idx = hash_fn(verts.reshape(-1, 3), table_size).reshape(verts.shape[0], 8)
    pairs = _neighbor_pairs()  # (12, 2)
    dist = np.abs(idx[:, pairs[:, 0]] - idx[:, pairs[:, 1]]).ravel().astype(np.float64)
    # Distances of zero (same entry) count in the smallest bin.
    edges = list(DISTANCE_BIN_EDGES) + [np.inf]
    fractions: dict[str, float] = {}
    total = dist.size
    for label, lo, hi in zip(DISTANCE_BIN_LABELS, edges[:-1], edges[1:]):
        if lo == 0:
            mask = dist <= hi
        else:
            mask = (dist > lo) & (dist <= hi)
        fractions[label] = float(mask.sum()) / total
    return IndexDistanceStats(
        fractions=fractions,
        mean_distance=float(dist.mean()),
        fraction_leq_16=float((dist <= 16).mean()),
        fraction_gt_5000=float((dist > 5000).mean()),
    )


def average_row_requests_per_cube(
    hash_fn: HashFunction,
    base_coords: NDArray[Any],
    table_size: int,
    row_bytes: int = 1024,
    entry_bytes: int = 4,
) -> float:
    """Average number of DRAM row requests to fetch one cube's 8 embeddings.

    Memory requests use row-wise granularity (1 KB rows by default) while a
    hash-table entry is only ``entry_bytes`` wide, so the number of requests
    per cube equals the number of *distinct rows* touched by the 8 vertex
    indices.  The paper reports 1.58 requests/cube for the Morton hash vs
    4.02 for the original design (Sec. III-A).
    """
    if row_bytes <= 0 or entry_bytes <= 0:
        raise ValueError("row_bytes and entry_bytes must be positive")
    entries_per_row = max(1, row_bytes // entry_bytes)
    base = np.asarray(base_coords, dtype=np.int64)
    if base.shape[0] == 0:
        return 0.0
    idx = hash_fn.corner_hashes(base, table_size)
    rows = np.sort(idx // entries_per_row, axis=1)
    distinct = 1 + np.count_nonzero(np.diff(rows, axis=1), axis=1)
    return float(distinct.mean())


def average_row_requests_per_cube_reference(
    hash_fn: HashFunction,
    base_coords: NDArray[Any],
    table_size: int,
    row_bytes: int = 1024,
    entry_bytes: int = 4,
) -> float:
    """Per-cube ``np.unique`` loop oracle for :func:`average_row_requests_per_cube`.

    Kept as the reference implementation the vectorized per-axis-sort version
    is tested against; do not use on paper-scale inputs.
    """
    if row_bytes <= 0 or entry_bytes <= 0:
        raise ValueError("row_bytes and entry_bytes must be positive")
    entries_per_row = max(1, row_bytes // entry_bytes)
    verts = cube_vertices(base_coords)
    if verts.shape[0] == 0:
        return 0.0
    idx = hash_fn(verts.reshape(-1, 3), table_size).reshape(verts.shape[0], 8)
    rows = idx // entries_per_row
    unique_counts = np.array([len(np.unique(r)) for r in rows], dtype=np.float64)
    return float(unique_counts.mean())
