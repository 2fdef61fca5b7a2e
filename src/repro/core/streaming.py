"""Point streaming orders (paper Sec. III-B).

iNGP processes the randomly selected pixels of a batch in an arbitrary
order, so consecutive points rarely share a surrounding cube and almost
every lookup misses the accelerator's local registers.  Instant-NeRF instead
streams the points of one ray before moving to the next ray ("ray-first
point streaming order"): neighbouring points along a ray frequently fall in
the same cube at coarse levels (Fig. 7(a)), so their eight embeddings are
already present in the local registers, and at finer levels the cubes are at
least adjacent, which the Morton hash turns into adjacent table entries.

This module provides the two orders, the cube-sharing statistics of
Fig. 7(a) and the effective-memory-bandwidth model of Fig. 7(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..nerf.encoding import HashGridConfig
from ..streams.ir import RequestStream
from .hashing import HashFunction

__all__ = [
    "StreamingOrder",
    "point_order",
    "cube_ids",
    "points_sharing_same_cube",
    "register_hit_rate",
    "memory_requests_for_stream",
    "memory_requests_for_stream_reference",
    "row_requests_for_stream",
    "stream_sharing_run_length",
    "stream_register_hit_rate",
    "effective_bandwidth_improvement",
    "LocalityReport",
]


class StreamingOrder(Enum):
    """How the points of a training batch are streamed into the accelerator."""

    RANDOM = "random"        # iNGP default: random point order
    RAY_FIRST = "ray_first"  # Instant-NeRF: all points of a ray, then the next ray


def point_order(
    num_rays: int,
    points_per_ray: int,
    order: StreamingOrder,
    rng: np.random.Generator | None = None,
) -> NDArray[Any]:
    """Permutation over the flattened ``(num_rays * points_per_ray,)`` point axis.

    Points are assumed to be laid out ray-major (all samples of ray 0, then
    ray 1, ...), which is how :func:`repro.workloads.traces.generate_batch_points`
    produces them.  ``RAY_FIRST`` therefore is the identity permutation and
    ``RANDOM`` is a uniform shuffle.
    """
    if num_rays <= 0 or points_per_ray <= 0:
        raise ValueError("num_rays and points_per_ray must be positive")
    total = num_rays * points_per_ray
    if order is StreamingOrder.RAY_FIRST:
        return np.arange(total, dtype=np.int64)
    rng = rng or np.random.default_rng(0)
    return rng.permutation(total).astype(np.int64)


def cube_ids(points: NDArray[Any], resolution: int) -> NDArray[Any]:
    """Integer id of the cube containing each point at a given resolution.

    This is the NeRF front-end's reuse-group id: consecutive points with the
    same cube id gather identical corner entries, which is exactly what the
    IR's ``group_ids`` field carries downstream.
    """
    pts = np.clip(np.asarray(points, dtype=np.float64).reshape(-1, 3), 0.0, 1.0)
    base = np.clip(np.floor(pts * resolution).astype(np.int64), 0, resolution - 1)
    return base[:, 0] + resolution * (base[:, 1] + resolution * base[:, 2])


def points_sharing_same_cube(
    points: NDArray[Any], resolution: int, order: NDArray[Any] | None = None
) -> float:
    """Average run length of consecutive points that fall in the same cube.

    This is the Fig. 7(a) metric: for the ray-first order at coarse levels a
    dozen or more consecutive points share one cube; after a random shuffle
    the average run length collapses towards 1.
    """
    ids = cube_ids(points, resolution)
    if order is not None:
        ids = ids[order]
    if ids.size == 0:
        return 0.0
    change = np.nonzero(np.diff(ids) != 0)[0]
    num_runs = change.size + 1
    return float(ids.size / num_runs)


def register_hit_rate(
    points: NDArray[Any], resolution: int, order: NDArray[Any] | None = None
) -> float:
    """Fraction of points whose cube embeddings are already in local registers.

    A point "hits" when the previous streamed point used the same cube, so
    its eight embeddings need no new memory request.
    """
    ids = cube_ids(points, resolution)
    if order is not None:
        ids = ids[order]
    if ids.size <= 1:
        return 0.0
    hits = np.sum(np.diff(ids) == 0)
    return float(hits / (ids.size - 1))


def _stream_bases_and_cubes(
    points: NDArray[Any],
    level: int,
    grid_config: HashGridConfig,
    order: NDArray[Any] | None,
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Per-point cube base vertices ``(N, 3)`` and cube ids ``(N,)`` in stream order."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if order is not None:
        pts = pts[order]
    res = grid_config.resolutions[level]
    scaled = np.clip(pts, 0.0, 1.0) * res
    base = np.clip(np.floor(scaled).astype(np.int64), 0, res - 1)
    cube_ids = base[:, 0] + res * (base[:, 1] + res * base[:, 2])
    return base, cube_ids


def _rows_for_bases(
    base: NDArray[Any],
    level: int,
    grid_config: HashGridConfig,
    hash_fn: HashFunction,
    row_bytes: int,
    entry_bytes: int,
) -> NDArray[Any]:
    """DRAM row id of each of the 8 corner lookups per cube base, shape (N, 8)."""
    res = grid_config.resolutions[level]
    table_entries = grid_config.level_table_entries(level)
    entries_per_row = max(1, row_bytes // entry_bytes)
    if grid_config.level_uses_hash(level):
        idx = hash_fn.corner_hashes(base, table_entries)
    else:
        from .hashing import DenseGridIndexer

        idx = DenseGridIndexer(res).corner_hashes(base, table_entries)
    if entries_per_row & (entries_per_row - 1) == 0:
        return idx >> (int(entries_per_row).bit_length() - 1)
    return idx // entries_per_row


def memory_requests_for_stream(
    points: NDArray[Any],
    level: int,
    grid_config: HashGridConfig,
    hash_fn: HashFunction,
    order: NDArray[Any] | None = None,
    row_bytes: int = 1024,
    entry_bytes: int = 4,
) -> int:
    """Number of DRAM row requests needed to stream one level's lookups.

    Points are processed in stream order; a row request is needed whenever a
    cube-corner lookup touches a row that is not already held from the
    previous point (a single-row "register" reuse window, matching the
    row-buffer-sized r0 register of the microarchitecture).  Points whose
    cube is identical to the previous point's cube are register hits and
    need no request at all.

    Vectorized as run-length/row-set accounting: only the first point of each
    same-cube run is charged (so only run starts are even hashed — register
    hits never reach memory), and a run start's cost is the number of
    distinct rows it touches that the previous charged point did not.
    Equivalent to :func:`memory_requests_for_stream_reference` (the retained
    loop oracle).
    """
    base, cube_ids = _stream_bases_and_cubes(points, level, grid_config, order)
    if cube_ids.size == 0:
        return 0
    # Keep only the first point of every run of identical consecutive cubes;
    # the rest are register hits and issue no request (and need no hashing).
    keep = np.ones(cube_ids.size, dtype=bool)
    keep[1:] = np.diff(cube_ids) != 0
    rows = _rows_for_bases(base[keep], level, grid_config, hash_fn, row_bytes, entry_bytes)
    return _count_row_requests(rows)


def _count_row_requests(rows: NDArray[Any]) -> int:
    """Row requests for a stream of per-point row ids ``(M, P)`` (run starts only)."""
    if rows.size == 0:
        return 0
    kept = np.sort(rows, axis=1)  # (M, P), sorted per point
    # First occurrence of each distinct row within a point's P lookups.
    first = np.ones(kept.shape, dtype=bool)
    first[:, 1:] = np.diff(kept, axis=1) != 0
    requests = int(first[0].sum())
    if kept.shape[0] > 1:
        # Rows of point i already held from point i-1: a P-way membership
        # test, accumulated one previous-access column at a time to avoid
        # materializing the full (M, P, P) comparison cube.
        cur, prev = kept[1:], kept[:-1]
        held = cur == prev[:, :1]
        for k in range(1, kept.shape[1]):
            held |= cur == prev[:, k : k + 1]
        requests += int((first[1:] & ~held).sum())
    return requests


def row_requests_for_stream(stream: RequestStream, row_bytes: int = 1024) -> int:
    """DRAM row requests needed to service a :class:`RequestStream`.

    The IR-native form of the row-request accounting shared by every
    front-end: only the reuse-group run starts of the stream are charged
    (the single-point register window — the rest gather from registers),
    and a charged point costs the number of distinct rows it touches that
    the previous charged point did not.  Row ids come from the stream's own
    ``entry_bytes``, so precision flows into row granularity automatically.
    """
    if stream.num_points == 0:
        return 0
    kept = stream.indices[stream.run_starts()]
    entries_per_row = max(1, row_bytes // stream.entry_bytes)
    if entries_per_row & (entries_per_row - 1) == 0:
        rows = kept >> (int(entries_per_row).bit_length() - 1)
    else:
        rows = kept // entries_per_row
    return _count_row_requests(rows)


def stream_sharing_run_length(stream: RequestStream) -> float:
    """Average run length of consecutive points in the same reuse group.

    The IR form of :func:`points_sharing_same_cube`: identical on the NeRF
    front-end (where ``group_ids`` are cube ids) and meaningful for any
    other front-end that marks reuse groups.
    """
    if stream.num_points == 0:
        return 0.0
    return float(stream.num_points / int(stream.run_starts().sum()))


def stream_register_hit_rate(stream: RequestStream) -> float:
    """Fraction of points whose entries are already in local registers.

    The IR form of :func:`register_hit_rate`: a point hits when it belongs
    to the same reuse group as the previous streamed point.
    """
    if stream.num_points <= 1:
        return 0.0
    hits = stream.num_points - int(stream.run_starts().sum())
    return float(hits / (stream.num_points - 1))


def memory_requests_for_stream_reference(
    points: NDArray[Any],
    level: int,
    grid_config: HashGridConfig,
    hash_fn: HashFunction,
    order: NDArray[Any] | None = None,
    row_bytes: int = 1024,
    entry_bytes: int = 4,
) -> int:
    """Per-point loop oracle for :func:`memory_requests_for_stream`.

    Kept as the reference implementation the vectorized path is tested
    against; do not use on paper-scale inputs.  Hashes the expanded corner
    vertices through the hash function's plain ``__call__`` so it stays
    independent of the incremental ``corner_hashes`` specializations used by
    the fast path.
    """
    base, cube_ids = _stream_bases_and_cubes(points, level, grid_config, order)
    res = grid_config.resolutions[level]
    table_entries = grid_config.level_table_entries(level)
    entries_per_row = max(1, row_bytes // entry_bytes)
    offsets = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.int64)
    corners = base[:, None, :] + offsets[None, :, :]
    if grid_config.level_uses_hash(level):
        idx = hash_fn(corners.reshape(-1, 3), table_entries).reshape(-1, 8)
    else:
        from .hashing import DenseGridIndexer

        idx = DenseGridIndexer(res)(corners.reshape(-1, 3), table_entries).reshape(-1, 8)
    rows = idx // entries_per_row
    requests = 0
    previous_rows: set[int] = set()
    previous_cube = None
    for i in range(rows.shape[0]):
        if previous_cube is not None and cube_ids[i] == previous_cube:
            continue  # register hit: embeddings already loaded
        current_rows = set(int(r) for r in rows[i])
        requests += len(current_rows - previous_rows)
        previous_rows = current_rows
        previous_cube = cube_ids[i]
    return requests


@dataclass(frozen=True)
class LocalityReport:
    """Per-level locality comparison between a baseline and Instant-NeRF."""

    level: int
    baseline_requests: int
    optimized_requests: int
    sharing_run_length: float
    register_hit_rate: float

    @property
    def effective_bandwidth_improvement(self) -> float:
        """Fewer row requests for the same useful data = proportionally higher
        effective bandwidth (Fig. 7(b))."""
        if self.optimized_requests == 0:
            return float("inf")
        return self.baseline_requests / self.optimized_requests


def effective_bandwidth_improvement(
    points: NDArray[Any],
    grid_config: HashGridConfig,
    baseline_hash: HashFunction,
    optimized_hash: HashFunction,
    num_rays: int,
    points_per_ray: int,
    rng: np.random.Generator | None = None,
) -> list[LocalityReport]:
    """Fig. 7: per-level locality gain of Morton hashing + ray-first streaming.

    The baseline uses the original hash with a random point order; the
    optimized configuration uses the locality-sensitive hash with the
    ray-first order.  Both stream the *same* sampled points.
    """
    rng = rng or np.random.default_rng(0)
    random_order = point_order(num_rays, points_per_ray, StreamingOrder.RANDOM, rng)
    ray_order = point_order(num_rays, points_per_ray, StreamingOrder.RAY_FIRST)
    reports = []
    for level in range(grid_config.num_levels):
        res = grid_config.resolutions[level]
        baseline = memory_requests_for_stream(
            points, level, grid_config, baseline_hash, random_order
        )
        optimized = memory_requests_for_stream(
            points, level, grid_config, optimized_hash, ray_order
        )
        reports.append(
            LocalityReport(
                level=level,
                baseline_requests=baseline,
                optimized_requests=optimized,
                sharing_run_length=points_sharing_same_cube(points, res, ray_order),
                register_hit_rate=register_hit_rate(points, res, ray_order),
            )
        )
    return reports
