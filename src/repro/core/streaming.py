"""Point streaming orders (paper Sec. III-B).

iNGP processes the randomly selected pixels of a batch in an arbitrary
order, so consecutive points rarely share a surrounding cube and almost
every lookup misses the accelerator's local registers.  Instant-NeRF instead
streams the points of one ray before moving to the next ray ("ray-first
point streaming order"): neighbouring points along a ray frequently fall in
the same cube at coarse levels (Fig. 7(a)), so their eight embeddings are
already present in the local registers, and at finer levels the cubes are at
least adjacent, which the Morton hash turns into adjacent table entries.

This module provides the two orders and the locality statistics of a
:class:`~repro.streams.RequestStream`: the cube-sharing run length and
register hit rate of Fig. 7(a), and the DRAM row requests whose baseline /
optimized ratio is the effective-bandwidth improvement of Fig. 7(b) (see
:class:`LocalityReport`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..streams.ir import RequestStream

__all__ = [
    "StreamingOrder",
    "point_order",
    "cube_ids",
    "row_requests_for_stream",
    "row_requests_for_stream_reference",
    "stream_sharing_run_length",
    "stream_register_hit_rate",
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


def row_requests_for_stream(stream: RequestStream, row_bytes: int = 1024) -> int:
    """DRAM row requests needed to service a :class:`RequestStream`.

    The row-request accounting shared by every front-end: only the
    reuse-group run starts of the stream are charged (the single-point
    register window — the rest gather from registers), and a charged point
    costs the number of distinct rows it touches that the previous charged
    point did not.  Row ids come from the stream's own ``entry_bytes``, so
    precision flows into row granularity automatically.  Equivalent to
    :func:`row_requests_for_stream_reference`, the retained loop oracle.
    """
    if stream.num_points == 0:
        return 0
    kept = stream.indices[stream.run_starts()]
    entries_per_row = max(1, row_bytes // stream.entry_bytes)
    if entries_per_row & (entries_per_row - 1) == 0:
        rows = kept >> (int(entries_per_row).bit_length() - 1)
    else:
        rows = kept // entries_per_row
    rows = np.sort(rows, axis=1)  # (M, P), sorted per charged point
    # First occurrence of each distinct row within a point's P lookups.
    first = np.ones(rows.shape, dtype=bool)
    first[:, 1:] = np.diff(rows, axis=1) != 0
    requests = int(first[0].sum())
    if rows.shape[0] > 1:
        # Rows of point i already held from point i-1: a P-way membership
        # test, accumulated one previous-access column at a time to avoid
        # materializing the full (M, P, P) comparison cube.
        cur, prev = rows[1:], rows[:-1]
        held = cur == prev[:, :1]
        for k in range(1, rows.shape[1]):
            held |= cur == prev[:, k : k + 1]
        requests += int((first[1:] & ~held).sum())
    return requests


def stream_sharing_run_length(stream: RequestStream) -> float:
    """Average run length of consecutive points in the same reuse group.

    The Fig. 7(a) metric: on the NeRF front-end, where ``group_ids`` are
    cube ids, a dozen or more ray-first points share one cube at coarse
    levels, and a random shuffle collapses the run length towards 1.  Any
    other front-end that marks reuse groups is measured the same way.
    """
    if stream.num_points == 0:
        return 0.0
    return float(stream.num_points / int(stream.run_starts().sum()))


def stream_register_hit_rate(stream: RequestStream) -> float:
    """Fraction of points whose entries are already in local registers.

    A point hits when it belongs to the same reuse group as the previous
    streamed point, so its entries need no new memory request.
    """
    if stream.num_points <= 1:
        return 0.0
    hits = stream.num_points - int(stream.run_starts().sum())
    return float(hits / (stream.num_points - 1))


def row_requests_for_stream_reference(stream: RequestStream, row_bytes: int = 1024) -> int:
    """Per-point loop oracle for :func:`row_requests_for_stream`.

    Kept as the reference implementation the vectorized path is tested
    against; do not use on paper-scale streams.  Walks the stream one point
    at a time: a point in the same reuse group as the previous point is a
    register hit, any other point costs the rows it touches that the
    previous charged point did not.
    """
    entries_per_row = max(1, row_bytes // stream.entry_bytes)
    groups = None if stream.group_ids is None else stream.group_ids.tolist()
    requests = 0
    previous_rows: set[int] = set()
    for i, indices in enumerate(stream.indices.tolist()):
        if groups is not None and i > 0 and groups[i] == groups[i - 1]:
            continue  # register hit: entries already loaded
        current_rows = {index // entries_per_row for index in indices}
        requests += len(current_rows - previous_rows)
        previous_rows = current_rows
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
