"""Compile serving requests down to the typed request-stream IR.

A batch of render requests becomes exactly what the training front-ends
emit: per-point hash-table corner indices wrapped in one
:class:`repro.streams.RequestStream`, so the unchanged hierarchy → DRAM →
accelerator consumers price serving traffic with zero new memory-system
code.  The only serving-specific twist is the *tenant-tagged* reuse-group
axis: group ids combine the request id with the sample's cube id, so
register-reuse runs never span two requests (conservative — cross-tenant
reuse is a cache property, not a register property) while the request a
point belongs to stays recoverable from the stream itself.  That same
tagging is the hook the sharding follow-on needs for placement decisions.

A request's rows never depend on which batch it joins, so a run compiles
all of its requests once (:func:`compile_requests`) and every batch stream
is the concatenation of its requests' rows
(:meth:`RequestTable.batch_stream`).  :func:`batch_request_stream_reference`,
which compiles one batch from scratch, is the oracle it is tested against.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..core.hashing import HashFunction
from ..core.streaming import cube_ids
from ..nerf.encoding import HashGridConfig
from ..streams.ir import RequestStream, table_base_address
from ..workloads.traces import level_lookup_indices
from .workload import RenderRequest

__all__ = ["RequestTable", "batch_request_stream_reference", "compile_requests", "request_points"]

#: Provenance of every serving stream.
STREAM_SOURCE = "serve.batch"


def request_points(request: RenderRequest) -> NDArray[np.float64]:
    """The deterministic ``(num_points, 3)`` sample points of one request.

    Rays march from the request's camera pose through the unit scene cube:
    per-ray directions are drawn from the request's own generator and the
    ``points_per_ray`` samples advance along each ray (wrapped into the unit
    cube), giving serving traffic the same ray-major spatial locality the
    training traces have.
    """
    return _sample_points([request])


def _sample_points(requests: Sequence[RenderRequest]) -> NDArray[np.float64]:
    """:func:`request_points` of every request, concatenated.

    Each request draws its ray directions from its own generator; the
    marching arithmetic then runs once over all rays.  It is elementwise
    (and the norm a per-row sum), so every row is bitwise what the request
    alone would give.
    """
    directions = np.concatenate(
        [np.random.default_rng(r.seed).standard_normal((r.rays, 3)) for r in requests]
    )
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    directions = directions / np.maximum(norms, 1e-12)
    rays = [r.rays for r in requests]
    samples = np.repeat(np.asarray([r.points_per_ray for r in requests], dtype=np.int64), rays)
    ray = np.repeat(np.arange(samples.size), samples)  # the ray of each point
    step = np.arange(ray.size) - (np.cumsum(samples) - samples)[ray]
    t = (step.astype(np.float64) + 0.5) / samples[ray]
    origins = np.repeat(
        np.asarray([r.pose for r in requests], dtype=np.float64),
        [r.num_points for r in requests],
        axis=0,
    )
    # origin + t * direction, wrapped to [0, 1).
    return np.mod(origins + t[:, None] * directions[ray], 1.0)


def _label(level: int, num_requests: int) -> str:
    return f"level={level} requests={num_requests}"


@dataclass(frozen=True, eq=False)
class RequestTable:
    """Requests compiled once to one level's tenant-tagged lookup rows.

    ``stream`` holds every compiled request's rows back to back, and
    ``rows`` maps each request to its ``(start, stop)`` row range.  Tables
    are read-only, so one table serves every batch of a run.
    """

    stream: RequestStream
    rows: Mapping[RenderRequest, tuple[int, int]] = field(repr=False)
    level: int

    def batch_stream(self, requests: Sequence[RenderRequest]) -> RequestStream:
        """One batch's stream: its requests' rows concatenated in batch order.

        Byte-identical to :func:`batch_request_stream_reference` on the same
        batch.  Raises ``ValueError`` for an empty batch or a request this
        table did not compile.
        """
        spans = self.spans(requests)
        return replace(
            self.stream,
            indices=_gather_rows(self.stream.indices, spans),
            group_ids=_gather_rows(self.stream.group_ids, spans),
            label=_label(self.level, len(requests)),
        )

    def spans(self, requests: Sequence[RenderRequest]) -> list[tuple[int, int]]:
        """The ``(start, stop)`` row range of each request of one batch.

        Raises ``ValueError`` for an empty batch or a request this table did
        not compile.
        """
        if not requests:
            raise ValueError("cannot build a stream from an empty batch")
        try:
            return [self.rows[request] for request in requests]
        except KeyError as exc:
            raise ValueError(f"request {exc.args[0]!r} is not in this table") from None


def _gather_rows(array: Any, spans: list[tuple[int, int]]) -> NDArray[Any]:
    """Rows ``start:stop`` of a read-only array for each span, concatenated."""
    if len(spans) == 1:
        start, stop = spans[0]
        return array[start:stop]
    rows = np.concatenate([array[start:stop] for start, stop in spans])
    rows.flags.writeable = False  # adopted by the stream without a copy
    return rows


def compile_requests(
    requests: Sequence[RenderRequest],
    grid: HashGridConfig,
    hash_fn: HashFunction,
    level: int,
) -> RequestTable:
    """One level's corner lookups of ``requests``, compiled in one pass.

    Points are laid out request-major in the given order, ray-major within a
    request.  ``group_ids`` are ``request_id * cubes_per_level + cube_id``:
    within a request consecutive same-cube samples form register-reuse runs
    exactly as in training traces, and runs can never leak across a request
    boundary.
    """
    if not requests:
        raise ValueError("cannot compile an empty request list")
    resolution = grid.resolutions[level]
    points = _sample_points(requests)
    counts = np.asarray([request.num_points for request in requests], dtype=np.int64)
    request_ids = np.repeat(
        np.asarray([request.request_id for request in requests], dtype=np.int64), counts
    )
    groups = request_ids * np.int64(resolution**3) + cube_ids(points, resolution)
    stream = RequestStream(
        indices=level_lookup_indices(points, level, grid, hash_fn),
        entry_bytes=grid.entry_bytes,
        table_entries=grid.level_table_entries(level),
        base_address=table_base_address(grid, level, grid.entry_bytes),
        dtype=grid.dtype,
        group_ids=groups,
        source=STREAM_SOURCE,
        label=_label(level, len(requests)),
    )
    stops = np.cumsum(counts).tolist()
    starts = [0, *stops[:-1]]
    rows = MappingProxyType(dict(zip(requests, zip(starts, stops))))
    return RequestTable(stream=stream, rows=rows, level=level)


def batch_request_stream_reference(
    requests: Sequence[RenderRequest],
    grid: HashGridConfig,
    hash_fn: HashFunction,
    level: int,
) -> RequestStream:
    """One level's corner lookups of a coalesced batch, compiled per batch.

    The oracle of :meth:`RequestTable.batch_stream`: draws the batch's
    points, computes their corner indices and cube ids, and tags each
    point's group with its request id.
    """
    if not requests:
        raise ValueError("cannot build a stream from an empty batch")
    resolution = grid.resolutions[level]
    points_list = [request_points(request) for request in requests]
    points = np.concatenate(points_list, axis=0)
    indices = level_lookup_indices(points, level, grid, hash_fn)
    cubes_per_level = resolution**3
    request_ids = np.repeat(
        np.asarray([request.request_id for request in requests], dtype=np.int64),
        np.asarray([request.num_points for request in requests], dtype=np.int64),
    )
    groups = request_ids * np.int64(cubes_per_level) + cube_ids(points, resolution)
    return RequestStream(
        indices=indices,
        entry_bytes=grid.entry_bytes,
        table_entries=grid.level_table_entries(level),
        base_address=table_base_address(grid, level, grid.entry_bytes),
        dtype=grid.dtype,
        group_ids=groups,
        source=STREAM_SOURCE,
        label=_label(level, len(requests)),
    )
