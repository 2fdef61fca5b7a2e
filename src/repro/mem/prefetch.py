"""Next-line / stride stream prefetcher for the SRAM cache tier.

The prefetcher watches the demand line stream (after the scratchpad L0
filter, before the cache) and injects prefetch accesses for the lines it
predicts.  Because the prediction state is a pure function of the demand
stream, the whole plan is computed vectorized up front and merged into one
interleaved stream — each prefetch lands immediately after the demand
access that triggered it — which :func:`repro.mem.cache.simulate_cache`
then services with its ``is_prefetch`` flags.

Policies
--------
``none``
    No prefetching; the demand stream passes through unchanged.
``next_line``
    Every demand access that moves to a new line prefetches the following
    ``degree`` lines (sequential streams, e.g. dense coarse levels).
``stride``
    A stride is confirmed when two consecutive line deltas agree (and are
    non-zero); the confirmed stride is projected ``degree`` lines ahead.
    Degenerates to next-line behaviour on unit-stride streams.

:func:`plan_prefetches_reference` is the retained per-access oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = ["PREFETCH_POLICIES", "PrefetcherConfig", "plan_prefetches", "plan_prefetches_reference"]

PREFETCH_POLICIES = ("none", "next_line", "stride")


@dataclass(frozen=True)
class PrefetcherConfig:
    """Policy and aggressiveness of the stream prefetcher."""

    policy: str = "none"
    degree: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.policy not in PREFETCH_POLICIES:
            raise ValueError(
                f"unknown prefetch policy {self.policy!r}; "
                f"available: {', '.join(PREFETCH_POLICIES)}"
            )
        if self.degree <= 0:
            raise ValueError(f"degree must be positive, got {self.degree}")


def plan_prefetches(
    line_ids: NDArray[Any], config: PrefetcherConfig, streams: NDArray[Any] | None = None
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Merge prefetch accesses into a demand line stream.

    Returns ``(merged_line_ids, is_prefetch)`` with every prefetch access
    placed directly after its triggering demand access.  Prefetch targets
    below line 0 are clamped out (not issued).  Exactly equivalent to
    :func:`plan_prefetches_reference`.

    ``streams`` optionally gives each access a stream id; the accesses of
    one stream are consecutive.  Each stream starts cold, with no last line
    and no stride history, so its first access is a move and a stride is
    confirmed only by moves of one stream.  A prefetch belongs to its
    trigger's stream.

    Only the moves (accesses that switch to a new line) are planned: the
    triggering moves and their strides give a ``(moves, degree)`` target
    matrix, and an issued target's slot in the merged stream is its
    trigger's position plus its rank, from 1, among the issued targets.
    """
    demand = np.asarray(line_ids, dtype=np.int64).ravel()
    n = demand.size
    if config.policy == "none" or n == 0:
        return demand.copy(), np.zeros(n, dtype=bool)

    move = np.append(True, demand[1:] != demand[:-1])
    if streams is not None:
        move[1:] |= streams[1:] != streams[:-1]
    moves = move.nonzero()[0]
    if config.policy == "next_line":
        fire, stride = moves, np.ones(1, dtype=np.int64)
    else:  # stride: confirmed when two consecutive moves repeat one delta
        visited = demand[moves]
        deltas = visited[1:] - visited[:-1]
        confirmed = deltas[1:] == deltas[:-1]
        if streams is not None:  # three moves of one stream
            visited_streams = streams[moves]
            confirmed &= visited_streams[2:] == visited_streams[:-2]
        fire, stride = moves[2:][confirmed], deltas[1:][confirmed]

    targets = demand[fire][:, None] + np.multiply.outer(stride, np.arange(1, config.degree + 1))
    issued = targets >= 0
    slots = fire[issued.nonzero()[0]] + np.arange(1, np.count_nonzero(issued) + 1)
    merged = np.empty(n + slots.size, dtype=np.int64)
    is_prefetch = np.zeros(n + slots.size, dtype=bool)
    is_prefetch[slots] = True
    merged[slots] = targets[issued]
    merged[~is_prefetch] = demand
    return merged, is_prefetch


def plan_prefetches_reference(
    line_ids: NDArray[Any], config: PrefetcherConfig
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Per-access state-machine oracle for :func:`plan_prefetches`."""
    demand = np.asarray(line_ids, dtype=np.int64).ravel()
    merged: list[int] = []
    flags: list[bool] = []
    last_line: int | None = None
    last_delta: int | None = None
    for raw in demand:
        line = int(raw)
        merged.append(line)
        flags.append(False)
        targets: list[int] = []
        if config.policy == "next_line":
            if line != last_line:
                targets = [line + k for k in range(1, config.degree + 1)]
        elif config.policy == "stride":
            if last_line is not None and line != last_line:
                delta = line - last_line
                if delta == last_delta:
                    targets = [line + delta * k for k in range(1, config.degree + 1)]
                last_delta = delta
        for target in targets:
            if target >= 0:
                merged.append(target)
                flags.append(True)
        if line != last_line:
            last_line = line
    return np.asarray(merged, dtype=np.int64), np.asarray(flags, dtype=bool)
