"""Batching queue, admission control and shedding for the serving simulator.

The scheduler is deliberately split from the clock: :class:`BatchQueue` is a
pure state machine (offer / shed / form-batch) the discrete-event loop in
:mod:`repro.serve.simulator` drives with explicit virtual timestamps, which
is what makes every decision replayable and property-testable.

Admission control happens at arrival: a request is rejected when the queue
already holds ``max_queue_depth`` requests, or when its tenant's token
bucket (capacity ``bucket_capacity``, refill ``tokens_per_us``) is empty.
Admitted requests can still be *shed* later if they wait longer than the
scheduler's ``timeout_us`` before their batch starts service.

Batches are formed work-conservingly: whenever the server is idle and the
queue non-empty, the dispatcher coalesces queued requests — across tenants,
in FIFO or shortest-job-first order — up to ``max_batch_points`` sample
points.  ``batch_window_us`` optionally delays the first dispatch of an
idle period to let a batch fill.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .workload import RenderRequest

__all__ = [
    "AdmissionConfig",
    "BatchPolicy",
    "BatchQueue",
    "QueueEntry",
    "SchedulerConfig",
    "TokenBucket",
]


class BatchPolicy(enum.Enum):
    """Order in which queued requests are coalesced into a batch."""

    FIFO = "fifo"
    #: Shortest job first: fewest sample points first (admit order on ties).
    SJF = "sjf"


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control policy applied when a request arrives.

    ``max_queue_depth == 0`` disables the depth cap; ``tokens_per_us == 0``
    disables the per-tenant token bucket.  The defaults admit everything —
    the open-loop baseline.
    """

    max_queue_depth: int = 0
    tokens_per_us: float = 0.0
    bucket_capacity: float = 8.0

    def __post_init__(self) -> None:
        if self.max_queue_depth < 0:
            raise ValueError(f"max_queue_depth must be >= 0, got {self.max_queue_depth}")
        if self.tokens_per_us < 0.0:
            raise ValueError(f"tokens_per_us must be >= 0, got {self.tokens_per_us}")
        if self.bucket_capacity <= 0.0:
            raise ValueError(f"bucket_capacity must be positive, got {self.bucket_capacity}")


@dataclass(frozen=True)
class SchedulerConfig:
    """Batching + admission policy of the serving scheduler."""

    policy: BatchPolicy = BatchPolicy.FIFO
    #: Sample-point budget of one coalesced batch (the accelerator's batch
    #: geometry); a single oversized request still dispatches alone.
    max_batch_points: int = 4096
    #: Extra wait after the first admit of an idle period before dispatch.
    batch_window_us: float = 0.0
    #: Shed admitted requests whose batch has not *started* within this wait
    #: (0 disables shedding).
    timeout_us: float = 0.0
    admission: AdmissionConfig = AdmissionConfig()

    def __post_init__(self) -> None:
        if self.max_batch_points <= 0:
            raise ValueError(f"max_batch_points must be positive, got {self.max_batch_points}")
        if self.batch_window_us < 0.0:
            raise ValueError(f"batch_window_us must be >= 0, got {self.batch_window_us}")
        if self.timeout_us < 0.0:
            raise ValueError(f"timeout_us must be >= 0, got {self.timeout_us}")


@dataclass
class TokenBucket:
    """Continuous-refill token bucket (one per tenant)."""

    rate_per_us: float
    capacity: float
    tokens: float = field(init=False)
    last_us: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.tokens = self.capacity

    def try_take(self, now_us: float) -> bool:
        """Refill to ``now_us`` and consume one token if available."""
        elapsed = max(0.0, now_us - self.last_us)
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate_per_us)
        self.last_us = now_us
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class QueueEntry:
    """One admitted request waiting for a batch."""

    request: RenderRequest
    admit_us: float
    #: Monotone admission sequence number — the deterministic tie-breaker of
    #: every batch-forming sort.
    admit_seq: int


class BatchQueue:
    """The scheduler's queue: admission at arrival, batch forming on demand."""

    def __init__(self, config: SchedulerConfig):
        self.config = config
        self._entries: list[QueueEntry] = []
        self._buckets: dict[int, TokenBucket] = {}
        self._admit_seq = 0

    # ------------------------------------------------------------- inspection
    @property
    def depth(self) -> int:
        """Requests currently queued."""
        return len(self._entries)

    @property
    def entries(self) -> tuple[QueueEntry, ...]:
        """The queued entries, in admission order."""
        return tuple(self._entries)

    @property
    def earliest_admit_us(self) -> float:
        """Admission time of the longest-waiting queued request.

        Offers never go back in time and every removal keeps admission
        order, so that is the first entry's.
        """
        if not self._entries:
            raise ValueError("queue is empty")
        return self._entries[0].admit_us

    # -------------------------------------------------------------- admission
    def offer(self, request: RenderRequest, now_us: float) -> bool:
        """Admit or reject an arriving request; returns ``True`` on admit.

        ``now_us`` must not precede the last admission still queued
        (``ValueError``): the event loop offers requests in arrival order.
        """
        if self._entries and now_us < self._entries[-1].admit_us:
            raise ValueError(
                f"offer at {now_us} us precedes the last admission at "
                f"{self._entries[-1].admit_us} us"
            )
        admission = self.config.admission
        if admission.max_queue_depth and len(self._entries) >= admission.max_queue_depth:
            return False
        if admission.tokens_per_us > 0.0:
            bucket = self._buckets.get(request.tenant)
            if bucket is None:
                bucket = TokenBucket(
                    rate_per_us=admission.tokens_per_us,
                    capacity=admission.bucket_capacity,
                )
                self._buckets[request.tenant] = bucket
            if not bucket.try_take(now_us):
                return False
        self._entries.append(QueueEntry(request, now_us, self._admit_seq))
        self._admit_seq += 1
        return True

    # --------------------------------------------------------------- shedding
    def shed_expired(self, now_us: float) -> list[QueueEntry]:
        """Remove and return entries that waited past ``timeout_us``."""
        timeout = self.config.timeout_us
        if not timeout:
            return []
        expired = [e for e in self._entries if now_us - e.admit_us > timeout]
        if expired:
            self._entries = [e for e in self._entries if now_us - e.admit_us <= timeout]
        return expired

    # ----------------------------------------------------------- batch forming
    def next_batch(self) -> list[QueueEntry]:
        """Pop the next coalesced batch (policy order, point-budget bounded).

        At least one request is always dispatched, so an oversized request
        cannot wedge the queue; beyond the first, requests join while the
        cumulative point count stays within ``max_batch_points``.
        """
        if not self._entries:
            raise ValueError("cannot form a batch from an empty queue")
        if self.config.policy is BatchPolicy.SJF:
            ordered = sorted(
                self._entries, key=lambda e: (e.request.num_points, e.admit_seq)
            )
        else:
            ordered = sorted(self._entries, key=lambda e: e.admit_seq)
        batch = [ordered[0]]
        points = ordered[0].request.num_points
        for entry in ordered[1:]:
            if points + entry.request.num_points > self.config.max_batch_points:
                # Strict-order coalescing: FIFO never lets a later request
                # jump an earlier one, and under SJF everything after the
                # first overflow is at least as large.
                break
            batch.append(entry)
            points += entry.request.num_points
        taken = {entry.admit_seq for entry in batch}
        self._entries = [e for e in self._entries if e.admit_seq not in taken]
        return batch
