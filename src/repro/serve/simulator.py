"""Discrete-event serving simulator: virtual clock, latency records, summary.

The event loop advances a virtual microsecond clock over the merged arrival
sequence, drives the :class:`repro.serve.scheduler.BatchQueue` (admission at
arrival, timeout shedding and batch forming at dispatch) and prices every
coalesced batch through the :class:`repro.serve.cost.ServiceCostModel`.
Dispatch is work-conserving: whenever the server is idle and the queue
non-empty, the next batch starts at
``max(server_free, earliest_admit + batch_window)`` — the queue only ever
waits for the configured coalescing window, never idly.

A batch's price depends only on its requests, but which batches form
depends on the prices before them.  :func:`simulate_serving` therefore runs
the one event loop twice.  The plan pass prices every batch as
``overhead + compute``, the price it has whenever its memory time does not
exceed its compute time; one :meth:`ServiceCostModel.costs` call then
prices all the batches the plan formed in a few memory-system passes, each
batch starting cold as if alone.  The exact pass takes each dispatch's
price from that call when the plan formed the same batch, and from
:meth:`ServiceCostModel.cost` when it did not, so results equal pricing
batch by batch.  Until a batch is memory-bound both passes see the same
clock and queue, so the plan forms every batch; after one, the schedules
can part and the exact pass prices the rest alone.

Everything is deterministic: arrivals are seeded, service times are modeled
cycles, and the clock is purely virtual (no wall-clock reads), so the same
configuration always produces byte-identical records.  Per-request latency
breakdowns (queue wait vs batch service) and per-batch accounting are
recorded as typed rows and — when tracing is enabled — emitted as
``repro.obs`` spans (deterministic virtual-time durations) and metrics.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..obs import Tracer, get_metrics, get_tracer
from .cost import ServiceCost, ServiceCostConfig, ServiceCostModel
from .scheduler import BatchQueue, QueueEntry, SchedulerConfig
from .workload import RenderRequest, ServeWorkloadConfig, generate_requests

__all__ = [
    "BatchRecord",
    "RequestRecord",
    "ServingResult",
    "simulate_serving",
    "simulate_serving_reference",
]

#: Terminal states of a request.
REQUEST_STATUSES = ("served", "shed", "rejected")

#: The disabled tracer the plan pass runs under, whatever is enabled.
_UNTRACED = Tracer()


@dataclass(frozen=True)
class RequestRecord:
    """Outcome + latency breakdown of one request.

    ``queue_us`` is admission-to-batch-start wait, ``service_us`` the batch
    service latency the request shared, and ``latency_us`` the end-to-end
    arrival-to-completion time.  Rejected requests (admission control) never
    enter the queue; shed requests (timeout) leave it unserved.
    """

    request_id: int
    tenant: int
    arrival_us: float
    num_points: int
    status: str
    start_us: float
    finish_us: float
    queue_us: float
    service_us: float
    latency_us: float
    batch_id: int

    def __post_init__(self) -> None:
        if self.status not in REQUEST_STATUSES:
            raise ValueError(f"status must be one of {REQUEST_STATUSES}, got {self.status!r}")


@dataclass(frozen=True)
class BatchRecord:
    """Accounting of one dispatched batch (enough to replay the dispatch rule)."""

    batch_id: int
    start_us: float
    #: When the server went idle before this batch (work-conservation check).
    free_before_us: float
    #: Queue-wide earliest admission time at dispatch (window check).
    earliest_admit_us: float
    num_requests: int
    num_points: int
    service_us: float
    dram_us: float
    compute_us: float
    queue_depth_before: int


@dataclass(frozen=True)
class ServingResult:
    """All records of one simulated serving run, plus the aggregate summary."""

    records: tuple[RequestRecord, ...]
    batches: tuple[BatchRecord, ...]
    queue_depth_samples: tuple[int, ...]
    makespan_us: float

    def served_latencies_us(self) -> np.ndarray:
        return np.asarray(
            [r.latency_us for r in self.records if r.status == "served"], dtype=np.float64
        )

    def summary(self) -> dict[str, float]:
        """Aggregate serving metrics as a plain (storable) float dict."""
        served = [r for r in self.records if r.status == "served"]
        shed = sum(1 for r in self.records if r.status == "shed")
        rejected = sum(1 for r in self.records if r.status == "rejected")
        total = len(self.records)
        latencies = self.served_latencies_us()
        queue_waits = np.asarray([r.queue_us for r in served], dtype=np.float64)
        depths = np.asarray(self.queue_depth_samples, dtype=np.float64)
        busy_us = sum(b.service_us for b in self.batches)
        makespan_s = self.makespan_us / 1e6 if self.makespan_us > 0 else 0.0

        def percentile(q: float) -> float:
            return float(np.percentile(latencies, q)) if latencies.size else 0.0

        return {
            "num_requests": float(total),
            "served": float(len(served)),
            "shed": float(shed),
            "rejected": float(rejected),
            "shed_rate": float((shed + rejected) / total) if total else 0.0,
            "goodput_rps": float(len(served) / makespan_s) if makespan_s else 0.0,
            "p50_latency_us": percentile(50.0),
            "p95_latency_us": percentile(95.0),
            "p99_latency_us": percentile(99.0),
            "mean_latency_us": float(latencies.mean()) if latencies.size else 0.0,
            "max_latency_us": float(latencies.max()) if latencies.size else 0.0,
            "mean_queue_us": float(queue_waits.mean()) if queue_waits.size else 0.0,
            "mean_queue_depth": float(depths.mean()) if depths.size else 0.0,
            "max_queue_depth": float(depths.max()) if depths.size else 0.0,
            "num_batches": float(len(self.batches)),
            "mean_batch_requests": (
                float(np.mean([b.num_requests for b in self.batches])) if self.batches else 0.0
            ),
            "mean_batch_points": (
                float(np.mean([b.num_points for b in self.batches])) if self.batches else 0.0
            ),
            "utilization": float(busy_us / self.makespan_us) if self.makespan_us else 0.0,
            "makespan_us": float(self.makespan_us),
        }


def _rejected_record(request: RenderRequest) -> RequestRecord:
    return RequestRecord(
        request_id=request.request_id,
        tenant=request.tenant,
        arrival_us=request.arrival_us,
        num_points=request.num_points,
        status="rejected",
        start_us=request.arrival_us,
        finish_us=request.arrival_us,
        queue_us=0.0,
        service_us=0.0,
        latency_us=0.0,
        batch_id=-1,
    )


def _shed_record(entry: QueueEntry, shed_us: float) -> RequestRecord:
    request = entry.request
    return RequestRecord(
        request_id=request.request_id,
        tenant=request.tenant,
        arrival_us=request.arrival_us,
        num_points=request.num_points,
        status="shed",
        start_us=shed_us,
        finish_us=shed_us,
        queue_us=shed_us - entry.admit_us,
        service_us=0.0,
        latency_us=shed_us - request.arrival_us,
        batch_id=-1,
    )


def _observe_dispatch(waiting: tuple[QueueEntry, ...], batch: list[QueueEntry]) -> None:
    """Metrics showing whether the batch budget and the policy shaped a dispatch.

    ``serve.queued_points`` observes the points queued at the dispatch.
    ``serve.budget_limited`` counts dispatches that left queued requests
    behind, and ``serve.reordered`` those that served a different set of
    requests than the FIFO prefix of the same length; both are incremented,
    by 0 or 1, at every dispatch.  ``serve.reordered`` compares sets, not
    order: under SJF at fig14's 4,096-point budget it reads 0 on the smoke
    workload, yet SJF orders the requests inside 38 of its 268 batches
    differently from FIFO.  That changes ``dram_us`` in 34 of them but not
    the batch time, which is ``max(dram_us, compute_us)`` plus overhead.
    """
    metrics = get_metrics()
    metrics.histogram("serve.queued_points").observe(
        sum(entry.request.num_points for entry in waiting)
    )
    metrics.counter("serve.budget_limited").inc(int(len(batch) < len(waiting)))
    fifo = {entry.admit_seq for entry in waiting[: len(batch)]}
    metrics.counter("serve.reordered").inc(int({entry.admit_seq for entry in batch} != fifo))


def _cost_model(cost: ServiceCostConfig | None, model: ServiceCostModel | None) -> ServiceCostModel:
    """``model`` when given (it must agree with ``cost``), else a model of ``cost``."""
    if model is None:
        return ServiceCostModel(cost)
    if cost is not None and model.config != cost:
        raise ValueError("cost and model disagree: pass one, or a model built from cost")
    return model


def _batch_key(batch: list[RenderRequest]) -> tuple[int, ...]:
    """A batch's requests, in batch order (request ids are unique in a run)."""
    return tuple(request.request_id for request in batch)


def _serve(
    requests: Sequence[RenderRequest],
    scheduler: SchedulerConfig,
    price: Callable[[list[RenderRequest]], ServiceCost],
    tracer: Tracer,
) -> ServingResult:
    """The event loop: admit, shed and dispatch ``requests``; ``price`` prices each batch.

    Spans and metrics go to ``tracer`` and the metrics registry only when
    ``tracer`` is enabled.
    """
    queue = BatchQueue(scheduler)
    records: list[RequestRecord] = []
    batches: list[BatchRecord] = []
    depth_samples: list[int] = []
    free_at = 0.0
    next_arrival = 0

    def admit_next() -> None:
        nonlocal next_arrival
        request = requests[next_arrival]
        next_arrival += 1
        if queue.offer(request, request.arrival_us):
            depth_samples.append(queue.depth)
        else:
            records.append(_rejected_record(request))
            if tracer.enabled:
                get_metrics().counter("serve.rejected").inc()

    while next_arrival < len(requests) or queue.depth:
        if queue.depth == 0:
            admit_next()
            continue
        dispatch_at = max(free_at, queue.earliest_admit_us + scheduler.batch_window_us)
        if next_arrival < len(requests) and (
            requests[next_arrival].arrival_us <= dispatch_at
        ):
            admit_next()
            continue
        expired = queue.shed_expired(dispatch_at)
        for entry in expired:
            records.append(_shed_record(entry, dispatch_at))
            if tracer.enabled:
                get_metrics().counter("serve.shed").inc()
        if queue.depth == 0:
            continue
        earliest = queue.earliest_admit_us
        if max(free_at, earliest + scheduler.batch_window_us) > dispatch_at:
            # Shedding removed the oldest entries; re-evaluate the
            # dispatch time (new arrivals may intervene first).
            continue
        depth_before = queue.depth
        waiting = queue.entries if tracer.enabled else ()
        entries = queue.next_batch()
        if tracer.enabled:
            _observe_dispatch(waiting, entries)
        batch = [entry.request for entry in entries]
        with tracer.span("serve.batch", "serve") as span:
            batch_cost = price(batch)
            if span.enabled:
                span.set_cycles(int(batch_cost.total_us * 1e3))
                span.add_args(
                    requests=batch_cost.num_requests,
                    points=batch_cost.num_points,
                    dram_us=batch_cost.dram_us,
                    compute_us=batch_cost.compute_us,
                )
        start = dispatch_at
        finish = start + batch_cost.total_us
        free_before = free_at
        free_at = finish
        batch_id = len(batches)
        batches.append(
            BatchRecord(
                batch_id=batch_id,
                start_us=start,
                free_before_us=free_before,
                earliest_admit_us=earliest,
                num_requests=batch_cost.num_requests,
                num_points=batch_cost.num_points,
                service_us=batch_cost.total_us,
                dram_us=batch_cost.dram_us,
                compute_us=batch_cost.compute_us,
                queue_depth_before=depth_before,
            )
        )
        for entry in entries:
            request = entry.request
            records.append(
                RequestRecord(
                    request_id=request.request_id,
                    tenant=request.tenant,
                    arrival_us=request.arrival_us,
                    num_points=request.num_points,
                    status="served",
                    start_us=start,
                    finish_us=finish,
                    queue_us=start - entry.admit_us,
                    service_us=batch_cost.total_us,
                    latency_us=finish - request.arrival_us,
                    batch_id=batch_id,
                )
            )
            if tracer.enabled:
                get_metrics().counter("serve.served").inc()
                get_metrics().histogram("serve.latency_us").observe(
                    finish - request.arrival_us
                )

    records.sort(key=lambda r: r.request_id)
    makespan = max((r.finish_us for r in records), default=0.0)
    return ServingResult(
        records=tuple(records),
        batches=tuple(batches),
        queue_depth_samples=tuple(depth_samples),
        makespan_us=float(makespan),
    )


def simulate_serving(
    workload: ServeWorkloadConfig,
    scheduler: SchedulerConfig,
    cost: ServiceCostConfig | None = None,
    model: ServiceCostModel | None = None,
) -> ServingResult:
    """Run one open-loop serving simulation end to end.

    ``model`` may be passed to reuse one :class:`ServiceCostModel` (and its
    accelerator-derived constants) across runs — reuse never changes results
    because the model is stateless across batches.  Passing both ``cost``
    and a ``model`` built from another config raises ``ValueError``.

    Every request, served or not, is compiled to its lookup rows once up
    front (:meth:`ServiceCostModel.compile`).  The event loop then runs
    twice.  The plan pass prices each batch as ``overhead + compute``, as if
    memory were never the bottleneck, and one :meth:`ServiceCostModel.costs`
    call prices every batch the plan formed.  The exact pass prices each
    dispatch from that call when the plan formed the same batch (the same
    requests in the same order), and with :meth:`ServiceCostModel.cost`
    otherwise.  Every price comes from the cost model, so the result equals
    the event loop priced batch by batch.  The plan forms every batch the
    exact pass does whenever no batch's memory time exceeds its compute
    time: a batch then takes ``overhead + compute`` in both passes, so both
    see the same clock and the same queue at every dispatch.  The planned
    prices live only inside this call.

    When tracing, ``serve.planned_batches`` counts the batches the plan
    priced and ``serve.plan_misses`` the dispatches priced alone; the plan
    pass itself emits no span or metric.
    """
    cost_model = _cost_model(cost, model)
    tracer = get_tracer()
    with tracer.span("serve.simulate", "serve") as run_span:
        requests = generate_requests(workload)
        table = cost_model.compile(requests)
        overhead_us = cost_model.config.batch_overhead_us
        planned: list[list[RenderRequest]] = []

        def compute_bound(batch: list[RenderRequest]) -> ServiceCost:
            planned.append(batch)
            points = sum(request.num_points for request in batch)
            return ServiceCost(len(batch), points, 0.0, cost_model.compute_us(points), overhead_us)

        _serve(requests, scheduler, compute_bound, _UNTRACED)
        prices = dict(zip(map(_batch_key, planned), cost_model.costs(planned, table)))
        misses = 0

        def exact(batch: list[RenderRequest]) -> ServiceCost:
            nonlocal misses
            price = prices.get(_batch_key(batch))
            if price is None:
                misses += 1
                price = cost_model.cost(batch, table)
            return price

        result = _serve(requests, scheduler, exact, tracer)
        if run_span.enabled:
            summary = result.summary()
            run_span.set_cycles(int(result.makespan_us * 1e3))
            run_span.add_args(
                requests=len(result.records),
                served=int(summary["served"]),
                shed=int(summary["shed"]),
                rejected=int(summary["rejected"]),
                p99_latency_us=summary["p99_latency_us"],
            )
            metrics = get_metrics()
            metrics.gauge("serve.p99_latency_us").set(summary["p99_latency_us"])
            metrics.counter("serve.planned_batches").inc(len(planned))
            metrics.counter("serve.plan_misses").inc(misses)
        return result


def simulate_serving_reference(
    workload: ServeWorkloadConfig,
    cost: ServiceCostConfig | None = None,
    model: ServiceCostModel | None = None,
) -> ServingResult:
    """Per-request FIFO oracle: no coalescing, no admission, no shedding.

    Every request is serviced alone in arrival order — the classic G/G/1
    recursion ``finish_i = max(arrival_i, finish_{i-1}) + service_i``.  This
    is both the baseline the batcher's throughput win is measured against
    and an exact oracle: with ``max_batch_points`` of one request and no
    admission control, :func:`simulate_serving` must reproduce it.
    ``cost`` and ``model`` are checked as in :func:`simulate_serving`.
    """
    cost_model = _cost_model(cost, model)
    requests = generate_requests(workload)
    table = cost_model.compile(requests)
    records: list[RequestRecord] = []
    batches: list[BatchRecord] = []
    free_at = 0.0
    for request in requests:
        batch_cost = cost_model.cost([request], table)
        start = max(free_at, request.arrival_us)
        finish = start + batch_cost.total_us
        free_before = free_at
        free_at = finish
        batch_id = len(batches)
        batches.append(
            BatchRecord(
                batch_id=batch_id,
                start_us=start,
                free_before_us=free_before,
                earliest_admit_us=request.arrival_us,
                num_requests=1,
                num_points=request.num_points,
                service_us=batch_cost.total_us,
                dram_us=batch_cost.dram_us,
                compute_us=batch_cost.compute_us,
                queue_depth_before=1,
            )
        )
        records.append(
            RequestRecord(
                request_id=request.request_id,
                tenant=request.tenant,
                arrival_us=request.arrival_us,
                num_points=request.num_points,
                status="served",
                start_us=start,
                finish_us=finish,
                queue_us=start - request.arrival_us,
                service_us=batch_cost.total_us,
                latency_us=finish - request.arrival_us,
                batch_id=batch_id,
            )
        )
    makespan = records[-1].finish_us if records else 0.0
    return ServingResult(
        records=tuple(records),
        batches=tuple(batches),
        queue_depth_samples=(1,) * len(records),
        makespan_us=float(makespan),
    )
