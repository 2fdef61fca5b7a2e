"""Multi-tenant open-loop serving simulation on top of the memory stack.

``repro.serve`` is the production-scale front of the reproduction: a
deterministic discrete-event simulator that drives the existing trace →
hierarchy → DRAM → NMP cost models with *open-loop* traffic from many
tenants instead of one training job.  The pieces:

* :mod:`repro.serve.workload` — seeded arrival processes (Poisson, bursty
  MMPP, diurnal) of per-tenant render requests (camera pose + resolution),
  with offered load expressed as time compression of one base arrival
  sequence so sweeping load never resamples the workload;
* :mod:`repro.serve.scheduler` — the batching queue (size/window-triggered
  coalescing of rays across tenants, FIFO vs shortest-job-first) plus
  admission control (queue-depth cap, per-tenant token bucket) and the
  timeout/shed path;
* :mod:`repro.serve.stream` — a run's requests compiled once to
  tenant-tagged lookup rows, and each coalesced batch's rows as one
  :class:`repro.streams.RequestStream`, the same typed IR the training
  front-ends emit;
* :mod:`repro.serve.cost` — batch service times from the unchanged
  :meth:`repro.mem.hierarchy.CacheHierarchy.filter_lines` →
  :meth:`repro.dram.system.DRAMSystem.service_addresses` →
  :class:`repro.accel.nmp.NMPAccelerator` models;
* :mod:`repro.serve.simulator` — the virtual clock, per-request latency
  breakdowns (queue / batch-wait / service) and the aggregate serving
  summary (p50/p99 latency, goodput, shed rate, queue depth) behind the
  ``fig14_serving_latency`` experiment.
"""

from __future__ import annotations

from .cost import ServiceCost, ServiceCostConfig, ServiceCostModel
from .scheduler import (
    AdmissionConfig,
    BatchPolicy,
    BatchQueue,
    QueueEntry,
    SchedulerConfig,
    TokenBucket,
)
from .simulator import (
    BatchRecord,
    RequestRecord,
    ServingResult,
    simulate_serving,
    simulate_serving_reference,
)
from .stream import RequestTable, batch_request_stream_reference, compile_requests, request_points
from .workload import (
    RenderRequest,
    ServeWorkloadConfig,
    arrival_times,
    base_arrival_times,
    generate_requests,
    tenant_seed,
)

__all__ = [
    "AdmissionConfig",
    "BatchPolicy",
    "BatchQueue",
    "BatchRecord",
    "QueueEntry",
    "RenderRequest",
    "RequestRecord",
    "RequestTable",
    "SchedulerConfig",
    "ServeWorkloadConfig",
    "ServiceCost",
    "ServiceCostConfig",
    "ServiceCostModel",
    "ServingResult",
    "TokenBucket",
    "arrival_times",
    "base_arrival_times",
    "batch_request_stream_reference",
    "compile_requests",
    "generate_requests",
    "request_points",
    "simulate_serving",
    "simulate_serving_reference",
    "tenant_seed",
]
