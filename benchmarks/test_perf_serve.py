"""Serving-simulator benchmarks: batching throughput + tail-latency shape.

Measurements recorded into ``BENCH_serve.json`` through the ``bench``
fixture (see ``benchmarks/conftest.py``):

* ``batching_speedup`` — modeled makespan of the per-request G/G/1 reference
  oracle divided by the batching scheduler's makespan on the same hot
  arrival trace.  This is the serving win the coalescing scheduler exists
  for, and the metric ``bench compare`` gates.
* the p99 latency at every swept offered load, for both batching policies —
  asserted monotone non-decreasing in load.  Offered load is pure time
  compression of one seeded arrival sequence (see
  :mod:`repro.serve.workload`), so this hockey-stick shape is deterministic:
  a violation means the scheduler or cost model changed behaviour, not that
  the machine was noisy.

``PERF_SMOKE=1`` trims the load sweep; the workload itself stays at full
size so both modes exercise the same queueing regimes.  Every assert here is
on modeled time, not on the wall clock.
"""

from __future__ import annotations

import pytest
from conftest import SMOKE

from repro.serve import (
    BatchPolicy,
    SchedulerConfig,
    ServeWorkloadConfig,
    ServiceCostConfig,
    ServiceCostModel,
    simulate_serving,
    simulate_serving_reference,
)

LOADS = (0.5, 1.0, 2.0) if SMOKE else (0.25, 0.5, 1.0, 2.0, 4.0)
#: The batching-vs-oracle comparison always runs saturated: below saturation
#: both makespans are arrival-bound and the ratio degenerates to 1.
HOT_LOAD = 4.0
#: The fig14 defaults: 4 tenants x 64 requests, 20 us mean gap at unit load.
WORKLOAD = ServeWorkloadConfig()
COST = ServiceCostConfig()
BENCH_ENTRY = {"loads": list(LOADS)}


@pytest.fixture(scope="module")
def model():
    return ServiceCostModel(COST)


@pytest.mark.parametrize("policy", [BatchPolicy.FIFO, BatchPolicy.SJF])
def test_p99_latency_is_monotone_in_offered_load(bench, policy, model):
    """Deterministic hockey stick: p99 never improves as load rises."""
    p99s = []
    for load in LOADS:
        summary = simulate_serving(
            WORKLOAD.at_load(load), SchedulerConfig(policy=policy), model=model
        ).summary()
        p99s.append(summary["p99_latency_us"])
    bench.record(
        f"p99_{policy.value}", {f"p99_us_at_load_{load}": p99 for load, p99 in zip(LOADS, p99s)}
    )
    for lighter, heavier in zip(p99s, p99s[1:]):
        assert heavier >= lighter - 1e-9
    # The sweep's tail visibly grows (smoke trims the range, hence the
    # softer floor there).
    assert p99s[-1] > (1.2 if SMOKE else 1.5) * p99s[0]


def test_batching_beats_per_request_oracle(bench, model):
    """The gated serving win: coalescing vs one-dispatch-per-request."""
    hot = WORKLOAD.at_load(HOT_LOAD)
    sim_wall_s, batched = bench.time(lambda: simulate_serving(hot, SchedulerConfig(), model=model))
    oracle = simulate_serving_reference(hot, model=model)
    speedup = oracle.makespan_us / batched.makespan_us
    summary = batched.summary()
    bench.record(
        "batching",
        {
            "batched_makespan_us": batched.makespan_us,
            "reference_makespan_us": oracle.makespan_us,
            "batching_speedup": speedup,
            "mean_batch_requests": summary["mean_batch_requests"],
            "simulate_wall_s": sim_wall_s,
        },
    )
    # Every request is served in both runs; the batcher only wins on time.
    assert summary["served"] == float(hot.num_requests)
    assert speedup > 1.05
