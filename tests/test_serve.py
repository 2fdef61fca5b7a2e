"""Tests for the multi-tenant serving simulator (:mod:`repro.serve`).

The load-bearing guarantees: seeded arrival generation is deterministic and
per-tenant decorrelated, offered load is pure time compression (same
requests, same merge order at any load), the scheduler's admission /
shedding / batch-forming decisions satisfy their invariants on arbitrary
request sequences (hypothesis), and with batching disabled the simulator
exactly reproduces the per-request G/G/1 reference oracle.
"""

from __future__ import annotations

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.hashing import OriginalSpatialHash
from repro.dram.system import DRAMSystem
from repro.dram.trace import MemoryRequest, RequestType
from repro.obs import Tracer
from repro.pipeline.context import SimulationContext
from repro.pipeline.registry import get_experiment
from repro.serve import cost as serve_cost
from repro.serve import simulator
from repro.serve import stream as serve_stream
from repro.serve import (
    AdmissionConfig,
    BatchPolicy,
    BatchQueue,
    RenderRequest,
    SchedulerConfig,
    ServeWorkloadConfig,
    ServiceCostConfig,
    ServiceCostModel,
    TokenBucket,
    arrival_times,
    base_arrival_times,
    batch_request_stream_reference,
    compile_requests,
    generate_requests,
    request_points,
    simulate_serving,
    simulate_serving_reference,
    tenant_seed,
)

# One small serving-scale cost model shared by every test that prices batches
# (accelerator constants are derived once; the model is stateless per batch).
SMALL_COST = ServiceCostConfig(
    cache_kb=16, grid_levels=2, table_size=2**10, base_resolution=8, max_resolution=32
)
SMALL_WORKLOAD = ServeWorkloadConfig(
    num_tenants=2, requests_per_tenant=12, mean_interarrival_us=20.0, rays_min=2, rays_max=6
)
#: fig14's cost model at 16 levels behind a 4 KB cache: most batches are
#: DRAM-bound, so the compute-bound plan misses some dispatches.
DRAM_BOUND = ServiceCostConfig(grid_levels=16, cache_kb=4)


@pytest.fixture(scope="module")
def cost_model():
    return ServiceCostModel(SMALL_COST)


# ------------------------------------------------------------------ workload
def test_workload_config_validation():
    with pytest.raises(ValueError):
        ServeWorkloadConfig(num_tenants=0)
    with pytest.raises(ValueError):
        ServeWorkloadConfig(mean_interarrival_us=0.0)
    with pytest.raises(ValueError):
        ServeWorkloadConfig(offered_load=-1.0)
    with pytest.raises(ValueError):
        ServeWorkloadConfig(process="bursty")
    with pytest.raises(ValueError):
        ServeWorkloadConfig(rays_min=8, rays_max=4)
    with pytest.raises(ValueError):
        ServeWorkloadConfig(diurnal_amplitude=1.0)


@pytest.mark.parametrize("process", ["poisson", "mmpp", "diurnal"])
def test_arrival_generation_is_deterministic(process):
    config = ServeWorkloadConfig(num_tenants=3, requests_per_tenant=32, process=process)
    for tenant in range(config.num_tenants):
        first = arrival_times(config, tenant)
        second = arrival_times(config, tenant)
        np.testing.assert_array_equal(first, second)
        assert np.all(np.diff(first) > 0) and first[0] > 0
    # Same seed, same requests — down to identity fields.
    assert generate_requests(config) == generate_requests(config)
    # A different seed is a different trace.
    reseeded = ServeWorkloadConfig(
        num_tenants=3, requests_per_tenant=32, process=process, seed=1
    )
    assert not np.array_equal(arrival_times(config, 0), arrival_times(reseeded, 0))


def test_tenants_are_decorrelated():
    config = ServeWorkloadConfig(num_tenants=4, requests_per_tenant=64)
    # SHA-256 hashing: neighbouring (seed, tenant) pairs give unrelated seeds.
    seeds = {tenant_seed(config.seed, t) for t in range(4)} | {tenant_seed(1, 0)}
    assert len(seeds) == 5
    t0, t1 = base_arrival_times(config, 0), base_arrival_times(config, 1)
    assert not np.array_equal(t0, t1)
    # Tenant 0's base trace is invariant under fleet size changes.
    grown = ServeWorkloadConfig(num_tenants=8, requests_per_tenant=64)
    np.testing.assert_array_equal(t0, base_arrival_times(grown, 0))


def test_offered_load_is_pure_time_compression():
    config = ServeWorkloadConfig(num_tenants=2, requests_per_tenant=16)
    compressed = config.at_load(4.0)
    np.testing.assert_allclose(
        arrival_times(compressed, 0), arrival_times(config, 0) / 4.0, rtol=1e-12
    )
    base, dense = generate_requests(config), generate_requests(compressed)
    # Same requests in the same order — only arrival timestamps rescale.
    for a, b in zip(base, dense):
        assert (a.request_id, a.tenant, a.rays, a.pose, a.seed) == (
            b.request_id, b.tenant, b.rays, b.pose, b.seed
        )
        assert b.arrival_us == pytest.approx(a.arrival_us / 4.0)


def test_request_identity_ranges():
    config = ServeWorkloadConfig(num_tenants=2, requests_per_tenant=32, rays_min=3, rays_max=9)
    requests = generate_requests(config)
    assert [r.request_id for r in requests] == list(range(len(requests)))
    assert all(3 <= r.rays <= 9 for r in requests)
    assert all(0.0 <= c < 1.0 for r in requests for c in r.pose)
    arrivals = [r.arrival_us for r in requests]
    assert arrivals == sorted(arrivals)


# ----------------------------------------------------------------- scheduler
def _request(request_id, tenant=0, arrival=0.0, rays=4, ppr=8):
    return RenderRequest(
        request_id=request_id,
        tenant=tenant,
        arrival_us=arrival,
        rays=rays,
        points_per_ray=ppr,
        pose=(0.5, 0.5, 0.5),
        seed=request_id,
    )


def test_token_bucket_refill_and_cap():
    bucket = TokenBucket(rate_per_us=0.5, capacity=2.0)
    assert bucket.try_take(0.0) and bucket.try_take(0.0)
    assert not bucket.try_take(0.0)  # empty
    assert bucket.try_take(2.0)  # 2 us x 0.5/us refills one token
    assert not bucket.try_take(2.0)
    bucket2 = TokenBucket(rate_per_us=0.5, capacity=2.0)
    assert bucket2.try_take(1e6)  # refill clamps at capacity
    assert 0.0 <= bucket2.tokens <= bucket2.capacity


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 100.0), st.integers(1, 12), st.integers(0, 3)),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 6),
)
def test_depth_cap_is_never_exceeded(offers, cap):
    """Property: with a depth cap the queue never holds more than ``cap``."""
    queue = BatchQueue(SchedulerConfig(admission=AdmissionConfig(max_queue_depth=cap)))
    now = 0.0
    for i, (gap, rays, tenant) in enumerate(offers):
        now += gap
        queue.offer(_request(i, tenant=tenant, arrival=now, rays=rays), now)
        assert queue.depth <= cap
        if queue.depth == cap:  # the next offer at this instant must bounce
            assert not queue.offer(_request(1000 + i, arrival=now), now)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 20), min_size=1, max_size=30),
    st.sampled_from([BatchPolicy.FIFO, BatchPolicy.SJF]),
    st.integers(16, 200),
)
def test_batches_respect_point_budget_and_drain_exactly_once(sizes, policy, budget):
    """Property: batches stay within ``max_batch_points`` (unless a single
    oversized request dispatches alone) and every admitted request is served
    in exactly one batch."""
    queue = BatchQueue(SchedulerConfig(policy=policy, max_batch_points=budget))
    for i, rays in enumerate(sizes):
        assert queue.offer(_request(i, arrival=float(i), rays=rays, ppr=8), float(i))
    seen = []
    while queue.depth:
        batch = queue.next_batch()
        points = sum(e.request.num_points for e in batch)
        assert points <= budget or len(batch) == 1
        if policy is BatchPolicy.FIFO:  # strict admission order within a batch
            seqs = [e.admit_seq for e in batch]
            assert seqs == sorted(seqs)
        seen.extend(e.request.request_id for e in batch)
    assert sorted(seen) == list(range(len(sizes)))


def test_sjf_orders_small_jobs_first():
    queue = BatchQueue(SchedulerConfig(policy=BatchPolicy.SJF, max_batch_points=32))
    for i, rays in enumerate([10, 1, 5]):
        queue.offer(_request(i, arrival=0.0, rays=rays, ppr=8), 0.0)
    batch = queue.next_batch()
    assert [e.request.request_id for e in batch] == [1]  # 8 points, then 5x8=40 > 32-8


def test_offers_never_go_back_in_time():
    """The earliest queued admission is the first entry's, so a queue refuses
    an offer earlier than the last admission it still holds."""
    queue = BatchQueue(SchedulerConfig(policy=BatchPolicy.SJF, max_batch_points=40))
    for i, (arrival, rays) in enumerate([(1.0, 4), (2.0, 1), (3.0, 4)]):
        queue.offer(_request(i, arrival=arrival, rays=rays), arrival)
    assert [e.request.request_id for e in queue.next_batch()] == [1, 0]
    assert queue.earliest_admit_us == 3.0
    with pytest.raises(ValueError, match="precedes"):
        queue.offer(_request(3, arrival=2.5), 2.5)


def test_shed_expired_removes_only_timed_out_entries():
    queue = BatchQueue(SchedulerConfig(timeout_us=10.0))
    queue.offer(_request(0, arrival=0.0), 0.0)
    queue.offer(_request(1, arrival=8.0), 8.0)
    expired = queue.shed_expired(11.0)
    assert [e.request.request_id for e in expired] == [0]
    assert queue.depth == 1


# ----------------------------------------------------------------- streams
def test_request_points_are_deterministic_and_in_unit_cube():
    request = _request(0, rays=5, ppr=7)
    points = request_points(request)
    assert points.shape == (35, 3)
    assert np.all((points >= 0.0) & (points < 1.0))
    np.testing.assert_array_equal(points, request_points(request))


def test_batch_stream_group_ids_never_span_requests(cost_model):
    requests = generate_requests(SMALL_WORKLOAD)[:4]
    grid = cost_model.grid
    stream = batch_request_stream_reference(requests, grid, grid.hash_fn, cost_model.level)
    assert stream.num_points == sum(r.num_points for r in requests)
    assert stream.source == "serve.batch"
    offsets = np.cumsum([0] + [r.num_points for r in requests])
    cubes = int(grid.resolutions[cost_model.level]) ** 3
    for request, lo, hi in zip(requests, offsets[:-1], offsets[1:]):
        owners = stream.group_ids[lo:hi] // cubes
        assert np.all(owners == request.request_id)
    with pytest.raises(ValueError):
        batch_request_stream_reference([], grid, grid.hash_fn, cost_model.level)


#: Grids for the table-vs-reference property: both hashes, and a finest
#: level that is hashed (33^3 > 2^10) or stored dense (17^3 < 2^13).
STREAM_GRIDS = [
    SMALL_COST.grid(),
    replace(SMALL_COST.grid(), num_levels=3, hash_fn=OriginalSpatialHash(), dtype="fp32"),
    replace(SMALL_COST.grid(), table_size=2**13, base_resolution=4, max_resolution=16),
]
#: Every non-array field of a RequestStream.
STREAM_FIELDS = ("entry_bytes", "table_entries", "base_address", "kind", "dtype", "source", "label")


def _assert_same_stream(actual, expected):
    np.testing.assert_array_equal(actual.indices, expected.indices)
    np.testing.assert_array_equal(actual.group_ids, expected.group_ids)
    assert actual.indices.dtype == expected.indices.dtype
    assert actual.group_ids.dtype == expected.group_ids.dtype
    for name in STREAM_FIELDS:
        assert getattr(actual, name) == getattr(expected, name), name


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**16),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(1, 5),
    st.sampled_from(range(len(STREAM_GRIDS))),
    st.data(),
)
def test_table_batch_streams_equal_the_per_batch_reference(
    cost_model, seed, tenants, per_tenant, rays_min, grid_index, data
):
    """Property: compiling a run once and concatenating a batch's rows gives
    the per-batch reference stream on every field, and the same cost."""
    workload = ServeWorkloadConfig(
        num_tenants=tenants,
        requests_per_tenant=per_tenant,
        rays_min=rays_min,
        rays_max=rays_min + 3,
        seed=seed,
    )
    # Requests may differ in samples per ray within one run.
    samples = st.lists(st.integers(1, 9), min_size=workload.num_requests)
    requests = tuple(
        replace(request, points_per_ray=points_per_ray)
        for request, points_per_ray in zip(generate_requests(workload), data.draw(samples))
    )
    # A random batch: a random subset of the run's requests in random order.
    order = data.draw(st.permutations(range(len(requests))))
    size = data.draw(st.integers(1, len(requests)))
    batch = [requests[i] for i in order[:size]]

    grid = STREAM_GRIDS[grid_index]
    level = data.draw(st.integers(0, grid.num_levels - 1))
    table = compile_requests(requests, grid, grid.hash_fn, level)
    expected = batch_request_stream_reference(batch, grid, grid.hash_fn, level)
    _assert_same_stream(table.batch_stream(batch), expected)

    run_table = cost_model.compile(requests)
    _assert_same_stream(cost_model.batch_stream(batch, run_table), cost_model.batch_stream(batch))
    assert cost_model.cost(batch, run_table) == cost_model.cost(batch)


def test_table_rejects_requests_it_did_not_compile(cost_model):
    requests = generate_requests(SMALL_WORKLOAD)
    table = cost_model.compile(requests[:3])
    with pytest.raises(ValueError, match="not in this table"):
        table.batch_stream([requests[0], requests[5]])
    with pytest.raises(ValueError):
        table.batch_stream([])
    with pytest.raises(ValueError):
        cost_model.compile([])


def test_simulation_compiles_lookups_once(cost_model, monkeypatch):
    calls = []
    lookup = serve_stream.level_lookup_indices

    def counting_lookup(*args, **kwargs):
        calls.append(args[0].shape[0])
        return lookup(*args, **kwargs)

    monkeypatch.setattr(serve_stream, "level_lookup_indices", counting_lookup)
    scheduler = SchedulerConfig(max_batch_points=64)
    result = simulate_serving(SMALL_WORKLOAD, scheduler, model=cost_model)
    assert len(result.batches) > 1
    # One pass over every request's points, served or not.
    assert calls == [sum(r.num_points for r in generate_requests(SMALL_WORKLOAD))]


def test_cost_and_model_must_agree(cost_model):
    scheduler = SchedulerConfig()
    other = replace(SMALL_COST, cache_kb=32)
    with pytest.raises(ValueError, match="disagree"):
        simulate_serving(SMALL_WORKLOAD, scheduler, cost=other, model=cost_model)
    with pytest.raises(ValueError, match="disagree"):
        simulate_serving_reference(SMALL_WORKLOAD, cost=other, model=cost_model)
    # An agreeing pair prices with the model, exactly as the model alone.
    both = simulate_serving(SMALL_WORKLOAD, scheduler, cost=SMALL_COST, model=cost_model)
    assert both.records == simulate_serving(SMALL_WORKLOAD, scheduler, model=cost_model).records
    oracle = simulate_serving_reference(SMALL_WORKLOAD, cost=SMALL_COST, model=cost_model)
    assert oracle.records == simulate_serving_reference(SMALL_WORKLOAD, model=cost_model).records


def test_service_cost_is_deterministic_and_batching_wins(cost_model):
    requests = generate_requests(SMALL_WORKLOAD)[:6]
    together = cost_model.cost(requests)
    again = cost_model.cost(requests)
    assert together == again
    assert together.num_points == sum(r.num_points for r in requests)
    assert together.dram_us > 0 and together.compute_us > 0
    assert together.total_us == together.overhead_us + max(
        together.dram_us, together.compute_us
    )
    # Coalescing pays: one batch beats six per-request dispatches.
    alone = sum(cost_model.cost([r]).total_us for r in requests)
    assert together.total_us < alone


# ---------------------------------------------------------------- simulator
def test_simulator_matches_per_request_reference_oracle(cost_model):
    """With coalescing disabled, the event loop is exactly the G/G/1 oracle."""
    workload = ServeWorkloadConfig(
        num_tenants=2, requests_per_tenant=10, rays_min=4, rays_max=4, points_per_ray=8
    )
    scheduler = SchedulerConfig(max_batch_points=4 * 8)  # one request per batch
    batched = simulate_serving(workload, scheduler, model=cost_model)
    oracle = simulate_serving_reference(workload, model=cost_model)
    assert [(r.request_id, r.start_us, r.finish_us) for r in batched.records] == [
        (r.request_id, r.start_us, r.finish_us) for r in oracle.records
    ]


def test_simulation_is_replayable_and_work_conserving(cost_model):
    scheduler = SchedulerConfig(batch_window_us=5.0)
    first = simulate_serving(SMALL_WORKLOAD, scheduler, model=cost_model)
    second = simulate_serving(SMALL_WORKLOAD, scheduler, model=cost_model)
    assert first.records == second.records and first.batches == second.batches
    for batch in first.batches:
        assert batch.start_us == pytest.approx(
            max(batch.free_before_us, batch.earliest_admit_us + 5.0), abs=1e-9
        )


def test_statuses_partition_requests_and_summary_is_consistent(cost_model):
    scheduler = SchedulerConfig(
        timeout_us=15.0,
        admission=AdmissionConfig(max_queue_depth=3),
    )
    hot = SMALL_WORKLOAD.at_load(6.0)
    result = simulate_serving(hot, scheduler, model=cost_model)
    # Every generated request has exactly one terminal record.
    assert [r.request_id for r in result.records] == list(range(hot.num_requests))
    summary = result.summary()
    assert summary["served"] + summary["shed"] + summary["rejected"] == summary["num_requests"]
    assert 0.0 <= summary["shed_rate"] <= 1.0
    assert 0.0 <= summary["utilization"] <= 1.0
    assert summary["p50_latency_us"] <= summary["p95_latency_us"] <= summary["p99_latency_us"]
    served = [r for r in result.records if r.status == "served"]
    # A served request never waited past the shedding deadline.
    assert all(r.queue_us <= 15.0 + 1e-9 for r in served)
    # finish = start + service is rounded once more before subtracting the
    # arrival, so compare with a one-ulp-scale tolerance.
    assert all(r.latency_us >= r.service_us - 1e-9 * max(1.0, r.finish_us) for r in served)


def test_fifo_serves_in_admission_order(cost_model):
    result = simulate_serving(SMALL_WORKLOAD.at_load(4.0), SchedulerConfig(), model=cost_model)
    served = [r for r in result.records if r.status == "served"]
    batch_ids = [r.batch_id for r in sorted(served, key=lambda r: r.arrival_us)]
    assert batch_ids == sorted(batch_ids)


def test_context_memoizes_serving_summaries(cost_model):
    ctx = SimulationContext()
    scheduler = SchedulerConfig()
    first = ctx.serving_summary(SMALL_WORKLOAD, scheduler, SMALL_COST)
    hits = ctx.stats.hits
    second = ctx.serving_summary(SMALL_WORKLOAD, scheduler, SMALL_COST)
    assert second is first
    assert ctx.stats.hits == hits + 1
    direct = simulate_serving(SMALL_WORKLOAD, scheduler, model=cost_model).summary()
    assert first == direct


@pytest.mark.parametrize("policy", ["fifo", "sjf"])
def test_dispatch_metrics_show_whether_the_batch_budget_binds(policy):
    """On fig14's smoke workload the default 4,096-point budget never binds:
    no dispatch leaves requests queued or serves other than the FIFO prefix.
    At 256 points dispatches are budget-limited, and SJF also reorders.
    Tracing leaves the results byte-identical."""
    spec = get_experiment("fig14_serving_latency")
    counts = {}
    for budget in (4096, 256):
        params = dict(spec.smoke, policies=policy, batch_points=budget)
        untraced = spec.run(**params)
        obs.enable(wall_clock=False)
        try:
            traced = spec.run(**params)
            metrics = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        assert traced.to_json() == untraced.to_json()
        dispatches = metrics["histograms"]["serve.queued_points"]["count"]
        assert dispatches == sum(row["num_batches"] for row in traced.rows)
        counters = metrics["counters"]
        counts[budget] = (counters["serve.budget_limited"], counters["serve.reordered"])
    assert counts[4096] == (0, 0)
    assert counts[256][0] > 0
    assert (counts[256][1] > 0) == (policy == "sjf")


# ------------------------------------------------- one memory-system pass
#: Cost models for the bulk-pricing properties, built once.
COST_MODELS = [ServiceCostModel(SMALL_COST), ServiceCostModel(), ServiceCostModel(DRAM_BOUND)]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**16),
    st.sampled_from(range(len(COST_MODELS))),
    st.data(),
)
def test_costs_price_each_batch_as_if_alone(seed, model_index, data):
    """Property: one ``costs`` call prices every batch exactly as ``cost``
    does, and as the per-batch reference stream priced through the
    per-access hierarchy oracle and the per-request DRAM oracle, whether
    the batches share one pass or are split across several."""
    model = COST_MODELS[model_index]
    requests = generate_requests(
        ServeWorkloadConfig(num_tenants=2, requests_per_tenant=4, rays_min=1, rays_max=6, seed=seed)
    )
    batch = st.lists(st.sampled_from(requests), min_size=1, max_size=4, unique=True)
    batches = data.draw(st.lists(batch, max_size=6))
    table = model.compile(requests)

    pass_points = data.draw(st.sampled_from([1, 100, serve_cost.PASS_POINTS]))
    with patch.object(serve_cost, "PASS_POINTS", pass_points):
        prices = model.costs(batches, table)
    assert prices == [model.cost(batch, table) for batch in batches]
    assert model.costs(batches) == prices
    capacity = model.dram.spec.organization.total_capacity_bytes
    for batch, price in zip(batches, prices):
        stream = batch_request_stream_reference(batch, model.grid, model.grid.hash_fn, model.level)
        lines = model.hierarchy.filter_stream_reference(stream).dram_stream()
        serviced = DRAMSystem(model.dram.spec).service_requests(
            [MemoryRequest(int(a) % capacity, RequestType.READ, model.config.line_bytes)
             for a in lines.addresses]
        )
        assert price.dram_us == float(serviced.elapsed_ns * model.config.grid_levels / 1e3)
        assert price.compute_us == model.compute_us(stream.num_points)
        assert (price.num_requests, price.num_points) == (len(batch), stream.num_points)


def _priced_batch_by_batch(workload, scheduler, model, tracer=None):
    """The simulator's event loop with every dispatch priced by ``cost``."""
    requests = generate_requests(workload)
    table = model.compile(requests)

    def price(batch):
        return model.cost(batch, table)

    return simulator._serve(requests, scheduler, price, tracer or Tracer())


#: Schedulers the plan must not change the outcome of: both policies, three
#: budgets (one point dispatches every request alone), token and depth
#: admission, and a coalescing window with a shedding timeout.
PLAN_SCHEDULERS = [
    SchedulerConfig(),
    SchedulerConfig(policy=BatchPolicy.SJF, max_batch_points=256),
    SchedulerConfig(max_batch_points=256),
    SchedulerConfig(policy=BatchPolicy.SJF, max_batch_points=1),
    SchedulerConfig(admission=AdmissionConfig(tokens_per_us=0.05, bucket_capacity=2.0)),
    SchedulerConfig(policy=BatchPolicy.SJF, admission=AdmissionConfig(max_queue_depth=3)),
    SchedulerConfig(batch_window_us=5.0, timeout_us=50.0),
]


@pytest.mark.parametrize("scheduler", PLAN_SCHEDULERS)
@pytest.mark.parametrize("cost", [SMALL_COST, DRAM_BOUND], ids=["small", "dram_bound"])
@pytest.mark.parametrize("load", [1.0, 4.0])
def test_simulation_equals_the_loop_priced_batch_by_batch(scheduler, cost, load):
    """Planning the schedule compute-bound and pricing it in one ``costs``
    call gives the same result as pricing every dispatch with ``cost``."""
    model = ServiceCostModel(cost)
    workload = ServeWorkloadConfig(num_tenants=3, requests_per_tenant=10).at_load(load)
    result = simulate_serving(workload, scheduler, model=model)
    assert result == _priced_batch_by_batch(workload, scheduler, model)


def _traced_fig14(params):
    obs.enable(wall_clock=False)
    try:
        result = get_experiment("fig14_serving_latency").run(**params)
        counters = obs.get_metrics().snapshot()["counters"]
    finally:
        obs.disable()
    return result, counters


def test_plan_foresees_every_dispatch_unless_memory_binds():
    """On fig14's smoke workload no batch is DRAM-bound, so the plan forms
    every batch and one ``costs`` call prices them all.  At 16 levels behind
    a 4 KB cache DRAM binds: some dispatches fall back to ``cost``, and the
    results still equal the uninstrumented run."""
    spec = get_experiment("fig14_serving_latency")
    smoke, counters = _traced_fig14(dict(spec.smoke))
    dispatches = sum(row["num_batches"] for row in smoke.rows)
    assert counters["serve.plan_misses"] == 0
    assert counters["serve.planned_batches"] == dispatches

    dram_bound = dict(spec.smoke, grid_levels=16, cache_kb=4, loads="1.0,4.0")
    traced, counters = _traced_fig14(dram_bound)
    assert 0 < counters["serve.plan_misses"] < sum(row["num_batches"] for row in traced.rows)
    assert traced.to_json() == spec.run(**dram_bound).to_json()


#: fig14's traced ``mem.*``, ``dram.*`` and ``serve.*`` counter totals, and
#: per memory-system span the calls and the streams they price, at the smoke
#: scale and at the DRAM-bound preset.  Literal values: any rewrite of the
#: bulk pass must keep this accounting.
FIG14_ACCOUNTING = {
    "smoke": (
        {},
        {
            "dram.bank_conflicts": 34,
            "dram.bytes_transferred": 10_310_400,
            "dram.channel0.busy_cycles": 216_552,
            "dram.channel1.busy_cycles": 222_968,
            "dram.channel2.busy_cycles": 218_792,
            "dram.channel3.busy_cycles": 214_448,
            "dram.channel4.busy_cycles": 211_904,
            "dram.channel5.busy_cycles": 230_144,
            "dram.channel6.busy_cycles": 218_776,
            "dram.channel7.busy_cycles": 216_992,
            "dram.requests": 161_100,
            "dram.row_hits": 115_444,
            "dram.row_misses": 45_656,
            "mem.cache_coalesced": 1_022,
            "mem.cache_hits": 25_008,
            "mem.cache_misses": 159_832,
            "mem.dram_line_fetches": 161_100,
            "mem.l0_accesses": 485_888,
            "mem.l0_hits": 300_026,
            "mem.prefetch_fills": 1_268,
            "mem.prefetch_useful": 866,
            "mem.writebacks": 0,
            "serve.budget_limited": 0,
            "serve.plan_misses": 0,
            "serve.planned_batches": 536,
            "serve.reordered": 0,
            "serve.served": 768,
        },
        {"mem.filter_stream": (16, 536), "dram.service_batch": (16, 536)},
    ),
    "dram_bound": (
        {"grid_levels": 16, "cache_kb": 4, "loads": "1.0,4.0"},
        {
            "dram.bank_conflicts": 154,
            "dram.bytes_transferred": 21_033_600,
            "dram.channel0.busy_cycles": 454_552,
            "dram.channel1.busy_cycles": 454_600,
            "dram.channel2.busy_cycles": 478_784,
            "dram.channel3.busy_cycles": 467_264,
            "dram.channel4.busy_cycles": 437_672,
            "dram.channel5.busy_cycles": 472_680,
            "dram.channel6.busy_cycles": 463_208,
            "dram.channel7.busy_cycles": 482_200,
            "dram.requests": 328_650,
            "dram.row_hits": 270_440,
            "dram.row_misses": 58_210,
            "mem.cache_coalesced": 900,
            "mem.cache_hits": 10_324,
            "mem.cache_misses": 309_178,
            "mem.dram_line_fetches": 328_650,
            "mem.l0_accesses": 761_856,
            "mem.l0_hits": 441_454,
            "mem.prefetch_fills": 19_472,
            "mem.prefetch_useful": 1_310,
            "mem.writebacks": 0,
            "serve.budget_limited": 0,
            "serve.plan_misses": 108,
            "serve.planned_batches": 504,
            "serve.reordered": 0,
            "serve.served": 768,
        },
        {"mem.filter_stream": (124, 612), "dram.service_batch": (124, 612)},
    ),
}


@pytest.mark.parametrize("preset", sorted(FIG14_ACCOUNTING))
def test_traced_fig14_accounting_is_pinned(preset):
    """A traced fig14 run counts exactly the recorded memory, DRAM and
    serving totals, and opens one ``mem.filter_stream`` and one
    ``dram.service_batch`` span per memory-system pass: one per bulk pass
    and one per plan miss, whose ``streams`` args add up to the batches
    priced."""
    overrides, expected, spans = FIG14_ACCOUNTING[preset]
    spec = get_experiment("fig14_serving_latency")
    tracer, metrics = obs.enable(wall_clock=False)
    try:
        spec.run(**dict(spec.smoke, **overrides))
        counters = metrics.snapshot()["counters"]
        events = tracer.events()
    finally:
        obs.disable()
    counted = {
        name: value
        for name, value in counters.items()
        if name.split(".")[0] in ("mem", "dram", "serve")
    }
    assert counted == expected
    for name, (calls, streams) in spans.items():
        args = [dict(event.args) for event in events if event.name == name]
        assert (len(args), sum(a["streams"] for a in args)) == (calls, streams), name


def _serving_metrics(run):
    """The ``serve.*`` counters and histograms, and the ``serve.batch`` span
    args, that ``run(tracer)`` records."""
    tracer, metrics = obs.enable(wall_clock=False)
    try:
        run(tracer)
        snapshot = metrics.snapshot()
    finally:
        obs.disable()
    serving = {
        name: value
        for kind in ("counters", "histograms")
        for name, value in snapshot[kind].items()
        if name.startswith("serve.")
    }
    spans = [event.args for event in tracer.events() if event.name == "serve.batch"]
    return serving, spans


def test_plan_pass_emits_no_serving_metric():
    """The traced ``serve.*`` counters and histograms and the batch spans are
    those of the event loop priced batch by batch: the plan pass emits none."""
    model = ServiceCostModel(SMALL_COST)
    workload = SMALL_WORKLOAD.at_load(8.0)
    scheduler = SchedulerConfig(
        policy=BatchPolicy.SJF,
        max_batch_points=64,
        timeout_us=10.0,
        admission=AdmissionConfig(max_queue_depth=4),
    )
    planned, planned_spans = _serving_metrics(
        lambda tracer: simulate_serving(workload, scheduler, model=model)
    )
    alone, alone_spans = _serving_metrics(
        lambda tracer: _priced_batch_by_batch(workload, scheduler, model, tracer)
    )
    assert planned.pop("serve.plan_misses") <= planned.pop("serve.planned_batches")
    assert planned == alone
    assert planned_spans == alone_spans
    assert planned["serve.shed"] > 0 and planned["serve.rejected"] > 0
