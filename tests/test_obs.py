"""Tests for ``repro.obs``: dual-clock tracing, metrics, Chrome export.

Covers the null-object (disabled) contracts, the recording implementations,
the Chrome trace-event document and its validator, cross-subsystem span
coverage, and the load-bearing guarantee that instrumentation never changes
what the pipeline computes (byte-identical sweep artifacts with obs on/off,
across executors and fresh-vs-resume).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.accel.nmp import NMPAccelerator
from repro.dram.system import DRAMSystem
from repro.mem import CacheConfig, CacheHierarchy, PrefetcherConfig
from repro.nerf.encoding import HashGridConfig
from repro.nerf.field import InstantNGPField
from repro.nerf.occupancy import OccupancyGrid, OccupancyGridConfig
from repro.nerf.trainer import Trainer, TrainerConfig
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    NullMetricsRegistry,
    RecordingTracer,
    SpanHandle,
    TraceEvent,
    Tracer,
    chrome_trace_document,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.pipeline.store import ArtifactStore
from repro.serve import ServeWorkloadConfig, ServiceCostConfig, ServiceCostModel, generate_requests
from repro.streams import RequestStream, StreamKind
from repro.pipeline.sweep import ProcessSweepExecutor, sweep

FIG07_GRID = {"hash": ["morton", "original"]}
FIG07_EXTRA = {"rays": "16", "points_per_ray": "16"}


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends with the null observability state."""
    obs.disable()
    yield
    obs.disable()


# ------------------------------------------------------------- null objects
def test_disabled_state_is_shared_null_objects():
    assert not obs.is_enabled()
    tracer = obs.get_tracer()
    assert type(tracer) is Tracer and not tracer.enabled
    # The disabled span path allocates nothing: every span IS the singleton.
    span = tracer.span("anything", "pipeline")
    assert span is NULL_SPAN and not span.enabled
    with span as inner:
        assert inner is NULL_SPAN
        inner.set_cycles(123)
        inner.add_args(ignored=True)
    tracer.instant("nothing", "pipeline")
    assert tracer.events() == [] and tracer.drain() == []

    metrics = obs.get_metrics()
    assert isinstance(metrics, NullMetricsRegistry) and not metrics.enabled
    # Null instruments are shared singletons, not per-name allocations.
    assert metrics.counter("a") is metrics.counter("b")
    assert metrics.gauge("a") is metrics.gauge("b")
    assert metrics.histogram("a") is metrics.histogram("b")
    metrics.counter("a").inc()
    metrics.gauge("a").set(1.0)
    metrics.histogram("a").observe(2.0)
    assert metrics.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_enable_disable_roundtrip():
    tracer, metrics = obs.enable(wall_clock=False)
    assert obs.is_enabled()
    assert obs.get_tracer() is tracer and obs.get_metrics() is metrics
    assert isinstance(tracer, RecordingTracer) and not tracer.wall_clock
    obs.disable()
    assert not obs.is_enabled()
    assert obs.get_tracer() is not tracer


# ---------------------------------------------------------------- recording
def test_spans_nest_with_monotonic_ticks():
    tracer, _ = obs.enable(wall_clock=False)
    with tracer.span("outer", "pipeline") as outer:
        assert isinstance(outer, SpanHandle) and outer.enabled
        with tracer.span("inner", "mem") as inner:
            inner.set_cycles(42)
            inner.add_args(depth=2)
        tracer.instant("marker", "pipeline", note="hi")
    events = tracer.events()
    assert [e.name for e in events] == ["inner", "marker", "outer"]
    inner_ev, marker_ev, outer_ev = events
    assert outer_ev.tick < inner_ev.tick  # outer opened first
    assert inner_ev.cycles == 42 and dict(inner_ev.args)["depth"] == 2
    assert inner_ev.category == "mem" and inner_ev.phase == "X"
    assert marker_ev.phase == "i" and dict(marker_ev.args)["note"] == "hi"
    # wall_clock=False keeps the deterministic timeline only.
    assert all(e.wall_us is None for e in events)


def test_span_records_error_name_on_exception():
    tracer, _ = obs.enable(wall_clock=False)
    with pytest.raises(ValueError):
        with tracer.span("boom", "pipeline"):
            raise ValueError("nope")
    (event,) = tracer.events()
    assert dict(event.args)["error"] == "ValueError"


def test_drain_empties_events_but_keeps_ticks_monotonic():
    tracer, _ = obs.enable(wall_clock=False)
    with tracer.span("first", "pipeline"):
        pass
    first = tracer.drain()
    assert [e.name for e in first] == ["first"] and tracer.events() == []
    with tracer.span("second", "pipeline"):
        pass
    (second,) = tracer.events()
    assert second.tick > first[0].tick


def test_ingest_merges_foreign_events():
    tracer, _ = obs.enable(wall_clock=False)
    foreign = TraceEvent(
        name="worker", category="pipeline", phase="X", tick=7, dur_ticks=1, pid=999, tid=1
    )
    tracer.ingest([foreign])
    assert foreign in tracer.events()


# ------------------------------------------------------------------ metrics
def test_metrics_counter_gauge_histogram_and_snapshot():
    registry = MetricsRegistry()
    registry.counter("hits").inc()
    registry.counter("hits").inc(2)
    registry.gauge("depth").set(4.0)
    hist = registry.histogram("lat")
    for v in (1.0, 2.0, 3.0):
        hist.observe(v)
    assert registry.counter("hits").value == 3
    assert hist.mean == 2.0
    snap = registry.snapshot()
    assert snap["counters"] == {"hits": 3.0}
    assert snap["gauges"] == {"depth": 4.0}
    assert snap["histograms"]["lat"] == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0}


def test_metrics_merge_pools_counters_and_histograms():
    registry = MetricsRegistry()
    registry.counter("hits").inc(3)
    registry.gauge("depth").set(1.0)
    registry.histogram("lat").observe(2.0)
    snap = registry.snapshot()
    registry.merge(snap)
    merged = registry.snapshot()
    assert merged["counters"]["hits"] == 6.0
    assert merged["gauges"]["depth"] == 1.0  # last-wins, not summed
    assert merged["histograms"]["lat"] == {"count": 2, "sum": 4.0, "min": 2.0, "max": 2.0}
    assert "hits" in registry.render_table()


def test_drain_metrics_resets_the_active_registry():
    obs.enable(wall_clock=False)
    obs.get_metrics().counter("x").inc(5)
    snap = obs.drain_metrics()
    assert snap["counters"]["x"] == 5.0
    assert obs.get_metrics().snapshot()["counters"] == {}
    obs.get_metrics().merge(snap)
    obs.get_metrics().merge(snap)
    assert obs.get_metrics().snapshot()["counters"]["x"] == 10.0


# -------------------------------------------------------------- chrome JSON
def test_chrome_trace_document_shape_and_export(tmp_path):
    tracer, _ = obs.enable(wall_clock=True)
    with tracer.span("work", "mem") as span:
        span.set_cycles(10)
    tracer.instant("mark", "dram")
    doc = chrome_trace_document(tracer.events())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    by_name = {e["name"]: e for e in events}
    assert by_name["work"]["ph"] == "X" and "dur" in by_name["work"]
    assert by_name["work"]["args"]["modeled_cycles"] == 10
    assert "det_tick" in by_name["work"]["args"]
    assert by_name["mark"]["ph"] == "i" and by_name["mark"]["s"] == "t"

    path = write_chrome_trace(tmp_path / "trace.json", tracer.events())
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == 2
    # The module-level convenience exporter writes the active tracer.
    exported = obs.export_chrome_trace(tmp_path / "trace2.json")
    assert validate_chrome_trace(json.loads(exported.read_text())) == 2


def test_validate_chrome_trace_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        validate_chrome_trace([])  # not a dict
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": {}})  # not a list
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [{"name": "x", "cat": "c", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]}
        )  # complete event without dur
    good = {
        "traceEvents": [
            {"name": "x", "cat": "c", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}
        ]
    }
    assert validate_chrome_trace(good) == 1


# ------------------------------------------------------- subsystem coverage
def test_trace_covers_five_subsystems(tmp_path, tiny_dataset):
    """One enabled session touching every instrumented layer of the stack."""
    tracer, metrics = obs.enable(wall_clock=False)

    store = ArtifactStore(tmp_path / "store")  # pipeline spans (store.put/get)
    store.put(("kind", "a"), {"v": 1})
    store.get(("kind", "a"))

    hierarchy = CacheHierarchy()  # mem span
    indices = ((np.arange(64, dtype=np.int64) % 16) * 8).reshape(8, 8)
    hierarchy.filter_stream(
        RequestStream(indices=indices, entry_bytes=4, table_entries=121, source="tests.obs")
    )

    dram = DRAMSystem()  # dram span
    addresses = np.arange(32, dtype=np.int64) * 64
    stream = RequestStream(
        indices=addresses.reshape(-1, 1), entry_bytes=1, table_entries=int(addresses.max()) + 1
    )
    dram.service_batch(stream, size_bytes=32)

    NMPAccelerator().step_cost("HT")  # accel span

    field = InstantNGPField(  # nerf spans
        HashGridConfig(num_levels=4, table_size=2**10, max_resolution=64),
        hidden_dim=16,
        geo_features=3,
    )
    Trainer(
        field,
        tiny_dataset,
        TrainerConfig(num_iterations=2, rays_per_batch=8, samples_per_ray=4),
    ).train()

    categories = {event.category for event in tracer.events()}
    assert {"pipeline", "mem", "dram", "accel", "nerf"} <= categories

    snap = metrics.snapshot()
    assert snap["counters"]["mem.l0_accesses"] > 0
    assert snap["counters"]["dram.requests"] == 32
    assert snap["counters"]["nerf.iterations"] == 2
    assert snap["histograms"]["accel.step_seconds"]["count"] == 1

    path = write_chrome_trace(tmp_path / "five.json", tracer.events())
    assert validate_chrome_trace(json.loads(path.read_text())) == len(tracer.events())


def test_samples_evaluated_counter_skips_pruned_samples(tiny_dataset):
    """Under occupancy pruning the counter counts evaluated samples only."""
    _, metrics = obs.enable(wall_clock=False)
    occupancy = OccupancyGridConfig(resolution=8, update_every=10_000)
    field = InstantNGPField(
        HashGridConfig(num_levels=4, table_size=2**10, max_resolution=64),
        hidden_dim=16,
        geo_features=3,
    )
    trainer = Trainer(
        field,
        tiny_dataset,
        TrainerConfig(num_iterations=2, rays_per_batch=8, samples_per_ray=4, occupancy=occupancy),
    )
    # Every other cell empty, so some samples are skipped and some evaluated.
    densities = (np.arange(occupancy.num_cells) % 2).astype(np.float32)
    trainer.occupancy_grid = OccupancyGrid.from_densities(occupancy, densities)
    history = trainer.train()
    assert 0 < history.total_samples < 2 * 8 * 4
    assert metrics.snapshot()["counters"]["nerf.samples_evaluated"] == history.total_samples


def test_filter_stream_counts_what_the_cache_knobs_changed():
    """MSHR coalescing, prefetching and write-backs each get a counter."""
    _, metrics = obs.enable(wall_clock=False)
    rng = np.random.default_rng(0)
    walk = np.arange(800, dtype=np.int64).reshape(200, 4) * 16  # one line per lookup
    indices = np.where(rng.random(walk.shape) < 0.3, rng.integers(0, 12_800, walk.shape), walk)
    hierarchy = CacheHierarchy(
        CacheConfig(capacity_bytes=2048, ways=2, mshr_latency=4), PrefetcherConfig("stride")
    )
    stats = hierarchy.filter_stream(
        RequestStream(
            indices=indices,
            entry_bytes=4,
            table_entries=12_800,
            kind=StreamKind.WRITE,
            source="tests.obs",
        )
    ).stats.cache

    counters = metrics.snapshot()["counters"]
    expected = {
        "mem.cache_coalesced": stats.coalesced,
        "mem.prefetch_fills": stats.prefetch_fills,
        "mem.prefetch_useful": stats.prefetch_useful,
        "mem.writebacks": stats.writebacks,
    }
    assert {name: counters[name] for name in expected} == expected
    assert all(expected.values())


def test_bulk_calls_count_what_one_call_per_stream_counts():
    """A traced ``costs`` pass opens one ``mem.filter_stream`` and one
    ``dram.service_batch`` span, with the batch count in its args, and its
    ``mem.*`` / ``dram.*`` counter totals equal those of ``filter_stream``
    and ``service_batch`` called once per batch stream."""
    model = ServiceCostModel(
        ServiceCostConfig(
            cache_kb=2, grid_levels=2, table_size=2**10, base_resolution=8, max_resolution=32
        )
    )
    requests = generate_requests(
        ServeWorkloadConfig(num_tenants=2, requests_per_tenant=4, rays_min=2, rays_max=8)
    )
    table = model.compile(requests)
    batches = [requests[:2], requests[2:3], requests[3:8]]

    def bulk() -> None:
        model.costs(batches, table)

    def one_by_one() -> None:
        for batch in batches:
            filtered = model.hierarchy.filter_stream(table.batch_stream(batch))
            model.dram.service_batch(filtered.dram_stream(), size_bytes=model.config.line_bytes)

    runs = []
    for run in (bulk, one_by_one):
        tracer, metrics = obs.enable(wall_clock=False)
        run()
        runs.append((tracer.events(), metrics.snapshot()["counters"]))
        obs.disable()
    (bulk_events, bulk_counts), (single_events, single_counts) = runs
    assert bulk_counts == single_counts
    for name in ("mem.cache_hits", "mem.cache_coalesced", "mem.prefetch_fills", "dram.row_hits"):
        assert bulk_counts[name] > 0, name
    assert any(name.endswith(".busy_cycles") for name in bulk_counts)
    assert [(e.name, dict(e.args)["streams"]) for e in bulk_events] == [
        ("mem.filter_stream", 3),
        ("dram.service_batch", 3),
    ]
    assert len(single_events) == 2 * len(batches)


# ------------------------------------------------------------- determinism
def test_serial_sweep_artifact_identical_with_obs_enabled():
    baseline = sweep("fig07", FIG07_GRID, executor="serial", extra_params=FIG07_EXTRA)
    obs.enable(wall_clock=True)
    traced = sweep("fig07", FIG07_GRID, executor="serial", extra_params=FIG07_EXTRA)
    assert len(obs.get_tracer().events()) > 0
    assert traced.to_json() == baseline.to_json()


def test_process_sweep_artifact_identical_and_worker_obs_aggregated():
    baseline = sweep("fig07", FIG07_GRID, executor="serial", extra_params=FIG07_EXTRA)
    tracer, metrics = obs.enable(wall_clock=True)
    traced = sweep(
        "fig07",
        FIG07_GRID,
        executor=ProcessSweepExecutor(2),
        extra_params=FIG07_EXTRA,
    )
    assert not traced.failed
    assert traced.to_json() == baseline.to_json()
    # Worker spans were shipped back over the result channel and ingested.
    cell_events = [e for e in tracer.events() if e.name == "sweep.cell"]
    assert len(cell_events) == 2
    snap = metrics.snapshot()
    assert snap["counters"]["sweep.cells_evaluated"] == 2
    # Worker-side subsystem metrics merged into the parent registry.
    assert snap["counters"].get("context.computes", 0) > 0
    assert 0.0 <= snap["gauges"]["sweep.worker_utilization"] <= 1.0


def test_resume_with_obs_matches_fresh_without(tmp_path):
    store_root = tmp_path / "store"
    fresh = sweep(
        "fig07", FIG07_GRID, executor="serial", extra_params=FIG07_EXTRA, store=store_root
    )
    obs.enable(wall_clock=True)
    resumed = sweep(
        "fig07",
        FIG07_GRID,
        executor="serial",
        extra_params=FIG07_EXTRA,
        store=store_root,
        resume=True,
    )
    assert resumed.to_json() == fresh.to_json()
    assert obs.get_metrics().snapshot()["counters"].get("sweep.cells_resumed", 0) == 2
