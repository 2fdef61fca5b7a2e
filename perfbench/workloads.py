"""The benchmark's four workloads: seeded inputs, one op, and its checks.

Each workload builds everything it needs in ``__init__`` (that is set-up
time), then exposes

* ``op(index)`` — one timed operation; its inputs depend only on the run
  seed and ``index`` (the train workloads also on the trainer state, which
  advances one step per op);
* ``check(index, output)`` — untimed: the op's work units and whether its
  output passed the correctness checks;
* ``final_checks()`` — untimed run-level checks against the repository's
  reference oracles, by name.

Ops of one workload are homogeneous: the same code path on inputs of the
same size, so per-op percentiles describe one kind of op.
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace
from typing import Any

import numpy as np

from repro.accel.nmp import NMPAccelerator
from repro.core.hashing import MortonLocalityHash
from repro.core.streaming import StreamingOrder
from repro.dram.system import DRAMSystem
from repro.dram.trace import MemoryRequest, RequestType
from repro.experiments.tab05_psnr_precision import PrecisionRunConfig
from repro.mem.hierarchy import CacheHierarchy
from repro.nerf.encoding import HashGridConfig
from repro.nerf.field import InstantNGPField
from repro.nerf.trainer import Trainer
from repro.pipeline.context import SimulationContext
from repro.serve import simulator
from repro.serve.cost import ServiceCostConfig, ServiceCostModel
from repro.serve.scheduler import SchedulerConfig
from repro.serve.workload import ServeWorkloadConfig
from repro.streams.ir import StreamKind
from repro.workloads.traces import TraceConfig

#: tab05's documented bound on the fp16 held-out PSNR drop against fp32.
FP16_PSNR_DROP_DB = 0.5
#: Trainer steps after which the fp16 field is compared with an fp32 twin
#: (tab05 trains 100 iterations).  Later, the two small-batch trajectories
#: drift apart by up to ~0.5 dB either way, seed to seed.
PSNR_CHECK_STEPS = 100


def op_seed(seed: int, index: int) -> int:
    """Decorrelated input seed of one op."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def dram_lines(filtered: Any, stream: Any) -> Any:
    """The lines a filtered stream sends to DRAM, in the stream's direction."""
    lines = filtered.dram_stream()
    return replace(lines, kind=StreamKind.WRITE) if stream.writes else lines


class TrainWorkload:
    """``Trainer.train_step`` on lego at tab05's reduced geometry.

    8 levels, a 2^14-entry table, 32 samples per ray.  ``dtype`` picks the
    hash-table (and MLP) precision; rendering the dataset is set-up.
    """

    def __init__(self, seed: int, dtype: str, rays_per_batch: int):
        self.seed = seed
        self.dtype = dtype
        self.config = replace(PrecisionRunConfig(), rays_per_batch=rays_per_batch, seed=seed)
        self.dataset = SimulationContext().dataset("lego", self.config.dataset_config())
        self.trainer = self._trainer(dtype)
        self.points_per_op = rays_per_batch * self.config.samples_per_ray
        self.snapshot: InstantNGPField | None = None

    def _trainer(self, dtype: str) -> Trainer:
        # The field tab05's train_precision_on_scene builds.
        field = InstantNGPField(
            self.config.grid_config(dtype),
            hidden_dim=32,
            geo_features=7,
            rng=np.random.default_rng(self.seed),
        )
        return Trainer(field, self.dataset, self.config.trainer_config(dtype))

    def op(self, index: int) -> float:
        return self.trainer.train_step()

    def _snapshot_if_due(self) -> None:
        steps = len(self.trainer.history.samples_evaluated)
        if self.dtype == "fp16" and steps == PSNR_CHECK_STEPS:
            self.snapshot = copy.deepcopy(self.trainer.field)

    def check(self, index: int, loss: float) -> tuple[int, bool]:
        self._snapshot_if_due()
        return self.points_per_op, math.isfinite(loss)

    def final_checks(self) -> dict[str, bool]:
        if self.dtype != "fp16":
            return {}
        while self.snapshot is None:
            self.trainer.train_step()
            self._snapshot_if_due()
        # An fp32 twin trained on the same batches for the same number of
        # steps bounds the precision cost, as tab05 does.
        twin = self._trainer("fp32")
        for _ in range(PSNR_CHECK_STEPS):
            twin.train_step()
        fp16 = Trainer(self.snapshot, self.dataset, self.trainer.config).evaluate()
        drop = twin.evaluate() - fp16
        return {"fp16_psnr_within_0.5dB_of_fp32": drop <= FP16_PSNR_DROP_DB}


class MemsysWorkload:
    """One level's lookup stream through front end, hierarchy and DRAM.

    Paper-scale 16-level grid, finest level, lego scene trace (64 rays x 64
    samples), ray-first order, Morton hash, the default hierarchy and
    LPDDR4-2400.  Even ops stream the forward gather (reads); odd ops its
    backward scatter twin (writes) on the same trace seed.  Every op uses a
    fresh :class:`SimulationContext`, so every op rebuilds its stream.
    """

    dram = "lpddr4-2400"
    num_rays = 64
    points_per_ray = 64

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = HashGridConfig(num_levels=16)
        self.level = self.grid.num_levels - 1
        self.hash_fn = MortonLocalityHash()
        self.hierarchy = CacheHierarchy()
        self.line_bytes = self.hierarchy.cache.line_bytes
        self.counts: dict[int, tuple[Any, ...]] = {}

    def trace(self, index: int) -> TraceConfig:
        return TraceConfig(
            num_rays=self.num_rays,
            points_per_ray=self.points_per_ray,
            seed=op_seed(self.seed, index // 2),
            scene="lego",
        )

    def op(self, index: int) -> tuple[Any, ...]:
        writes = index % 2 == 1
        ctx = SimulationContext()
        stream = ctx.request_stream(
            self.grid, self.trace(index), self.hash_fn, StreamingOrder.RAY_FIRST, self.level
        )
        if writes:
            stream = replace(stream, kind=StreamKind.WRITE)
        filtered = ctx.stream_filtered(self.hierarchy, stream)
        lines = dram_lines(filtered, stream)
        serviced = ctx.stream_serviced(self.dram, lines, size_bytes=self.line_bytes)
        step = NMPAccelerator(cache_stats=filtered.stats).step_cost("HT_b" if writes else "HT")
        return stream, filtered, serviced, step

    @staticmethod
    def _counts(output: tuple[Any, ...]) -> tuple[Any, ...]:
        _, filtered, serviced, step = output
        return (filtered.stats, serviced, step)

    def check(self, index: int, output: tuple[Any, ...]) -> tuple[int, bool]:
        stream, filtered, serviced, step = output
        if index < 2:
            self.counts[index] = self._counts(output)
        ok = (
            filtered.stats.l0_accesses == stream.num_accesses
            and serviced["total_requests"] == filtered.dram_lines.size
            and serviced["row_hits"] + serviced["row_misses"] == serviced["total_requests"]
            and math.isfinite(step.seconds)
            and step.seconds > 0
        )
        return stream.num_accesses, ok

    def final_checks(self) -> dict[str, bool]:
        spec = SimulationContext().dram_spec(self.dram)
        capacity = spec.organization.total_capacity_bytes
        checks: dict[str, bool] = {}
        for index, direction in ((0, "read"), (1, "write")):
            output = self.op(index)
            checks[f"{direction}_op_replays_exactly"] = self._counts(output) == self.counts.get(
                index
            )
            stream, filtered, serviced, _ = output
            oracle = self.hierarchy.filter_stream_reference(stream)
            checks[f"{direction}_filter_matches_reference"] = (
                np.array_equal(filtered.dram_lines, oracle.dram_lines)
                and filtered.stats == oracle.stats
            )
            lines = dram_lines(filtered, stream)
            batch = DRAMSystem(spec).service_batch(lines, size_bytes=self.line_bytes)
            kind = RequestType.WRITE if stream.writes else RequestType.READ
            per_request = DRAMSystem(spec).service_requests(
                [MemoryRequest(int(a) % capacity, kind, self.line_bytes) for a in lines.addresses]
            )
            checks[f"{direction}_dram_matches_per_request_path"] = (
                batch == per_request
                and batch.total_requests == serviced["total_requests"]
                and batch.total_cycles == serviced["total_cycles"]
            )
        return checks


class ServeWorkload:
    """fig14's ``simulate_serving`` on one small arrival sequence per op.

    4 tenants x 8 Poisson requests at an offered load where most batches
    hold one or two requests; fig14's default cost model and scheduler.
    """

    tenants = 4
    requests_per_tenant = 8
    offered_load = 2.0

    def __init__(self, seed: int):
        self.seed = seed
        self.model = ServiceCostModel(ServiceCostConfig())
        self.scheduler = SchedulerConfig()

    def arrivals(self, index: int) -> ServeWorkloadConfig:
        return ServeWorkloadConfig(
            num_tenants=self.tenants,
            requests_per_tenant=self.requests_per_tenant,
            offered_load=self.offered_load,
            seed=op_seed(self.seed, index),
        )

    def op(self, index: int) -> simulator.ServingResult:
        return simulator.simulate_serving(self.arrivals(index), self.scheduler, model=self.model)

    def check(self, index: int, result: simulator.ServingResult) -> tuple[int, bool]:
        summary = result.summary()
        offered = self.arrivals(index).num_requests
        outcomes = summary["served"] + summary["shed"] + summary["rejected"]
        ok = outcomes == offered and len(result.records) == offered
        return int(summary["served"]), ok

    def final_checks(self) -> dict[str, bool]:
        # A one-point budget dispatches every request alone, which is
        # exactly the per-request FIFO oracle.
        arrivals = self.arrivals(0)
        alone = simulator.simulate_serving(
            arrivals, SchedulerConfig(max_batch_points=1), model=self.model
        )
        oracle = simulator.simulate_serving_reference(arrivals, model=self.model)
        return {
            "one_request_batches_match_reference": [
                (r.request_id, r.start_us, r.finish_us) for r in alone.records
            ]
            == [(r.request_id, r.start_us, r.finish_us) for r in oracle.records]
        }


#: Workload name -> constructor from the run seed.
WORKLOADS = {
    "train": lambda seed: TrainWorkload(seed, "fp32", rays_per_batch=160),
    # float16 matmul has no BLAS path, so an fp16 step costs ~13x an fp32
    # one; 16 rays keep an op near 60-80 ms so a run holds 100+ ops.
    "train-fp16": lambda seed: TrainWorkload(seed, "fp16", rays_per_batch=16),
    "memsys": MemsysWorkload,
    "serve": ServeWorkload,
}
