"""In-memory spans around calls into each layer, folded into self time.

The traced run wraps the public functions of each layer (see ``LAYERS``)
from outside the program: :meth:`SpanRecorder.install` replaces the class
methods and module attributes in this process only, nothing under ``src/``
is edited.  Every call records one span ``(layer, start, end, parent, op)``
in memory; :meth:`SpanRecorder.fold` turns the spans into self time per
layer (a span's duration minus the part its child spans cover), and
:meth:`SpanRecorder.write_chrome_trace` exports them once, at exit, through
``repro.obs.write_chrome_trace``.

Some wrappers also read deterministic counts from the objects the layer
returns (lines a filtered stream still sends to DRAM, requests a DRAM batch
serviced, batches a serving run dispatched), so those counts are measured
where the work happens rather than re-derived by the benchmark.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: Root span of every op; its self time is the benchmark's own glue code.
OP_LAYER = "bench.op"

#: Layer name -> the functions whose calls it times, as
#: ``(module, attribute path)``.  Order is the report order.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    OP_LAYER: (),
    "nerf.trainer": (("repro.nerf.trainer", "Trainer.train_step"),),
    "scenes.sample_ray_batch": (
        ("repro.scenes.dataset", "SyntheticNeRFDataset.sample_ray_batch"),
    ),
    "nerf.field": (
        ("repro.nerf.field", "InstantNGPField.forward"),
        ("repro.nerf.field", "InstantNGPField.backward"),
    ),
    "nerf.encoding.forward": (("repro.nerf.encoding", "HashGridEncoding.forward"),),
    "nerf.encoding.backward": (("repro.nerf.encoding", "HashGridEncoding.backward"),),
    "nerf.mlp.forward": (("repro.nerf.mlp", "MLP.forward"),),
    "nerf.mlp.backward": (("repro.nerf.mlp", "MLP.backward"),),
    "nerf.volume_rendering": (
        ("repro.nerf.trainer", "render_rays"),
        ("repro.nerf.trainer", "render_rays_backward"),
    ),
    "nerf.adam.step": (("repro.nerf.adam", "Adam.step"),),
    "workloads.trace": (
        ("repro.pipeline.context", "generate_batch_points"),
        ("repro.pipeline.context", "point_order"),
        ("repro.pipeline.context", "level_lookup_indices"),
        ("repro.pipeline.context", "cube_ids"),
    ),
    "pipeline.context": (
        ("repro.pipeline.context", "SimulationContext.request_stream"),
        ("repro.pipeline.context", "SimulationContext.stream_filtered"),
        ("repro.pipeline.context", "SimulationContext.stream_serviced"),
    ),
    "accel.step_cost": (("repro.accel.nmp", "NMPAccelerator.step_cost"),),
    "mem.filter_stream": (("repro.mem.hierarchy", "CacheHierarchy.filter_stream"),),
    "dram.service_batch": (("repro.dram.system", "DRAMSystem.service_batch"),),
    "serve.simulate": (("repro.serve.simulator", "simulate_serving"),),
    "serve.generate_requests": (("repro.serve.simulator", "generate_requests"),),
    "serve.cost": (("repro.serve.cost", "ServiceCostModel.cost"),),
    "serve.batch_stream": (("repro.serve.cost", "ServiceCostModel.batch_stream"),),
}


def _count_trainer(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    counts["nerf.points"] += args[0].history.samples_evaluated[-1]


def _count_filter(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    stats = result.stats
    counts["mem.accesses"] += stats.l0_accesses
    counts["mem.onchip_hits"] += stats.l0_hits + stats.cache.hits + stats.cache.coalesced
    counts["mem.dram_lines"] += int(result.dram_lines.size)


def _count_dram(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    counts["dram.calls"] += 1
    counts["dram.requests"] += result.total_requests
    counts["dram.row_hits"] += result.row_hits
    counts["dram.sim_cycles"] += result.total_cycles


def _count_serving(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    counts["serve.batches"] += len(result.batches)
    counts["serve.batched_requests"] += sum(batch.num_requests for batch in result.batches)


#: Counts read from what a wrapped function returns, keyed like ``LAYERS``.
COUNTERS: dict[tuple[str, str], Callable[[dict[str, float], tuple[Any, ...], Any], None]] = {
    ("repro.nerf.trainer", "Trainer.train_step"): _count_trainer,
    ("repro.mem.hierarchy", "CacheHierarchy.filter_stream"): _count_filter,
    ("repro.dram.system", "DRAMSystem.service_batch"): _count_dram,
    ("repro.serve.simulator", "simulate_serving"): _count_serving,
}


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    """The object holding the attribute ``path`` names, and the attribute."""
    import importlib

    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class SpanRecorder:
    """Records nested spans around layer calls, one op at a time."""

    def __init__(self) -> None:
        #: One ``[layer, start_ns, end_ns, parent_index, op]`` list per span.
        self.spans: list[list[Any]] = []
        #: Counts read from returned objects, per op.
        self.op_counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op: int | None = None
        self._installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter_ns(), 0, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op: int, fn: Callable[[], Any]) -> Any:
        """Call ``fn()`` as op ``op``, under the op's root span."""
        self._op = op
        index = self._open(OP_LAYER)
        try:
            return fn()
        finally:
            self._close(index)
            self._op = None

    def _wrap(self, layer: str, original: Callable[..., Any], counter: Any) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = recorder._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(index)
            if counter is not None and recorder._op is not None:
                counter(recorder.op_counts[recorder._op], args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function named in ``LAYERS`` (this process only)."""
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                counter = COUNTERS.get((module_name, path))
                setattr(owner, attr, self._wrap(layer, original, counter))
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -------------------------------------------------------------- folding
    def fold(self, factors: list[float]) -> tuple[dict[str, float], dict[str, int], float, int]:
        """Self nanoseconds and calls per layer, total op nanoseconds, ops.

        Times are divided by ``factors[op]``, the host factor of the chunk
        each op ran in (see ``calibrate.py``).  Self times partition the op
        root spans exactly, so they sum to the total op time.
        """
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        total_ns = 0.0
        ops = 0
        for index, (layer, start, end, parent, op) in enumerate(self.spans):
            self_ns[layer] += (end - start - child_ns[index]) / factors[op]
            calls[layer] += 1
            if parent < 0:
                total_ns += (end - start) / factors[op]
                ops += 1
        return self_ns, calls, total_ns, ops

    # --------------------------------------------------------------- export
    def write_chrome_trace(self, path: Path) -> Path:
        """Export the spans as a Perfetto-loadable Chrome trace."""
        from repro.obs import TraceEvent, write_chrome_trace

        origin = self.spans[0][1] if self.spans else 0
        pid, tid = os.getpid(), threading.get_ident() & 0xFFFF
        events = [
            TraceEvent(
                name=layer,
                category=layer.split(".")[0],
                phase="X",
                tick=index,
                dur_ticks=0,
                pid=pid,
                tid=tid,
                wall_us=(start - origin) / 1e3,
                wall_dur_us=(end - start) / 1e3,
                args=(("op", op), ("parent", parent)),
            )
            for index, (layer, start, end, parent, op) in enumerate(self.spans)
        ]
        return write_chrome_trace(path, events)
