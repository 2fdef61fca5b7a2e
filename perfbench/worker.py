"""One workload process: set up, run a closed loop of ops, report JSON.

Started by ``run.py`` (one fresh process per workload run).  Modes:

* ``setup`` — build the workload and run the warm-up ops, report the time
  from process spawn to the point where the first timed op would start;
* ``run`` — the same set-up, then ``--seconds`` of ops issued back to back
  by one caller thread, untraced; reports the end-to-end metrics;
* ``trace`` — the same set-up, half the time untraced and half with spans
  around every layer call (``spans.py``); reports the per-layer metrics
  and writes the spans as a Chrome trace under ``.perfbench/``.

Every time reported is divided by the host factor measured around it
(``calibrate.py``).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from calibrate import Calibrator
from spans import LAYERS, SpanRecorder
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench"

#: Ops run before timing starts (they count toward set-up).
WARMUP_OPS = 3
#: Op indices of the warm-up ops, away from the timed ones.
WARMUP_BASE = 1_000_000
#: Timed ops per run at least, so p90 has 10 samples beyond it.
MIN_OPS = 100
#: A phase stops at this multiple of its time budget even short of MIN_OPS.
MAX_OVERRUN = 3.0
#: Ops per calibrated chunk (even, so memsys chunks hold read/write pairs).
CHUNK_OPS = 2
#: Ops whose counts the traced run reports (the first of the traced phase).
COUNT_OPS = 32
#: Op id of the replayed op that checks counts repeat exactly.
REPLAY_OP = -2


@dataclass
class Phase:
    """Timed ops of one closed loop, in host-normalized seconds."""

    latencies: list[float]
    work: list[int]
    #: ``(first, end)`` op ranges and the host factor each was timed under.
    chunks: list[tuple[int, int]]
    factors: list[float]
    failed: int

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank percentile of the op latencies."""
        ordered = sorted(self.latencies)
        return 1e3 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]

    def work_per_s(self) -> float:
        """Median over chunks of work units per op-second."""
        return statistics.median(
            sum(self.work[a:b]) / sum(self.latencies[a:b]) for a, b in self.chunks
        )

    def op_factors(self) -> list[float]:
        return [f for (a, b), f in zip(self.chunks, self.factors) for _ in range(a, b)]


def run_phase(
    workload: Any,
    seconds: float,
    min_ops: int,
    call: Callable[[int], Any],
    calibrator: Calibrator,
) -> Phase:
    """Ops back to back for ``seconds``, calibrating between chunks."""
    raw: list[float] = []
    work: list[int] = []
    chunks: list[tuple[int, int]] = []
    factors: list[float] = []
    failed = 0
    before = calibrator.factor()
    first = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        index = len(raw)
        done = elapsed >= seconds and index >= min_ops or elapsed >= MAX_OVERRUN * seconds
        if index > first and (index - first == CHUNK_OPS or done):
            after = calibrator.factor()
            chunks.append((first, index))
            factors.append((before + after) / 2)
            before, first = after, index
        if done:
            break
        t0 = time.perf_counter()
        output = call(index)
        raw.append(time.perf_counter() - t0)
        units, ok = workload.check(index, output)
        work.append(units)
        failed += not ok
    latencies = [raw[i] / f for (a, b), f in zip(chunks, factors) for i in range(a, b)]
    return Phase(latencies, work, chunks, factors, failed)


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def layer_metrics(recorder: SpanRecorder, traced: Phase, untraced: Phase) -> dict[str, Any]:
    """Per-layer self time, calls and share, plus counts read from results."""
    self_ns, calls, total_ns, ops = recorder.fold(traced.op_factors())
    metrics: dict[str, Any] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = metric(self_ns[layer] / 1e6 / ops, "ms")
        metrics[f"{layer}.calls"] = metric(calls[layer] / ops, "count")
        metrics[f"{layer}.share"] = metric(self_ns[layer] / total_ns, "fraction")

    def total(key: str, op_ids: range) -> float:
        return sum(recorder.op_counts[op].get(key, 0.0) for op in op_ids)

    first = range(COUNT_OPS)

    def per_op(key: str) -> float:
        return total(key, first) / COUNT_OPS

    def ratio(num: str, den: str) -> float:
        denominator = total(den, first)
        return total(num, first) / denominator if denominator else 0.0

    all_requests = total("dram.requests", range(ops))
    metrics.update(
        {
            "mem.accesses": metric(per_op("mem.accesses"), "count"),
            "mem.dram_lines": metric(per_op("mem.dram_lines"), "count"),
            "mem.hit_rate": metric(ratio("mem.onchip_hits", "mem.accesses"), "fraction"),
            "dram.requests": metric(per_op("dram.requests"), "count"),
            "dram.requests_per_call": metric(ratio("dram.requests", "dram.calls"), "count"),
            "dram.row_hit_rate": metric(ratio("dram.row_hits", "dram.requests"), "fraction"),
            "dram.sim_cycles": metric(per_op("dram.sim_cycles"), "cycles"),
            "dram.host_ns_per_request": metric(
                self_ns["dram.service_batch"] / all_requests if all_requests else 0.0, "ns"
            ),
            "serve.batches": metric(per_op("serve.batches"), "count"),
            "serve.requests_per_batch": metric(
                ratio("serve.batched_requests", "serve.batches"), "count"
            ),
            "nerf.points_per_op": metric(per_op("nerf.points"), "count"),
            "trace.work_ratio": metric(traced.work_per_s() / untraced.work_per_s(), "ratio"),
            "host.factor": metric(statistics.median(traced.factors), "ratio"),
        }
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    for index in range(WARMUP_BASE, WARMUP_BASE + WARMUP_OPS):
        workload.check(index, workload.op(index))
    setup_raw_s = time.monotonic() - args.spawned_at
    calibrator = Calibrator()
    # About half of set-up (imports, first-touch page faults) does not slow
    # with the host factor, so set-up is divided by the factor's midpoint
    # with 1 (measured on train, train-fp16 and memsys set-ups).
    setup_s = setup_raw_s / ((1 + calibrator.factor()) / 2)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.mode == "run":
        phase = run_phase(workload, args.seconds, MIN_OPS, workload.op, calibrator)
        ops, failed = len(phase.latencies), phase.failed
        metrics = {
            "work_per_s": metric(phase.work_per_s(), "units/s"),
            "op_ms_p50": metric(phase.percentile_ms(0.5), "ms"),
            "op_ms_p90": metric(phase.percentile_ms(0.9), "ms"),
            # ru_maxrss is VmHWM, in KiB on Linux.
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        checks = workload.final_checks()
    else:
        half = args.seconds / 2
        untraced = run_phase(workload, half, COUNT_OPS, workload.op, calibrator)
        recorder = SpanRecorder()
        recorder.install()
        try:
            traced = run_phase(
                workload,
                half,
                COUNT_OPS,
                lambda index: recorder.run_op(index, lambda: workload.op(index)),
                calibrator,
            )
            metrics = layer_metrics(recorder, traced, untraced)
            recorder.run_op(REPLAY_OP, lambda: workload.op(0))
        finally:
            recorder.uninstall()
        ops = len(untraced.latencies) + len(traced.latencies)
        failed = untraced.failed + traced.failed
        recorder.write_chrome_trace(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        checks = workload.final_checks()
        checks["counts_replay_exactly"] = recorder.op_counts[REPLAY_OP] == recorder.op_counts[0]

    attempted = ops + len(checks)
    failed += sum(not ok for ok in checks.values())
    if args.mode == "run":
        metrics["ok_rate"] = metric(1 - failed / attempted, "fraction")
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "attempted": attempted,
                "failed": failed,
                "failed_checks": sorted(name for name, ok in checks.items() if not ok),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
