"""End-to-end benchmark of the Instant-NeRF reproduction (host wall time).

Usage, from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``train``, ``train-fp16``, ``memsys``, ``serve``
(or ``all``, which runs each in turn).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the traced run and reports the
per-layer metrics.  See ``perfbench/README.md`` for what each workload and
metric means.

Every run uses fresh worker processes (``worker.py``) with BLAS pinned to
one thread.  An untraced run spawns two set-up-only workers and one full
worker; ``setup_s`` is the median of the three set-up times.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "train-fp16", "memsys", "serve")
#: Set-up-only workers per untraced run, besides the full worker.
EXTRA_SETUPS = 2
#: Wall-time budget of one workload run, in seconds.
DEADLINE_S = 170.0

#: One BLAS/OpenMP thread: the ops are measured on one caller thread, and
#: a threaded BLAS would make CPU time and wall time diverge run to run.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict[str, Any]:
    """Run one worker process to completion and parse its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--mode={mode}",
        f"--spawned-at={time.monotonic()!r}",
    ]
    try:
        done = subprocess.run(
            command, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} {mode} worker timed out") from exc
    if done.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    workload: str, seed: int, seconds: int, trace: bool, deadline: float
) -> dict[str, Any]:
    if trace:
        return spawn(workload, seed, seconds, "trace", deadline)
    setups = [
        spawn(workload, seed, seconds, "setup", deadline)["setup_s"] for _ in range(EXTRA_SETUPS)
    ]
    result = spawn(workload, seed, seconds, "run", deadline)
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a repository checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    summary: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in sorted(result["metrics"].items()):
            print(f"{name:<11} {key:<36} {value['value']:>14.6g} {value['unit']}")
            summary["metrics"][prefix + key] = value
        for check in result["failed_checks"]:
            print(f"{name:<11} FAILED check: {check}")
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
