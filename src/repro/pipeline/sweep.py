"""Parallel parameter sweeps over registered experiments.

A sweep expands a parameter grid (Cartesian product, declaration order) into
cells and evaluates them through one of three interchangeable executors:

* :class:`SerialSweepExecutor` — cells run inline, in grid order.
* :class:`ThreadSweepExecutor` — a thread pool over one shared
  :class:`~repro.pipeline.context.SimulationContext`, so artifacts common to
  several cells (datasets, traces, index streams, baselines) are computed
  once.  GIL-bound, but threads share memory for free.
* :class:`ProcessSweepExecutor` — a ``ProcessPoolExecutor`` for CPU-bound
  grids.  The first cell is evaluated in the parent to populate the shared
  context, whose large ndarray artifacts (trace points, corner-index
  streams) are then exported through ``multiprocessing.shared_memory`` and
  adopted zero-copy by every worker instead of being re-pickled per cell.

Results are byte-identical across executors and worker counts: every cell is
a deterministic function of its parameters, cells are returned in grid
order regardless of completion order, and runtime provenance (executor,
worker count) is deliberately excluded from the serialized artifact.

Every cell runs with the sweep's ``base_seed`` (unless ``seed`` is swept or
pinned explicitly), so sweeping a non-stochastic axis such as the hash
function compares cells on identical sampled traces; use :func:`cell_seed`
to build a decorrelated ``seed`` axis when independent replicates are wanted.

With ``store=`` (an :class:`~repro.pipeline.store.ArtifactStore` or path)
completed cell results are persisted; ``resume=True`` then loads cells found
in the store instead of recomputing them, so an interrupted sweep continues
where it stopped — ``python -m repro sweep ... --store .repro-cache
--resume``.  A resumed sweep serializes byte-identically to a fresh one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from pathlib import Path
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from .. import obs
from ..experiments.runner import ExperimentResult, atomic_write_text
from ..obs import TraceEvent
from ..obs.clock import wall_time
from .context import SimulationContext, config_key
from .registry import ExperimentSpec, get_experiment
from .store import STORE_MISS, ArtifactStore

__all__ = [
    "SweepCell",
    "SweepResult",
    "sweep",
    "expand_grid",
    "cell_seed",
    "cell_store_key",
    "SweepExecutor",
    "SerialSweepExecutor",
    "ThreadSweepExecutor",
    "ProcessSweepExecutor",
    "resolve_executor",
]


def expand_grid(grid: dict[str, list[Any]]) -> list[dict[str, Any]]:
    """Cartesian product of a parameter grid, in declaration order."""
    if not grid:
        return [{}]
    names = list(grid)
    cells = []
    for values in itertools.product(*(grid[name] for name in names)):
        cells.append(dict(zip(names, values)))
    return cells


def cell_seed(spec_name: str, params: dict[str, Any], base_seed: int = 0) -> int:
    """Deterministic decorrelated seed derived from a cell's parameters.

    Stable across processes and platforms (SHA-256 of the canonical JSON of
    ``(spec, sorted params, base_seed)``).  :func:`sweep` itself pins every
    cell to ``base_seed`` so that sweeping a non-stochastic axis (hash
    function, scene, DRAM spec) compares cells on identical sampled traces;
    use this helper to build an explicit ``seed`` grid axis when independent
    replicates per cell are wanted instead.
    """
    payload = json.dumps(
        {"spec": spec_name, "params": params, "base_seed": base_seed},
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


def cell_store_key(
    spec: ExperimentSpec | str, params: dict[str, Any], seed: int | None
) -> tuple[Any, ...]:
    """Store key of one completed sweep cell (resume granularity).

    Keyed by the *fully bound* parameter assignment — defaults filled in and
    raw values parsed to their declared types — exactly like the run-level
    key in the CLI.  A later change to a registered default therefore
    changes the key (stale cells are never resumed), and ``--set rays=128``
    hits the same cell whether 128 is passed explicitly or is the default.
    """
    if isinstance(spec, str):
        spec = get_experiment(spec)
    return ("sweep_cell", spec.name, config_key(spec.bind(params)), seed)


def _format_cell_error(exc: BaseException) -> str:
    """Executor-independent traceback of a failed cell.

    Frames inside this module differ between the serial ``evaluate`` closure
    and the process-pool worker shim; dropping them makes a failing sweep
    serialize byte-identically across executors (the first kept frame is
    ``ExperimentSpec.run``).
    """
    tb = exc.__traceback__
    while tb is not None and tb.tb_frame.f_code.co_filename == __file__:
        tb = tb.tb_next
    return "".join(traceback.format_exception(type(exc), exc, tb, limit=8))


def _try_cell_store_key(spec: ExperimentSpec, cell: SweepCell) -> tuple[Any, ...] | None:
    """The cell's store key, or ``None`` when its raw values do not bind.

    An unparseable cell value will fail at evaluation time with a proper
    error recorded on the cell; the store simply stays out of its way.
    """
    try:
        return cell_store_key(spec, cell.params, cell.seed)
    except (KeyError, ValueError):
        return None


@dataclass
class SweepCell:
    """One evaluated grid cell.

    ``resumed`` marks cells loaded from the artifact store instead of
    evaluated; it is runtime provenance and deliberately excluded from
    :meth:`to_dict`, so a resumed sweep serializes identically to a fresh
    one.
    """

    index: int
    params: dict[str, Any]
    seed: int | None
    result: ExperimentResult | None = None
    error: str | None = None
    resumed: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "params": self.params,
            "seed": self.seed,
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.error,
        }


@dataclass
class SweepResult:
    """All cells of one sweep plus the configuration that produced them.

    ``workers`` and ``executor`` describe how the sweep *ran*, not what it
    computed, and are excluded from :meth:`to_dict`: the serialized artifact
    is byte-identical across serial, thread and process executors and any
    worker count.
    """

    spec_name: str
    grid: dict[str, list[Any]]
    base_seed: int
    workers: int
    cells: list[SweepCell] = field(default_factory=list)
    executor: str = "serial"

    @property
    def failed(self) -> list[SweepCell]:
        return [cell for cell in self.cells if cell.error is not None]

    @property
    def resumed(self) -> list[SweepCell]:
        return [cell for cell in self.cells if cell.resumed]

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec_name,
            "grid": self.grid,
            "base_seed": self.base_seed,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, directory: str | Path, overwrite: bool = False) -> Path:
        """Write ``sweep_<spec>.json`` plus per-cell result JSONs; returns the index path.

        Writes are atomic (tmp file + rename) and parent directories are
        created.  Rewriting identical content is a no-op; a differing
        existing artifact raises unless ``overwrite=True``.
        """
        directory = Path(directory)
        index_path = directory / f"sweep_{self.spec_name}.json"
        atomic_write_text(index_path, self.to_json() + "\n", overwrite=overwrite)
        for cell in self.cells:
            if cell.result is None:
                continue
            slug = "_".join(f"{k}-{v}" for k, v in cell.params.items()) or "default"
            slug = "".join(c if c.isalnum() or c in "-_." else "-" for c in slug)
            atomic_write_text(
                directory / f"{self.spec_name}_cell{cell.index:03d}_{slug}.json",
                cell.result.to_json() + "\n",
                overwrite=overwrite,
            )
        return index_path


# --------------------------------------------------------------- executors
class SweepExecutor:
    """Strategy for evaluating pending sweep cells.

    ``run`` fills ``cell.result`` / ``cell.error`` in place; ``evaluate`` is
    the sweep's per-cell closure (spec bound to the shared context) for
    in-process executors.
    """

    name = "serial"

    def run(
        self,
        spec: ExperimentSpec,
        cells: list[SweepCell],
        context: SimulationContext,
        evaluate: Callable[[SweepCell], None],
        store: ArtifactStore | None = None,
    ) -> None:
        raise NotImplementedError


class SerialSweepExecutor(SweepExecutor):
    """Cells run inline, in grid order."""

    name = "serial"

    def run(
        self,
        spec: ExperimentSpec,
        cells: list[SweepCell],
        context: SimulationContext,
        evaluate: Callable[[SweepCell], None],
        store: ArtifactStore | None = None,
    ) -> None:
        for cell in cells:
            evaluate(cell)


class ThreadSweepExecutor(SweepExecutor):
    """Thread pool over one shared context (artifacts computed once)."""

    name = "thread"

    def __init__(self, workers: int = 4):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers

    def run(
        self,
        spec: ExperimentSpec,
        cells: list[SweepCell],
        context: SimulationContext,
        evaluate: Callable[[SweepCell], None],
        store: ArtifactStore | None = None,
    ) -> None:
        if len(cells) <= 1 or self.workers == 1:
            for cell in cells:
                evaluate(cell)
            return
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            list(pool.map(evaluate, cells))


# Worker-side state of the process executor, installed by the initializer.
_WORKER_STATE: dict[str, Any] = {}


def _attach_shared_array(entry: dict[str, Any]) -> tuple[shared_memory.SharedMemory, NDArray[Any]]:
    """Map one exported segment as a read-only ndarray (no tracker churn).

    The parent owns the segment's lifetime (it unlinks after the pool
    drains), so worker-side attachment must not register with the resource
    tracker — a worker's registration would fight the parent's over the
    shared tracker process.  Python 3.13 has ``track=False`` for exactly
    this; earlier versions get the registration suppressed during attach.
    """
    try:
        shm = shared_memory.SharedMemory(name=entry["name"], track=False)
    except TypeError:  # Python < 3.13: no track=; suppress the registration
        from multiprocessing import resource_tracker
        from unittest import mock

        with mock.patch.object(resource_tracker, "register", lambda *a, **k: None):
            shm = shared_memory.SharedMemory(name=entry["name"])
    array = np.ndarray(tuple(entry["shape"]), dtype=np.dtype(entry["dtype"]), buffer=shm.buf)
    array.flags.writeable = False
    return shm, array


def _process_worker_init(
    spec_name: str,
    store_root: str | None,
    manifest: list[dict[str, Any]],
    obs_enabled: bool = False,
    obs_wall: bool = False,
) -> None:
    """Initializer run once per worker process.

    Builds the worker's :class:`SimulationContext` (store-backed when the
    sweep has one) and seeds it with the parent's shared-memory arrays, so
    large artifacts cross the process boundary exactly once, zero-copy.
    When the parent has observability enabled the worker mirrors it locally;
    recorded events/metrics travel back over the existing result channel.
    """
    if obs_enabled:
        obs.enable(wall_clock=obs_wall)
    store = ArtifactStore(store_root) if store_root else None
    context = SimulationContext(store=store)
    segments = []
    for entry in manifest:
        shm, array = _attach_shared_array(entry)
        segments.append(shm)  # keep alive for the worker's lifetime
        context.seed_cache(entry["key"], array)
    _WORKER_STATE["context"] = context
    _WORKER_STATE["spec"] = get_experiment(spec_name)
    _WORKER_STATE["segments"] = segments


#: Observability payload shipped from a worker: (trace events, metrics snapshot).
_ObsPayload = tuple[list[TraceEvent], dict[str, dict[str, object]]]


def _process_worker_run(
    payload: tuple[int, dict[str, Any]],
) -> tuple[int, dict[str, Any] | None, str | None, _ObsPayload | None]:
    """Evaluate one cell in a worker; results travel back as plain dicts."""
    index, params = payload
    tracer = obs.get_tracer()
    try:
        with tracer.span("sweep.cell", "pipeline") as span:
            if span.enabled:
                span.add_args(index=index)
            result = _WORKER_STATE["spec"].run(_WORKER_STATE["context"], **params)
        return index, result.to_dict(), None, _drain_worker_obs()
    except Exception as exc:
        return index, None, _format_cell_error(exc), _drain_worker_obs()


def _drain_worker_obs() -> _ObsPayload | None:
    tracer = obs.get_tracer()
    if not tracer.enabled:
        return None
    return tracer.drain(), obs.drain_metrics()


#: Cap on the total bytes of context arrays one sweep exports to shared
#: memory; arrays past it stay in the parent and workers recompute them.
MAX_SHARED_BYTES = 1 << 31


def _export_shared_arrays(
    context: SimulationContext, min_bytes: int
) -> tuple[list[shared_memory.SharedMemory], list[dict[str, Any]]]:
    """Copy the context's large arrays into shared-memory segments."""
    segments: list[shared_memory.SharedMemory] = []
    manifest: list[dict[str, Any]] = []
    total = 0
    for key, array in context.array_artifacts(min_bytes):
        if total + array.nbytes > MAX_SHARED_BYTES:
            continue
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        segments.append(shm)
        manifest.append(
            {
                "name": shm.name,
                "dtype": array.dtype.str,
                "shape": tuple(array.shape),
                "key": key,
            }
        )
        total += array.nbytes
    return segments, manifest


class ProcessSweepExecutor(SweepExecutor):
    """Process pool with shared-memory artifact export (GIL-free sweeps).

    The first pending cell is evaluated in the parent so the shared context
    holds the trace/index-stream arrays the grid needs; those are exported
    through ``multiprocessing.shared_memory`` and every worker adopts them
    read-only instead of recomputing or unpickling per cell.
    Requires a *registered* spec (workers resolve it by name).

    ``start_method=None`` picks ``fork`` where available (cheap workers) and
    falls back to ``spawn``; both produce byte-identical results.
    """

    name = "process"

    def __init__(
        self, workers: int = 4, min_shared_bytes: int = 1 << 16, start_method: str | None = None
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.min_shared_bytes = min_shared_bytes
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method

    def run(
        self,
        spec: ExperimentSpec,
        cells: list[SweepCell],
        context: SimulationContext,
        evaluate: Callable[[SweepCell], None],
        store: ArtifactStore | None = None,
    ) -> None:
        if not cells:
            return
        evaluate(cells[0])
        pending = cells[1:]
        if not pending:
            return
        segments, manifest = _export_shared_arrays(context, self.min_shared_bytes)
        store_root = str(store.root) if store is not None else None
        mp_context = multiprocessing.get_context(self.start_method)
        tracer = obs.get_tracer()
        num_workers = min(self.workers, len(pending))
        pool_started = wall_time() if tracer.enabled else 0.0
        try:
            with ProcessPoolExecutor(
                max_workers=num_workers,
                mp_context=mp_context,
                initializer=_process_worker_init,
                initargs=(spec.name, store_root, manifest, tracer.enabled, tracer.wall_clock),
            ) as pool:
                outcomes = list(
                    pool.map(_process_worker_run, [(c.index, c.params) for c in pending])
                )
        finally:
            for shm in segments:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
        by_index = {cell.index: cell for cell in pending}
        worker_events: list[TraceEvent] = []
        for index, payload, error, obs_payload in outcomes:
            cell = by_index[index]
            if error is not None:
                cell.error = error
            else:
                cell.result = ExperimentResult.from_dict(payload)
            if obs_payload is not None:
                events, metrics_snapshot = obs_payload
                worker_events.extend(events)
                obs.get_metrics().merge(metrics_snapshot)
        if tracer.enabled:
            tracer.ingest(worker_events)
            pool_elapsed = wall_time() - pool_started
            busy_us = sum(
                event.wall_dur_us or 0.0
                for event in worker_events
                if event.name == "sweep.cell"
            )
            if pool_elapsed > 0 and num_workers:
                obs.get_metrics().gauge("sweep.worker_utilization").set(
                    busy_us / (pool_elapsed * 1e6 * num_workers)
                )


def resolve_executor(executor: SweepExecutor | str | None, workers: int) -> SweepExecutor:
    """Resolve an executor name (``auto``/``serial``/``thread``/``process``)."""
    if isinstance(executor, SweepExecutor):
        return executor
    if executor is None or executor == "auto":
        return SerialSweepExecutor() if workers <= 1 else ThreadSweepExecutor(workers)
    if executor == "serial":
        return SerialSweepExecutor()
    if executor == "thread":
        return ThreadSweepExecutor(workers)
    if executor == "process":
        return ProcessSweepExecutor(workers)
    raise ValueError(
        f"unknown executor {executor!r}; expected auto, serial, thread or process"
    )


def sweep(
    spec: ExperimentSpec | str,
    grid: dict[str, list[Any]],
    workers: int = 1,
    base_seed: int = 0,
    context: SimulationContext | None = None,
    extra_params: dict[str, Any] | None = None,
    executor: SweepExecutor | str | None = "auto",
    store: ArtifactStore | str | Path | None = None,
    resume: bool = False,
) -> SweepResult:
    """Evaluate a registered experiment over a parameter grid.

    Parameters
    ----------
    spec:
        Registered experiment (or its name).
    grid:
        Mapping of parameter name to the list of values to sweep.
    workers:
        Pool width for the thread/process executors; cells of the in-process
        executors share one :class:`SimulationContext`, so common artifacts
        are computed once regardless of the worker count.
    base_seed:
        The seed every cell runs with (unless ``seed`` is itself swept or
        pinned); change it to draw an independent replicate of the whole
        sweep.  Keeping one seed across cells makes sweeps over
        non-stochastic axes (hash, scene, dram) controlled comparisons on
        identical sampled traces — and lets the shared context reuse them.
    context:
        Shared context to run against; a fresh one (store-backed when
        ``store`` is given) is created otherwise.
    extra_params:
        Fixed overrides applied to every cell (validated like CLI flags).
    executor:
        ``auto`` (serial for one worker, threads otherwise), ``serial``,
        ``thread``, ``process``, or a :class:`SweepExecutor` instance.
        Results are byte-identical across executors.
    store:
        Persistent :class:`~repro.pipeline.store.ArtifactStore` (or its
        directory).  Completed cell results and storable simulation
        artifacts are written through to it.
    resume:
        Load cells already present in ``store`` instead of recomputing them
        (requires ``store``); an interrupted sweep then continues where it
        stopped and serializes byte-identically to a fresh full run.
    """
    if isinstance(spec, str):
        spec = get_experiment(spec)
    if workers <= 0:
        raise ValueError("workers must be positive")
    if resume and store is None:
        raise ValueError("resume=True requires a store")
    if store is not None and not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    for name in list(grid) + list(extra_params or {}):
        spec.param(name)  # raises with the available names on a typo
    executor_impl = resolve_executor(executor, workers)
    ctx = context if context is not None else SimulationContext(store=store)
    has_seed_param = any(p.name == "seed" for p in spec.params)

    cells: list[SweepCell] = []
    for index, cell_params in enumerate(expand_grid(grid)):
        params = dict(extra_params or {})
        params.update(cell_params)
        seed = None
        if has_seed_param and "seed" not in params:
            seed = int(base_seed)
            params["seed"] = seed
        elif has_seed_param:
            seed = int(params["seed"])
        cells.append(SweepCell(index=index, params=params, seed=seed))

    if resume and store is not None:
        for cell in cells:
            key = _try_cell_store_key(spec, cell)
            if key is None:
                continue
            hit = store.get(key)
            if hit is not STORE_MISS and isinstance(hit, ExperimentResult):
                cell.result = hit
                cell.resumed = True

    def evaluate(cell: SweepCell) -> None:
        with obs.get_tracer().span("sweep.cell", "pipeline") as span:
            if span.enabled:
                span.add_args(index=cell.index)
            try:
                cell.result = spec.run(ctx, **cell.params)
            except Exception as exc:
                cell.error = _format_cell_error(exc)
                if span.enabled:
                    span.add_args(failed=True)

    pending = [cell for cell in cells if cell.result is None and cell.error is None]
    if obs.get_tracer().enabled:
        metrics = obs.get_metrics()
        metrics.gauge("sweep.queue_depth").set(len(pending))
        metrics.gauge("sweep.workers").set(workers)
        metrics.counter("sweep.cells_resumed").inc(sum(1 for c in cells if c.resumed))
    executor_impl.run(spec, pending, ctx, evaluate, store=store)
    if obs.get_tracer().enabled:
        metrics = obs.get_metrics()
        metrics.counter("sweep.cells_evaluated").inc(len(pending))
        metrics.counter("sweep.cells_failed").inc(
            sum(1 for c in pending if c.error is not None)
        )

    if store is not None:
        for cell in cells:
            if cell.result is not None and not cell.resumed:
                key = _try_cell_store_key(spec, cell)
                if key is not None:
                    store.put(key, cell.result)

    return SweepResult(
        spec_name=spec.name,
        grid={k: list(v) for k, v in grid.items()},
        base_seed=base_seed,
        workers=workers,
        cells=cells,
        executor=executor_impl.name,
    )
