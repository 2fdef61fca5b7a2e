"""Shared simulation context: config-hashed memoization of expensive artifacts.

Every experiment in the registry runs against a :class:`SimulationContext`.
The context memoizes the artifacts that are expensive to build and shared
between experiments and sweep cells — generated point/lookup traces, per-level
corner-index streams, locality statistics, cache-filtered request streams,
rendered datasets, trained fields, GPU profiles and serviced DRAM batches —
keyed by a canonical hash of the configuration objects that produced them.
Running the full experiment suite
(or a parameter sweep) through one context therefore computes each artifact
once, where a fresh context per call rebuilds them from scratch.

The cache is thread-safe (sweeps run cells on a thread pool): the first
caller of a key installs a :class:`concurrent.futures.Future` and computes;
concurrent callers of the same key block on that future instead of
recomputing.  All artifact producers are deterministic functions of their
configuration, so memoization never changes results — only wall time.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, TypeVar, cast

import numpy as np
from numpy.typing import NDArray

from ..core.hashing import HashFunction, average_row_requests_per_cube
from ..core.streaming import (
    StreamingOrder,
    LocalityReport,
    cube_ids,
    point_order,
    row_requests_for_stream,
    stream_register_hit_rate,
    stream_sharing_run_length,
)
from ..streams.ir import RequestStream, table_base_address
from ..dram.spec import DRAMSpec, get_dram_spec
from ..obs import get_metrics, get_tracer
from ..gpu.profiler import GPUProfiler
from ..gpu.specs import ALL_GPUS, GPUSpec
from ..nerf.encoding import HashGridConfig
from ..scenes.dataset import DatasetConfig, SyntheticNeRFDataset
from ..scenes.library import build_scene
from ..nerf.occupancy import OccupancyGrid
from ..workloads.steps import StepName
from ..workloads.traces import (
    TraceConfig,
    generate_batch_points,
    level_lookup_indices,
    occupancy_grid_for_trace,
    occupancy_point_mask,
)
from .store import STORE_MISS, ArtifactStore

if TYPE_CHECKING:
    from ..core.codesign import AlgorithmConfig, InstantNeRFSystem
    from ..experiments.tab04_psnr import QualityRunConfig
    from ..experiments.tab05_psnr_precision import PrecisionRunConfig
    from ..gpu.profiler import KernelProfile, SceneProfile
    from ..mem.hierarchy import CacheHierarchy, FilteredStream
    from ..scenes.primitives import SDFScene
    from ..serve.cost import ServiceCostConfig, ServiceCostModel
    from ..serve.scheduler import SchedulerConfig
    from ..serve.workload import ServeWorkloadConfig
    from ..workloads.embedding import EmbeddingStreamSource, EmbeddingTraceConfig

T = TypeVar("T")

__all__ = ["SimulationContext", "ContextStats", "config_key"]


def config_key(obj: Any) -> Any:
    """Canonical, hashable form of a configuration value.

    Dataclasses become ``(type, (field, key(value)), ...)`` tuples, enums
    their value, hash functions their registered name, numpy arrays a content
    digest; containers recurse.  Two configurations with equal parameters map
    to the same key regardless of object identity.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.value)
    if isinstance(obj, HashFunction):
        return ("hash_fn", obj.name)
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return ("ndarray", obj.dtype.str, obj.shape, digest)
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = tuple(
            (f.name, config_key(getattr(obj, f.name))) for f in dataclasses.fields(obj)
        )
        return (type(obj).__name__, fields)
    if isinstance(obj, GPUSpec):
        return ("gpu", obj.name)
    if isinstance(obj, (list, tuple)):
        return tuple(config_key(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((str(k), config_key(v)) for k, v in obj.items()))
    raise TypeError(f"cannot build a config key for {type(obj).__name__}: {obj!r}")


def _batch_summary(result: Any) -> dict[str, float]:
    """Storable summary dict of one serviced DRAM batch (TraceResult)."""
    return {
        "total_requests": int(result.total_requests),
        "total_cycles": int(result.total_cycles),
        "row_hits": int(result.row_hits),
        "row_misses": int(result.row_misses),
        "bank_conflicts": int(result.bank_conflicts),
        "row_hit_rate": float(result.row_hit_rate),
        "achieved_bandwidth_gbps": float(result.achieved_bandwidth_gbps),
    }


@dataclass
class ContextStats:
    """Cache statistics (useful to assert sharing actually happened)."""

    hits: int = 0
    misses: int = 0
    #: Misses answered by the on-disk store instead of a computation.
    store_hits: int = 0
    #: Artifacts actually computed in this process (miss minus store hit).
    computes: int = 0
    hit_keys: list[Any] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.hits + self.misses

    def hits_by_kind(self) -> dict[str, int]:
        """Reuse counts per artifact kind (the first element of each key)."""
        counts: dict[str, int] = {}
        for kind in self.hit_keys:
            counts[kind] = counts.get(kind, 0) + 1
        return counts


class SimulationContext:
    """Memoizing store for shared simulation artifacts, keyed by config hash.

    With ``store=`` (an :class:`~repro.pipeline.store.ArtifactStore` or a
    directory path) the context reads through the persistent on-disk store
    before computing: an artifact simulated by any earlier process — a
    previous CLI run, another sweep worker, an interrupted sweep — is
    loaded instead of recomputed, and newly computed storable artifacts are
    written back.
    """

    def __init__(self, store: ArtifactStore | str | None = None):
        self._lock = threading.Lock()
        self._cache: dict[Any, Future[Any]] = {}
        self.stats = ContextStats()
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store

    # ----------------------------------------------------------- machinery
    def memoize(self, key: Any, compute: Callable[[], T]) -> T:
        """Return the cached value for ``key``, computing it at most once.

        Thread-safe: concurrent callers of the same key block on the first
        caller's future.  A failed computation is evicted so it can be
        retried (and the error propagates to every waiter).  When a store
        is attached, a memory miss first consults the store; only a store
        miss actually runs ``compute`` (counted in ``stats.computes``), and
        the computed value is written back when it has a storable encoding.
        """
        tracer = get_tracer()
        with self._lock:
            fut = self._cache.get(key)
            if fut is not None:
                owner = False
                self.stats.hits += 1
                self.stats.hit_keys.append(key[0] if isinstance(key, tuple) else key)
            else:
                owner = True
                fut = Future()
                self._cache[key] = fut
                self.stats.misses += 1
        if not owner:
            if tracer.enabled:
                get_metrics().counter("context.memo_hits").inc()
            return cast(T, fut.result())
        if tracer.enabled:
            get_metrics().counter("context.memo_misses").inc()
        try:
            stored = self.store.get(key) if self.store is not None else STORE_MISS
            if stored is not STORE_MISS:
                value = cast(T, stored)
                with self._lock:
                    self.stats.store_hits += 1
                if tracer.enabled:
                    get_metrics().counter("context.store_hits").inc()
            else:
                with tracer.span("context.compute", "pipeline") as span:
                    if span.enabled and isinstance(key, tuple) and key:
                        span.add_args(kind=str(key[0]))
                    value = compute()
                with self._lock:
                    self.stats.computes += 1
                if tracer.enabled:
                    get_metrics().counter("context.computes").inc()
                if isinstance(value, np.ndarray):
                    # Memoized arrays are shared across callers (and match the
                    # read-only arrays the store / shared memory hand out):
                    # any in-place mutation must fail loudly on every run.
                    value.flags.writeable = False
        except BaseException as exc:
            with self._lock:
                self._cache.pop(key, None)
            fut.set_exception(exc)
            raise
        fut.set_result(value)
        if self.store is not None and stored is STORE_MISS:
            self.store.put(key, value)
        return value

    def seed_cache(self, key: Any, value: Any) -> bool:
        """Install an already-computed artifact (e.g. a shared-memory array).

        Returns ``False`` (leaving the cache untouched) when the key is
        already present.  Used by process-pool sweep workers to adopt the
        parent's large read-only arrays without recomputing or copying.
        """
        fut: Future[Any] = Future()
        fut.set_result(value)
        with self._lock:
            if key in self._cache:
                return False
            self._cache[key] = fut
        return True

    def array_artifacts(self, min_bytes: int = 0) -> list[tuple[Any, NDArray[Any]]]:
        """Completed ndarray-valued cache entries of at least ``min_bytes``.

        Snapshot in insertion order; the process sweep executor exports
        these through ``multiprocessing.shared_memory`` so workers share
        them zero-copy instead of rebuilding them per cell.
        """
        with self._lock:
            items = list(self._cache.items())
        arrays = []
        for key, fut in items:
            if fut.done() and fut.exception() is None:
                value = fut.result()
                if isinstance(value, np.ndarray) and value.nbytes >= min_bytes:
                    arrays.append((key, value))
        return arrays

    def peek(self, key: Any) -> Any:
        """The cached value for ``key`` if already computed, else ``None``.

        A successful peek counts as a cache hit: it means a derived artifact
        is being reused (e.g. a kernel profile read out of a scene profile).
        """
        with self._lock:
            fut = self._cache.get(key)
        if fut is not None and fut.done() and fut.exception() is None:
            with self._lock:
                self.stats.hits += 1
                self.stats.hit_keys.append(key[0] if isinstance(key, tuple) else key)
            return fut.result()
        return None

    def cached_artifacts(self) -> int:
        with self._lock:
            return len(self._cache)

    # ------------------------------------------------------------- scenes
    def scene(self, name: str) -> SDFScene:
        """The named procedural :class:`~repro.scenes.primitives.SDFScene`."""
        return self.memoize(("scene", name.lower()), lambda: build_scene(name))

    def dataset(self, scene_name: str, config: DatasetConfig | None = None) -> SyntheticNeRFDataset:
        """Rendered posed-image dataset for a scene (GT rendering is costly)."""
        cfg = config or DatasetConfig()
        key = ("dataset", scene_name.lower(), config_key(cfg))
        return self.memoize(key, lambda: SyntheticNeRFDataset(self.scene(scene_name), cfg))

    # ------------------------------------------------------------- traces
    def batch_points(self, trace: TraceConfig) -> NDArray[Any]:
        """The sampled training-batch points for a trace configuration.

        Points are always dense (occupancy prunes at stream emission), so
        every occupancy variant of a trace shares one dense-keyed artifact.
        """
        trace = trace.dense()
        return self.memoize(
            ("batch_points", config_key(trace)), lambda: generate_batch_points(trace)
        )

    def stream_order(self, trace: TraceConfig, order: StreamingOrder) -> NDArray[Any]:
        """Point permutation for a streaming order (random order is seeded)."""
        trace = trace.dense()
        key = ("stream_order", config_key(trace), order.value)
        return self.memoize(
            key,
            lambda: point_order(
                trace.num_rays,
                trace.points_per_ray,
                order,
                rng=np.random.default_rng(trace.seed),
            ),
        )

    # ---------------------------------------------------------- occupancy
    def occupancy_densities(self, trace: TraceConfig) -> NDArray[Any]:
        """Scene density estimate over the occupancy grid's cells (storable)."""
        if trace.scene is None:
            raise ValueError("occupancy artifacts require TraceConfig.scene to be set")
        key = (
            "occupancy_densities",
            trace.scene.lower(),
            trace.occupancy_resolution,
            trace.scene_bound,
        )
        return self.memoize(
            key, lambda: occupancy_grid_for_trace(trace).densities
        )

    def occupancy_grid(self, trace: TraceConfig) -> OccupancyGrid:
        """The occupancy grid pruning this trace, rebuilt from stored densities."""
        key = (
            "occupancy_grid",
            trace.scene.lower() if trace.scene else None,
            trace.occupancy_resolution,
            trace.occupancy_levels,
            trace.occupancy_threshold,
            trace.scene_bound,
        )
        return self.memoize(
            key, lambda: occupancy_grid_for_trace(trace, densities=self.occupancy_densities(trace))
        )

    def occupancy_mask(self, trace: TraceConfig) -> NDArray[Any]:
        """Flat keep mask of the trace's samples under occupancy pruning."""
        if not trace.occupancy:
            raise ValueError("occupancy_mask requires TraceConfig.occupancy=True")
        key = ("occupancy_mask", config_key(trace))
        return self.memoize(
            key,
            lambda: occupancy_point_mask(
                trace, points=self.batch_points(trace), grid=self.occupancy_grid(trace)
            ),
        )

    def level_indices(
        self, grid: HashGridConfig, trace: TraceConfig, hash_fn: HashFunction, level: int
    ) -> NDArray[Any]:
        """Corner table indices of the trace's batch at one level, ``(N, 8)``.

        Like :meth:`batch_points` these are always dense (ray-major), so
        every occupancy variant of a trace shares one artifact;
        :meth:`request_stream` prunes by subsetting the dense stream.
        """
        key = ("level_indices", config_key(grid), config_key(trace.dense()), hash_fn.name, level)
        return self.memoize(
            key,
            lambda: level_lookup_indices(
                self.batch_points(trace).reshape(-1, 3), level, grid, hash_fn
            ),
        )

    # ------------------------------------------------------- request streams
    def request_stream(
        self,
        grid: HashGridConfig,
        trace: TraceConfig,
        hash_fn: HashFunction,
        order: StreamingOrder,
        level: int,
    ) -> RequestStream:
        """One level's lookups as a typed :class:`repro.streams.RequestStream`.

        The memoized front-end/memory-system boundary artifact: corner
        indices in stream order, grouped by cube id, with the table layout
        facts (entry width, level base address) attached.  Derived from (and
        sharing) the cached corner-index streams; occupancy traces are exact
        IR subsets of their dense twin.  Every downstream consumer —
        row-request accounting, the cache hierarchy, the DRAM timing model —
        takes this object instead of a bare ndarray.
        """
        key = (
            "request_stream",
            config_key(grid),
            config_key(trace),
            hash_fn.name,
            order.value,
            level,
        )

        def compute() -> RequestStream:
            indices = self.level_indices(grid, trace, hash_fn, level)
            perm = self.stream_order(trace, order)
            points = self.batch_points(trace).reshape(-1, 3)[perm]
            stream = RequestStream(
                indices=indices[perm],
                entry_bytes=trace.entry_bytes,
                table_entries=grid.level_table_entries(level),
                base_address=table_base_address(grid, level, trace.entry_bytes),
                dtype=trace.dtype,
                group_ids=cube_ids(points, grid.resolutions[level]),
                source="pipeline.context",
                label=f"level={level}",
            )
            if trace.occupancy:
                stream = stream.subset(self.occupancy_mask(trace)[perm])
            return stream

        return self.memoize(key, compute)

    def stream_row_requests(self, stream: RequestStream, row_bytes: int = 1024) -> int:
        """Memoized :func:`repro.core.streaming.row_requests_for_stream`."""
        key = ("stream_row_requests", config_key(stream), row_bytes)
        return self.memoize(key, lambda: row_requests_for_stream(stream, row_bytes))

    def stream_filtered(self, hierarchy: CacheHierarchy, stream: RequestStream) -> FilteredStream:
        """Any request stream pushed through an on-chip hierarchy (memoized)."""
        key = (
            "stream_filtered",
            config_key(hierarchy.cache),
            config_key(hierarchy.prefetcher),
            config_key(hierarchy.scratchpad),
            config_key(stream),
        )
        return self.memoize(key, lambda: hierarchy.filter_stream(stream))

    def stream_serviced(
        self, dram: str, stream: RequestStream, size_bytes: int | None = None
    ) -> dict[str, float]:
        """Any request stream serviced by a named DRAM spec (memoized summary)."""
        key = ("stream_serviced", dram, config_key(stream), size_bytes)

        def compute() -> dict[str, float]:
            from ..dram.system import DRAMSystem

            system = DRAMSystem(self.dram_spec(dram))
            return _batch_summary(system.service_batch(stream, size_bytes=size_bytes))

        return self.memoize(key, compute)

    # ---------------------------------------------------------- embeddings
    def embedding_source(self, config: EmbeddingTraceConfig) -> EmbeddingStreamSource:
        """The embedding-table front-end for a trace configuration (memoized)."""
        from ..workloads.embedding import EmbeddingStreamSource

        key = ("embedding_source", config_key(config))
        return self.memoize(key, lambda: EmbeddingStreamSource(config))

    def embedding_stream(
        self, config: EmbeddingTraceConfig, table: int, order: str = "arrival"
    ) -> RequestStream:
        """One embedding table's lookup stream as a typed request stream."""
        key = ("embedding_stream", config_key(config), table, order)
        return self.memoize(
            key, lambda: self.embedding_source(config).stream(table, order=order)
        )

    # ------------------------------------------------------------- serving
    def serving_cost_model(self, cost: "ServiceCostConfig") -> "ServiceCostModel":
        """The (stateless) batch cost model for a serving configuration.

        Memory-only: the model embeds live hierarchy/DRAM engines, so it is
        shared within a process but never persisted.
        """
        from ..serve.cost import ServiceCostModel

        key = ("serving_cost_model", config_key(cost))
        return self.memoize(key, lambda: ServiceCostModel(cost))

    def serving_summary(
        self,
        workload: "ServeWorkloadConfig",
        scheduler: "SchedulerConfig",
        cost: "ServiceCostConfig",
    ) -> dict[str, float]:
        """Aggregate metrics of one simulated serving run (memoized, storable).

        The artifact of the ``fig14_serving_latency`` experiment: a plain
        float dict (p50/p99 latency, goodput, shed rate, queue depth, ...),
        keyed by the full workload + scheduler + cost configuration so sweep
        cells and resumed runs replay byte-identically.
        """
        from ..serve.simulator import simulate_serving

        key = (
            "serving_summary",
            config_key(workload),
            config_key(scheduler),
            config_key(cost),
        )
        return self.memoize(
            key,
            lambda: simulate_serving(
                workload, scheduler, model=self.serving_cost_model(cost)
            ).summary(),
        )

    # ----------------------------------------------------------- locality
    def locality_reports(
        self,
        grid: HashGridConfig,
        trace: TraceConfig,
        baseline_hash: HashFunction,
        optimized_hash: HashFunction,
        row_bytes: int = 1024,
    ) -> list[LocalityReport]:
        """Fig. 7 per-level locality comparison, assembled from cached streams.

        Row requests compare the baseline hash under random order with the
        optimized hash under ray-first order; cube sharing and register hits
        are read off the same ray-first stream.
        """
        key = (
            "locality_reports",
            config_key(grid),
            config_key(trace),
            baseline_hash.name,
            optimized_hash.name,
            row_bytes,
        )

        def compute() -> list[LocalityReport]:
            reports = []
            for level in range(grid.num_levels):
                baseline = self.request_stream(
                    grid, trace, baseline_hash, StreamingOrder.RANDOM, level
                )
                optimized = self.request_stream(
                    grid, trace, optimized_hash, StreamingOrder.RAY_FIRST, level
                )
                reports.append(
                    LocalityReport(
                        level=level,
                        baseline_requests=self.stream_row_requests(baseline, row_bytes),
                        optimized_requests=self.stream_row_requests(optimized, row_bytes),
                        sharing_run_length=stream_sharing_run_length(optimized),
                        register_hit_rate=stream_register_hit_rate(optimized),
                    )
                )
            return reports

        return self.memoize(key, compute)

    def requests_per_cube(
        self, grid: HashGridConfig, trace: TraceConfig, hash_fn: HashFunction, level: int
    ) -> float:
        """Average DRAM row requests per cube at one (usually finest) level."""
        key = ("requests_per_cube", config_key(grid), config_key(trace), hash_fn.name, level)

        def compute() -> float:
            flat = self.batch_points(trace).reshape(-1, 3)
            resolution = grid.resolutions[level]
            base = np.clip((flat * resolution).astype(np.int64), 0, resolution - 1)
            return float(
                average_row_requests_per_cube(
                    hash_fn,
                    base,
                    grid.level_table_entries(level),
                    entry_bytes=trace.entry_bytes,
                )
            )

        return self.memoize(key, compute)

    # ------------------------------------------------------------ codesign
    def system(
        self,
        algorithm: AlgorithmConfig | None = None,
        grid: HashGridConfig | None = None,
        trace: TraceConfig | None = None,
    ) -> InstantNeRFSystem:
        """A co-designed :class:`~repro.core.codesign.InstantNeRFSystem`.

        The system measures its algorithm locality through this context, so
        traces and per-level request streams are shared with the locality
        experiments instead of being rebuilt.
        """
        from ..core.codesign import AlgorithmConfig, InstantNeRFSystem

        algorithm = algorithm or AlgorithmConfig.instant_nerf()
        key = (
            "system",
            algorithm.name,
            config_key(algorithm.hash_fn),
            algorithm.streaming_order.value,
            config_key(grid),
            config_key(trace),
        )
        return self.memoize(
            key,
            lambda: InstantNeRFSystem(algorithm, grid, trace_config=trace, context=self),
        )

    # ------------------------------------------------------------ training
    def trained_psnr(self, method: str, scene_name: str, quality_config: QualityRunConfig) -> float:
        """Held-out test PSNR of one (method, scene) training cell.

        Keyed by the dataset and trainer configurations — not by the cell
        list of the calling experiment — so sweep cells and suite runs share
        trained fields whenever their per-cell configuration matches.
        """
        from ..experiments.tab04_psnr import train_method_on_scene

        key = (
            "trained_psnr",
            method,
            scene_name.lower(),
            config_key(quality_config.dataset_config()),
            config_key(quality_config.trainer_config()),
        )
        return self.memoize(
            key, lambda: train_method_on_scene(method, scene_name, quality_config, context=self)
        )

    def precision_psnr(
        self, scene_name: str, dtype: str, run_config: "PrecisionRunConfig"
    ) -> float:
        """Held-out test PSNR of one (scene, precision) training cell.

        ``fp64``/``fp32``/``fp16`` train the field end to end at that table
        precision; ``int8`` trains at fp32 and post-training-quantizes the
        hash tables before evaluation (int8 tables are inference-only).
        Keyed by the derived dataset/trainer configs plus the precision, so
        sweep cells at different dtypes never share a payload.
        """
        from ..experiments.tab05_psnr_precision import train_precision_on_scene

        key = (
            "precision_psnr",
            scene_name.lower(),
            dtype,
            config_key(run_config.dataset_config()),
            config_key(run_config.trainer_config(dtype)),
            config_key(run_config.grid_config(dtype)),
        )
        return self.memoize(
            key, lambda: train_precision_on_scene(scene_name, dtype, run_config, context=self)
        )

    # ----------------------------------------------------------- profiling
    def gpu(self, name: str) -> GPUSpec:
        """Resolve a GPU by name (e.g. ``XNX``, ``TX2``, ``2080Ti``)."""
        try:
            return ALL_GPUS[name]
        except KeyError:
            known = ", ".join(ALL_GPUS)
            raise KeyError(f"unknown GPU {name!r}; available: {known}") from None

    def scene_profile(self, gpu: GPUSpec) -> SceneProfile:
        """Modelled per-scene training profile of iNGP on one GPU."""
        return self.memoize(
            ("scene_profile", gpu.name), lambda: GPUProfiler.for_gpu(gpu).profile_scene()
        )

    def step_profile(self, gpu: GPUSpec, step: StepName) -> KernelProfile:
        """Modelled kernel profile of one training step on one GPU.

        Pulls the kernel out of an already-cached scene profile when one
        exists (the scene profile embeds every step's profile).
        """

        def compute() -> KernelProfile:
            scene = self.peek(("scene_profile", gpu.name))
            if scene is not None:
                return scene.kernels[step.value]
            return GPUProfiler.for_gpu(gpu).profile_step(step)

        return self.memoize(("step_profile", gpu.name, step.value), compute)

    # ---------------------------------------------------------------- DRAM
    def dram_spec(self, name: str) -> DRAMSpec:
        """Resolve a named DRAM specification (aliases accepted)."""
        return get_dram_spec(name)
