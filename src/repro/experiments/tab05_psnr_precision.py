"""Table V (extension): rendering quality and memory cost vs table precision.

Not a table of the paper — the paper fixes fp16 hash-table entries and never
varies precision.  With the dtype axis of
:class:`~repro.nerf.encoding.HashGridConfig` /
:class:`~repro.workloads.traces.TraceConfig`, precision becomes a sweepable
scenario axis: this experiment trains the reduced-scale iNGP field with
``fp64``/``fp32``/``fp16`` parameter storage (and post-training-quantizes
``int8`` tables), reports the per-scene PSNR cost, and pairs it with what
the *modeled* memory system gains per precision — bytes per table entry,
DRAM row requests and timing-model cycles at the finest level, and on-chip
SRAM energy — all of which shrink monotonically as entries narrow from
16-byte fp64 vectors to 2-byte int8 ones.  Below fp64 the training
arithmetic is float32 (:func:`repro.core.precision.compute_dtype`), so the
fp16 PSNR cost is that of rounding the stored parameters, as on hardware
that keeps fp16 tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core import precision
from ..core.hashing import MortonLocalityHash, get_hash_function
from ..core.streaming import StreamingOrder
from ..mem.hierarchy import CacheHierarchy
from ..nerf.encoding import HashGridConfig
from ..nerf.field import InstantNGPField
from ..nerf.trainer import Trainer, TrainerConfig
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..scenes.dataset import DatasetConfig
from ..scenes.library import SCENE_NAMES
from .runner import SMOKE_TRAINING, ExperimentResult

__all__ = ["run_tab05", "PrecisionRunConfig", "train_precision_on_scene"]


@dataclass(frozen=True)
class PrecisionRunConfig:
    """Reduced-scale configuration of the precision/quality comparison.

    Training scale mirrors ``tab04`` (tiny images, short schedules); the
    modeled-memory columns use the paper-scale hash grid and the
    scene-agnostic default trace so they are comparable across scenes.
    """

    scenes: tuple[str, ...] = ("lego",)
    dtypes: tuple[str, ...] = precision.PRECISIONS
    image_size: int = 32
    num_train_views: int = 6
    num_test_views: int = 1
    iterations: int = 100
    rays_per_batch: int = 160
    samples_per_ray: int = 32
    learning_rate: float = 1e-2
    seed: int = 0
    #: Reduced-scale grid of the *trained* field (tab04's small grid).
    num_levels: int = 8
    table_size: int = 2**14
    max_resolution: int = 256
    #: Modeled memory system servicing the lookup streams.
    hash: str = "morton"
    dram: str = "lpddr4-2400"
    row_bytes: int = 1024

    def dataset_config(self) -> DatasetConfig:
        return DatasetConfig(
            image_size=self.image_size,
            num_train_views=self.num_train_views,
            num_test_views=self.num_test_views,
            gt_samples_per_ray=96,
        )

    def trainer_config(self, dtype: str) -> TrainerConfig:
        # The batch interface follows the field's precision, floored at fp32
        # (fp16 positions would quantize coordinates below the finest grid
        # resolution; int8 trains its float stand-in at fp32).
        return TrainerConfig(
            num_iterations=self.iterations,
            rays_per_batch=self.rays_per_batch,
            samples_per_ray=self.samples_per_ray,
            learning_rate=self.learning_rate,
            seed=self.seed,
            dtype="fp64" if dtype == "fp64" else "fp32",
        )

    def grid_config(self, dtype: str) -> HashGridConfig:
        # int8 tables cannot train; the field trains at fp32 and is
        # post-training-quantized afterwards (see train_precision_on_scene).
        return HashGridConfig(
            num_levels=self.num_levels,
            table_size=self.table_size,
            max_resolution=self.max_resolution,
            hash_fn=MortonLocalityHash(),
            dtype="fp32" if dtype == "int8" else dtype,
        )


def train_precision_on_scene(
    scene: str,
    dtype: str,
    config: PrecisionRunConfig,
    *,
    context: SimulationContext | None = None,
) -> float:
    """Train one (scene, precision) cell and return the held-out test PSNR.

    Float precisions store the hash tables and MLPs at that precision and
    train them end to end (computing in float32 below fp64).  ``int8``
    trains the fp32 field, quantizes the trained tables to int8 codes
    (per-level affine scale/zero-point) and evaluates with dequantizing
    gathers — standard post-training quantization.
    """
    precision.validate_precision(dtype)
    ctx = context if context is not None else SimulationContext()
    dataset = ctx.dataset(scene, config.dataset_config())
    rng = np.random.default_rng(config.seed)
    field = InstantNGPField(config.grid_config(dtype), hidden_dim=32, geo_features=7, rng=rng)
    trainer = Trainer(field, dataset, config.trainer_config(dtype))
    trainer.train()
    if dtype == "int8":
        field.encoding = field.encoding.quantized_int8()
    return float(trainer.evaluate())


def run_tab05(
    config: PrecisionRunConfig | None = None,
    *,
    context: SimulationContext | None = None,
) -> ExperimentResult:
    """PSNR vs precision per scene, with the modeled memory-system gains.

    One row per precision: executed-training PSNR per scene (and the drop
    against fp32 when fp32 is part of the run), plus the modeled entry
    width, finest-level DRAM row requests/cycles and SRAM energy of the
    paper-scale lookup stream at that entry width, each as a reduction
    factor against fp64.
    """
    from ..workloads.traces import TraceConfig

    config = config or PrecisionRunConfig()
    ctx = context if context is not None else SimulationContext()
    for dtype in config.dtypes:
        precision.validate_precision(dtype)

    hash_fn = get_hash_function(config.hash)
    model_grid = HashGridConfig()
    level = model_grid.num_levels - 1
    hierarchy = CacheHierarchy()
    order = StreamingOrder.RAY_FIRST

    psnr: dict[tuple[str, str], float] = {}
    for dtype in config.dtypes:
        for scene in config.scenes:
            psnr[(dtype, scene)] = ctx.precision_psnr(scene, dtype, config)

    def modeled(dtype: str) -> dict[str, float]:
        # DRAM timing runs on the cache-filtered line stream: the number of
        # distinct lines touched shrinks as entries narrow, so the cycle
        # count tracks entry width monotonically (servicing the raw
        # per-corner stream instead would let bank-parallelism noise swamp
        # the dtype effect).
        trace = TraceConfig(dtype=dtype)
        stream = ctx.request_stream(model_grid, trace, hash_fn, order, level)
        filtered = ctx.stream_filtered(hierarchy, stream)
        batch = ctx.stream_serviced(
            config.dram, filtered.dram_stream(), size_bytes=hierarchy.cache.line_bytes
        )
        return {
            "entry_bytes": float(trace.entry_bytes),
            "row_requests": float(ctx.stream_row_requests(stream, config.row_bytes)),
            "dram_cycles": float(batch["total_cycles"]),
            "sram_energy_j": float(filtered.stats.sram_energy_j),
        }

    baseline = modeled("fp64")
    rows = []
    for dtype in config.dtypes:
        cost = modeled(dtype)
        row: dict[str, object] = {"dtype": dtype}
        row.update(cost)
        for metric in ("entry_bytes", "row_requests", "dram_cycles", "sram_energy_j"):
            label = metric.removesuffix("_j").removesuffix("_bytes")
            row[f"{label}_reduction_vs_fp64"] = (
                baseline[metric] / cost[metric] if cost[metric] else float("inf")
            )
        for scene in config.scenes:
            row[f"psnr_{scene}"] = psnr[(dtype, scene)]
            if "fp32" in config.dtypes:
                row[f"psnr_drop_vs_fp32_{scene}"] = psnr[("fp32", scene)] - psnr[(dtype, scene)]
        rows.append(row)
    return ExperimentResult(
        experiment_id="Table V (extension)",
        description=(
            "PSNR and modeled memory cost vs hash-table precision "
            "(fp64/fp32/fp16 trained end to end, int8 post-training-quantized)"
        ),
        rows=rows,
        notes=(
            "Training runs at reduced scale (tab04 geometry), so absolute PSNR is "
            "low; the reproduced shape is the per-precision PSNR cost against the "
            "monotone shrink of entry bytes, finest-level row requests, DRAM cycles "
            "and SRAM energy as entries narrow from fp64 to int8.  Modeled columns "
            "use the paper-scale grid with the scene-agnostic default trace."
        ),
    )


@register_experiment(
    "tab05_psnr_precision",
    paper_ref="Table V (extension)",
    title="PSNR vs hash-table precision, with modeled memory-system gains",
    params=(
        ParamSpec("scenes", str, "lego", help="comma list of scenes"),
        ParamSpec(
            "dtypes", str, "fp64,fp32,fp16,int8", help="comma list of table precisions to compare"
        ),
        ParamSpec("image_size", int, 32, help="rendered image resolution"),
        ParamSpec("num_train_views", int, 6, help="training views per scene"),
        ParamSpec("iterations", int, 100, help="training iterations"),
        ParamSpec("rays_per_batch", int, 160, help="rays per training batch"),
        ParamSpec("samples_per_ray", int, 32, help="samples per ray"),
        ParamSpec("seed", int, 0, help="training seed"),
        ParamSpec("hash", str, "morton", help="hash function of the modeled streams"),
        ParamSpec("dram", str, "lpddr4-2400", help="DRAM spec servicing the modeled streams"),
    ),
    smoke={**SMOKE_TRAINING, "dtypes": "fp32,int8"},
)
def tab05_experiment(
    ctx: SimulationContext,
    *,
    scenes: str,
    dtypes: str,
    image_size: int,
    num_train_views: int,
    iterations: int,
    rays_per_batch: int,
    samples_per_ray: int,
    seed: int,
    hash: str,
    dram: str,
) -> ExperimentResult:
    scene_list = tuple(s.strip() for s in scenes.split(",") if s.strip())
    for scene in scene_list:
        if scene not in SCENE_NAMES:
            known = ", ".join(SCENE_NAMES)
            raise KeyError(f"unknown scene {scene!r}; available: {known}")
    dtype_list = tuple(d.strip() for d in dtypes.split(",") if d.strip())
    for dtype in dtype_list:
        precision.validate_precision(dtype)
    config = replace(
        PrecisionRunConfig(),
        scenes=scene_list,
        dtypes=dtype_list,
        image_size=image_size,
        num_train_views=num_train_views,
        iterations=iterations,
        rays_per_batch=rays_per_batch,
        samples_per_ray=samples_per_ray,
        seed=seed,
        hash=hash,
        dram=dram,
    )
    return run_tab05(config, context=ctx)
