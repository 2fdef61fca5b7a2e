"""Table IV: rendering quality (PSNR) of NeRF algorithms on the eight scenes.

The paper trains NeRF, FastNeRF, TensoRF, iNGP and the Instant-NeRF algorithm
on the eight Synthetic-NeRF scenes and reports per-scene PSNR.  Here the same
five algorithm families are trained on the procedural stand-in scenes with
the shared NumPy trainer at a reduced scale (small images, short
schedules), so the absolute PSNR is lower than the paper's but the
*ordering* (iNGP ≈ Instant-NeRF > TensoRF > NeRF > FastNeRF) and the small
iNGP-vs-Instant-NeRF gap are the reproduced shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.hashing import MortonLocalityHash
from ..nerf.baselines import FastNeRFField, TensoRFField
from ..nerf.encoding import HashGridConfig
from ..nerf.field import InstantNGPField, RadianceField, VanillaNeRFField
from ..nerf.trainer import Trainer, TrainerConfig
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..scenes.dataset import DatasetConfig
from ..scenes.library import SCENE_NAMES
from .runner import SMOKE_TRAINING, ExperimentResult

__all__ = [
    "run_tab04",
    "QualityRunConfig",
    "build_field",
    "train_method_on_scene",
    "PAPER_TABLE4_AVG_PSNR",
    "METHODS",
]

#: Paper Table IV average PSNR over the eight scenes.
PAPER_TABLE4_AVG_PSNR = {
    "nerf": 31.01,
    "fastnerf": 29.90,
    "tensorf": 32.00,
    "ingp": 32.99,
    "instant-nerf": 32.76,
}

METHODS = ("nerf", "fastnerf", "tensorf", "ingp", "instant-nerf")


@dataclass(frozen=True)
class QualityRunConfig:
    """Reduced-scale training configuration for the Table IV benchmark."""

    scenes: tuple[str, ...] = ("lego", "chair")
    image_size: int = 40
    num_train_views: int = 8
    num_test_views: int = 1
    iterations: int = 120
    rays_per_batch: int = 192
    samples_per_ray: int = 40
    learning_rate: float = 1e-2
    seed: int = 0

    def dataset_config(self) -> DatasetConfig:
        return DatasetConfig(
            image_size=self.image_size,
            num_train_views=self.num_train_views,
            num_test_views=self.num_test_views,
            gt_samples_per_ray=96,
        )

    def trainer_config(self) -> TrainerConfig:
        return TrainerConfig(
            num_iterations=self.iterations,
            rays_per_batch=self.rays_per_batch,
            samples_per_ray=self.samples_per_ray,
            learning_rate=self.learning_rate,
            seed=self.seed,
        )


def build_field(method: str, rng: np.random.Generator | None = None) -> RadianceField:
    """Instantiate the radiance field for one Table IV method (reduced scale)."""
    rng = rng or np.random.default_rng(0)
    small_grid = HashGridConfig(num_levels=8, table_size=2**14, max_resolution=256)
    if method == "nerf":
        return VanillaNeRFField(hidden_dim=96, num_hidden_layers=3, rng=rng)
    if method == "fastnerf":
        return FastNeRFField(num_components=4, hidden_dim=64, rng=rng)
    if method == "tensorf":
        return TensoRFField(density_rank=6, appearance_rank=12, resolution=96, rng=rng)
    if method == "ingp":
        return InstantNGPField(small_grid, hidden_dim=32, geo_features=7, rng=rng)
    if method == "instant-nerf":
        grid = HashGridConfig(
            num_levels=8, table_size=2**14, max_resolution=256, hash_fn=MortonLocalityHash()
        )
        return InstantNGPField(grid, hidden_dim=32, geo_features=7, rng=rng)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def train_method_on_scene(
    method: str,
    scene: str,
    config: QualityRunConfig,
    *,
    context: SimulationContext | None = None,
) -> float:
    """Train one (method, scene) cell and return the held-out test PSNR.

    The rendered dataset comes from the context (shared across methods and
    sweep cells); training itself is deterministic in ``config.seed``.
    """
    ctx = context if context is not None else SimulationContext()
    dataset = ctx.dataset(scene, config.dataset_config())
    rng = np.random.default_rng(config.seed)
    field = build_field(method, rng)
    trainer = Trainer(field, dataset, config.trainer_config())
    trainer.train()
    return float(trainer.evaluate())


def run_tab04(
    config: QualityRunConfig | None = None,
    methods: tuple[str, ...] = METHODS,
    *,
    context: SimulationContext | None = None,
) -> ExperimentResult:
    """Train each method on each scene and report test PSNR.

    This is the only experiment that runs real optimisation, so the default
    configuration is small; pass a larger :class:`QualityRunConfig` for a
    closer (slower) reproduction.
    """
    config = config or QualityRunConfig()
    ctx = context if context is not None else SimulationContext()
    per_method: dict[str, dict[str, float]] = {m: {} for m in methods}
    for scene in config.scenes:
        for method in methods:
            per_method[method][scene] = ctx.trained_psnr(method, scene, config)
    rows = []
    for method in methods:
        scores = per_method[method]
        row = {"method": method, "avg_psnr": float(np.mean(list(scores.values())))}
        row.update({f"psnr_{scene}": scores[scene] for scene in config.scenes})
        row["paper_avg_psnr"] = PAPER_TABLE4_AVG_PSNR[method]
        rows.append(row)
    return ExperimentResult(
        experiment_id="Table IV",
        description=(
            "PSNR of NeRF training algorithms on procedural stand-in scenes (reduced scale)"
        ),
        rows=rows,
        notes=(
            "Absolute PSNR is lower than the paper's (tiny images, short schedules, "
            "procedural scenes); the reproduced shape is the ordering and the small "
            "iNGP-vs-Instant-NeRF gap (paper: 0.23 dB)."
        ),
    )


@register_experiment(
    "tab04",
    paper_ref="Table IV",
    title="PSNR of the five NeRF training algorithms (reduced scale)",
    params=(
        ParamSpec("scenes", str, "lego,chair", help="comma list of scenes"),
        ParamSpec(
            "methods", str, "all", help="comma list of methods, or 'all' for the five families"
        ),
        ParamSpec("image_size", int, 40, help="rendered image resolution"),
        ParamSpec("num_train_views", int, 8, help="training views per scene"),
        ParamSpec("iterations", int, 120, help="training iterations"),
        ParamSpec("rays_per_batch", int, 192, help="rays per training batch"),
        ParamSpec("samples_per_ray", int, 40, help="samples per ray"),
        ParamSpec("seed", int, 0, help="training seed"),
    ),
    smoke={**SMOKE_TRAINING, "scenes": "lego", "methods": "ingp"},
)
def tab04_experiment(
    ctx: SimulationContext,
    *,
    scenes: str,
    methods: str,
    image_size: int,
    num_train_views: int,
    iterations: int,
    rays_per_batch: int,
    samples_per_ray: int,
    seed: int,
) -> ExperimentResult:
    scene_list = tuple(s.strip() for s in scenes.split(",") if s.strip())
    for scene in scene_list:
        if scene not in SCENE_NAMES:
            known = ", ".join(SCENE_NAMES)
            raise KeyError(f"unknown scene {scene!r}; available: {known}")
    if methods == "all":
        method_list = METHODS
    else:
        method_list = tuple(m.strip() for m in methods.split(",") if m.strip())
        for method in method_list:
            if method not in METHODS:
                raise KeyError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    config = replace(
        QualityRunConfig(),
        scenes=scene_list,
        image_size=image_size,
        num_train_views=num_train_views,
        iterations=iterations,
        rays_per_batch=rays_per_batch,
        samples_per_ray=samples_per_ray,
        seed=seed,
    )
    return run_tab04(config, method_list, context=ctx)
