"""Training loop reproducing the six-step pipeline of Fig. 2.

The :class:`Trainer` wires together a dataset (Step (a): random pixel
batches), ray sampling (Step (b)), a radiance field (Step (c)), volume
rendering (Step (d)), the photometric loss (Step (e)) and back-propagation
plus the Adam update (Step (f)).  It works with any
:class:`repro.nerf.field.RadianceField`, so iNGP, the Instant-NeRF variant
(Morton hash) and all baselines share the exact same loop — only the field
differs, which is what Table IV compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import precision
from ..obs import console, get_metrics, get_tracer
from ..obs.clock import wall_time
from .adam import Adam
from .field import RadianceField
from .losses import mse_loss
from .metrics import psnr
from .occupancy import OccupancyGrid, OccupancyGridConfig
from .rays import RayBundle, sample_along_rays, stratified_t_values
from .volume_rendering import render_rays, render_rays_backward

__all__ = ["TrainerConfig", "TrainingHistory", "Trainer"]


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters of the training loop.

    Paper-scale values are 35 000 iterations with 256 K sampled points per
    iteration; the defaults here are reduced so CPU training finishes in
    seconds while exercising the identical code path.

    With ``occupancy`` set, sampling switches to occupancy-grid adaptive ray
    marching: the grid starts fully occupied, is refreshed from the trained
    field every ``occupancy.update_every`` iterations, and the field is only
    evaluated on samples whose cell is occupied (skipped samples contribute
    zero density/color to the renderer, exactly as empty space would).

    The config is frozen so it can flow into ``config_key`` (memoizing
    context and artifact store); ``dtype`` names the precision the sampled
    point/direction batches are handed to the field in — ``fp64`` (the
    historical double-precision interface) or ``fp32`` (positions quantized
    to single precision before the forward, as real mixed-precision trainers
    do; the field's own compute precision is set by its grid config).
    """

    num_iterations: int = 300
    rays_per_batch: int = 256
    samples_per_ray: int = 32
    near: float = 0.5
    far: float = 3.5
    learning_rate: float = 1e-2
    weight_decay: float = 0.0
    background: tuple[float, float, float] | None = (1.0, 1.0, 1.0)
    seed: int = 0
    log_every: int = 0  # 0 disables progress printing
    occupancy: OccupancyGridConfig | None = None
    dtype: str = "fp64"

    def __post_init__(self) -> None:
        # fp16 positions would quantize sample coordinates below the finest
        # grid resolution and int8 tables cannot train at all, so the batch
        # interface stays at fp32 or better.
        precision.validate_precision(self.dtype, ("fp64", "fp32"))


@dataclass
class TrainingHistory:
    """Per-iteration loss curve, timing and sample counts."""

    losses: list[float] = field(default_factory=list)
    psnrs: list[float] = field(default_factory=list)
    iteration_times: list[float] = field(default_factory=list)
    #: Field evaluations per iteration (pruned count under occupancy mode).
    samples_evaluated: list[int] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def final_psnr(self) -> float:
        return self.psnrs[-1] if self.psnrs else float("nan")

    @property
    def total_time(self) -> float:
        return float(sum(self.iteration_times))

    @property
    def total_samples(self) -> int:
        return int(sum(self.samples_evaluated))


class Trainer:
    """Optimises a radiance field against a dataset of posed images."""

    def __init__(self, field_model: RadianceField, dataset, config: TrainerConfig | None = None):
        self.field = field_model
        self.dataset = dataset
        self.config = config or TrainerConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.optimizer = Adam(
            self.field.parameters(),
            self.field.gradients(),
            learning_rate=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainingHistory()
        self.occupancy_grid = (
            OccupancyGrid.fully_occupied(self.config.occupancy) if self.config.occupancy else None
        )
        self._iterations_done = 0

    # ----------------------------------------------------------- occupancy
    def _field_density(self, unit_points: np.ndarray) -> np.ndarray:
        """Density of the trained field at unit-cube positions (grid updates)."""
        sigma, _ = self.field.forward(unit_points, np.zeros_like(unit_points))
        return sigma

    def _forward_masked(
        self, flat_points: np.ndarray, flat_dirs: np.ndarray, keep: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Field forward on the kept samples only; skipped samples are empty.

        Returns ``(sigma, rgb, kept_indices)`` with full-batch shapes —
        pruned entries hold zero density and color, which is exactly what
        dense sampling would have produced in truly empty space.
        """
        if keep is None or keep.all():
            sigma, rgb = self.field.forward(flat_points, flat_dirs)
            return sigma, rgb, None
        kept = np.flatnonzero(keep)
        sigma = np.zeros(flat_points.shape[0], dtype=np.float64)
        rgb = np.zeros((flat_points.shape[0], 3), dtype=np.float64)
        if kept.size:
            sigma[kept], rgb[kept] = self.field.forward(flat_points[kept], flat_dirs[kept])
        return sigma, rgb, kept

    # --------------------------------------------------------------- steps
    def train_step(self) -> float:
        """Run one optimisation step and return the batch loss."""
        cfg = self.config
        rays, target_rgb = self.dataset.sample_ray_batch(cfg.rays_per_batch, rng=self.rng)
        t_values = stratified_t_values(
            len(rays), cfg.samples_per_ray, cfg.near, cfg.far, rng=self.rng, jitter=True
        )
        points = sample_along_rays(rays, t_values)  # (R, S, 3)
        flat_points = self.dataset.normalize_positions(points.reshape(-1, 3))
        flat_dirs = np.repeat(rays.directions, cfg.samples_per_ray, axis=0)
        # No-op for the fp64 default (copy=False); fp32 quantizes the batch
        # once here instead of per-module downstream.
        batch_dtype = precision.compute_dtype(cfg.dtype)
        flat_points = flat_points.astype(batch_dtype, copy=False)
        flat_dirs = flat_dirs.astype(batch_dtype, copy=False)
        keep = None
        if self.occupancy_grid is not None:
            keep = self.occupancy_grid.occupied(flat_points)

        sigma, rgb, kept = self._forward_masked(flat_points, flat_dirs, keep)
        self.history.samples_evaluated.append(
            flat_points.shape[0] if kept is None else int(kept.size)
        )
        sigma = sigma.reshape(len(rays), cfg.samples_per_ray)
        rgb = rgb.reshape(len(rays), cfg.samples_per_ray, 3)

        background = None if cfg.background is None else np.asarray(cfg.background)
        out = render_rays(sigma, rgb, t_values, background=background)
        loss, grad_pred = mse_loss(out.rgb, target_rgb)
        grad_sigma, grad_rgb = render_rays_backward(
            grad_pred, sigma, rgb, t_values, out, background=background
        )

        self.field.zero_grad()
        if kept is None:
            self.field.backward(grad_sigma.reshape(-1), grad_rgb.reshape(-1, 3))
        elif kept.size:
            self.field.backward(grad_sigma.reshape(-1)[kept], grad_rgb.reshape(-1, 3)[kept])
        if kept is None or kept.size:
            # A fully pruned batch carries no gradient signal: stepping Adam
            # anyway would drift every parameter on stale moments and weight
            # decay, so the field is left untouched until samples survive.
            self.optimizer.step()
        return loss

    def train(self, num_iterations: int | None = None) -> TrainingHistory:
        """Run the full loop; returns the accumulated history."""
        iters = num_iterations if num_iterations is not None else self.config.num_iterations
        tracer = get_tracer()
        for _ in range(iters):
            with tracer.span("nerf.train_iteration", "nerf") as span:
                start = wall_time()
                loss = self.train_step()
                self._iterations_done += 1
                if (
                    self.occupancy_grid is not None
                    and self._iterations_done % self.config.occupancy.update_every == 0
                ):
                    self.occupancy_grid.update(self._field_density)
                elapsed = wall_time() - start
                self.history.losses.append(loss)
                self.history.psnrs.append(psnr_from_mse(loss))
                self.history.iteration_times.append(elapsed)
                if span.enabled:
                    span.add_args(iteration=self._iterations_done, loss=loss)
                    metrics = get_metrics()
                    metrics.counter("nerf.iterations").inc()
                    metrics.counter("nerf.samples_evaluated").inc(
                        self.history.samples_evaluated[-1]
                    )
                    metrics.histogram("nerf.loss").observe(loss)
                    metrics.histogram("nerf.train_psnr").observe(self.history.psnrs[-1])
            if self.config.log_every and self._iterations_done % self.config.log_every == 0:
                console(
                    f"iter {self._iterations_done:5d}  loss {loss:.5f}  "
                    f"train-psnr {self.history.psnrs[-1]:.2f} dB"
                )
        return self.history

    # ----------------------------------------------------------- rendering
    def render_image(self, view_index: int, chunk_size: int = 4096) -> np.ndarray:
        """Render a full test image with the current field (no jitter)."""
        cfg = self.config
        rays = self.dataset.rays_for_view(view_index)
        height, width = self.dataset.image_shape
        rgb_out = np.zeros((len(rays), 3), dtype=np.float64)
        background = None if cfg.background is None else np.asarray(cfg.background)
        for start in range(0, len(rays), chunk_size):
            sub = rays.select(np.arange(start, min(start + chunk_size, len(rays))))
            t_values = stratified_t_values(
                len(sub), cfg.samples_per_ray, cfg.near, cfg.far, jitter=False
            )
            points = sample_along_rays(sub, t_values)
            flat_points = self.dataset.normalize_positions(points.reshape(-1, 3))
            flat_dirs = np.repeat(sub.directions, cfg.samples_per_ray, axis=0)
            keep = None
            if self.occupancy_grid is not None:
                keep = self.occupancy_grid.occupied(flat_points)
            sigma, rgb, _ = self._forward_masked(flat_points, flat_dirs, keep)
            sigma = sigma.reshape(len(sub), cfg.samples_per_ray)
            rgb = rgb.reshape(len(sub), cfg.samples_per_ray, 3)
            out = render_rays(sigma, rgb, t_values, background=background)
            rgb_out[start : start + len(sub)] = out.rgb
        return np.clip(rgb_out.reshape(height, width, 3), 0.0, 1.0)

    def evaluate(self, view_indices: list[int] | None = None) -> float:
        """Average PSNR over held-out test views (Table IV metric)."""
        if view_indices is None:
            view_indices = list(range(self.dataset.num_test_views))
        scores = []
        for view in view_indices:
            rendered = self.render_image(view)
            target = self.dataset.test_image(view)
            scores.append(psnr(rendered, target))
        return float(np.mean(scores))


def psnr_from_mse(mse_value: float, max_value: float = 1.0) -> float:
    """PSNR implied by an MSE loss value."""
    if mse_value <= 0:
        return float("inf")
    return float(10.0 * np.log10(max_value**2 / mse_value))
