"""Equivalence suite for occupancy-grid adaptive ray marching.

The load-bearing guarantees:

* a fully-occupied grid reproduces dense sampling *exactly* (trainer losses
  bit-identical, masks all-true);
* the vectorized adaptive mask equals the per-sample reference oracle;
* pruned corner-index streams are exact subsets of their dense twins;
* occupancy-pruned rendering matches the dense reference within 0.1 dB
  PSNR on multiple library scenes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.hashing import MortonLocalityHash
from repro.core.streaming import StreamingOrder, cube_ids, row_requests_for_stream_reference
from repro.nerf import (
    HashGridConfig,
    InstantNGPField,
    OccupancyGrid,
    OccupancyGridConfig,
    Trainer,
    TrainerConfig,
    adaptive_sample_mask,
    adaptive_sample_mask_reference,
    generate_rays,
    psnr,
    render_rays,
    sample_along_rays,
    stratified_t_values,
)
from repro.pipeline import SimulationContext
from repro.pipeline.store import ArtifactStore
from repro.scenes import DatasetConfig
from repro.scenes.camera import CameraIntrinsics, poses_on_sphere
from repro.scenes.library import build_scene
from repro.streams import RequestStream
from repro.workloads.traces import (
    HashTraceGenerator,
    TraceConfig,
    level_lookup_indices,
    occupancy_grid_for_trace,
    occupancy_point_mask,
)


# ----------------------------------------------------------------- the grid
def test_grid_config_validation():
    with pytest.raises(ValueError):
        OccupancyGridConfig(resolution=0)
    with pytest.raises(ValueError):
        OccupancyGridConfig(resolution=6, num_levels=3)  # 6 % 4 != 0
    with pytest.raises(ValueError):
        OccupancyGridConfig(ema_decay=0.0)
    with pytest.raises(ValueError):
        OccupancyGridConfig(density_threshold=0.0)
    with pytest.raises(ValueError):
        OccupancyGridConfig(update_every=0)
    assert OccupancyGridConfig(resolution=16, num_levels=3).resolutions == [16, 8, 4]


def test_fully_occupied_grid_keeps_everything():
    grid = OccupancyGrid.fully_occupied(OccupancyGridConfig(resolution=8, num_levels=2))
    points = np.random.default_rng(0).random((50, 3))
    assert grid.occupied(points).all()
    assert grid.occupied(points, level=1).all()
    assert grid.occupancy_fraction() == 1.0


def test_grid_from_density_fn_halfspace():
    """Occupancy follows the density field; mips are conservative ORs."""
    cfg = OccupancyGridConfig(resolution=8, num_levels=2, density_threshold=0.5)
    grid = OccupancyGrid.from_density_fn(cfg, lambda p: (p[:, 0] > 0.5).astype(float))
    pts = np.random.default_rng(1).random((200, 3))
    occupied = grid.occupied(pts)
    # Away from the boundary cells the grid matches the half-space exactly.
    interior = np.abs(pts[:, 0] - 0.5) > 1.0 / cfg.resolution
    assert np.array_equal(occupied[interior], (pts[:, 0] > 0.5)[interior])
    # Conservative mip: whatever level 0 keeps, level 1 keeps too.
    coarse = grid.occupied(pts, level=1)
    assert np.all(coarse[occupied])
    assert 0.0 < grid.occupancy_fraction() < 1.0


def test_ema_decay_prunes_abandoned_cells():
    cfg = OccupancyGridConfig(resolution=4, ema_decay=0.5, density_threshold=0.1)
    grid = OccupancyGrid.fully_occupied(cfg)
    assert grid.occupancy_fraction() == 1.0
    # The field is empty everywhere: every update halves the estimate.
    fractions = [grid.update(lambda p: np.zeros(p.shape[0])) for _ in range(6)]
    assert fractions[-1] == 0.0
    assert fractions == sorted(fractions, reverse=True)
    # A refreshed cell stays occupied while empty cells decay away.
    grid2 = OccupancyGrid.fully_occupied(cfg)
    for _ in range(6):
        grid2.update(lambda p: (p[:, 2] > 0.75).astype(float))
    assert grid2.occupied(np.array([[0.5, 0.5, 0.9]]))[0]
    assert not grid2.occupied(np.array([[0.5, 0.5, 0.1]]))[0]


def test_densities_round_trip():
    cfg = OccupancyGridConfig(resolution=8, num_levels=2, density_threshold=0.3)
    grid = OccupancyGrid.from_density_fn(cfg, lambda p: p[:, 1])
    clone = OccupancyGrid.from_densities(cfg, grid.densities)
    pts = np.random.default_rng(2).random((100, 3))
    for level in range(cfg.num_levels):
        assert np.array_equal(grid.occupied(pts, level), clone.occupied(pts, level))


# ------------------------------------------------------------ mask vs oracle
@pytest.mark.parametrize("threshold", [0.0, 1e-3, 0.2])
@pytest.mark.parametrize("level", [0, 1])
def test_adaptive_mask_matches_reference(threshold, level):
    rng = np.random.default_rng(7)
    cfg = OccupancyGridConfig(resolution=16, num_levels=2, density_threshold=0.4)
    grid = OccupancyGrid.from_density_fn(cfg, lambda p: np.sin(9 * p[:, 0]) + p[:, 1])
    points = rng.random((24, 10, 3))
    t_values = np.sort(rng.random((24, 10)) * 2.0, axis=1)
    densities = rng.random((24, 10)) * 4.0
    vec = adaptive_sample_mask(grid, points, t_values, densities, threshold, level=level)
    ref = adaptive_sample_mask_reference(grid, points, t_values, densities, threshold, level=level)
    assert np.array_equal(vec, ref)


def test_termination_requires_densities():
    grid = OccupancyGrid.fully_occupied(OccupancyGridConfig(resolution=4))
    points = np.zeros((2, 3, 3))
    with pytest.raises(ValueError):
        adaptive_sample_mask(grid, points, transmittance_threshold=0.5)


# ------------------------------------------------------- pruned trace streams
def test_pruned_streams_are_subsets():
    """Pruned corner-index streams are exact subsets of the dense streams."""
    trace = TraceConfig(
        num_rays=32, points_per_ray=16, scene="lego", occupancy=True, occupancy_resolution=16
    )
    mask = occupancy_point_mask(trace)
    assert mask.dtype == bool and mask.shape == (32 * 16,)
    assert 0 < mask.sum() < mask.size
    dense_gen = HashTraceGenerator(trace_config=trace.dense())
    pruned_gen = HashTraceGenerator(trace_config=trace)
    rng = np.random.default_rng(0)
    perm = rng.permutation(mask.size)
    for level in (0, 6):
        for order in (None, perm):
            dense_idx = dense_gen.stream(level, order).indices
            pruned_idx = pruned_gen.stream(level, order).indices
            keep = mask if order is None else mask[order]
            assert np.array_equal(pruned_idx, dense_idx[keep])


def test_termination_only_tightens_the_mask():
    base = TraceConfig(num_rays=32, points_per_ray=16, scene="lego", occupancy=True)
    tightened = dataclasses.replace(base, occupancy_termination=1e-2)
    mask = occupancy_point_mask(base)
    mask_term = occupancy_point_mask(tightened)
    assert np.all(mask[~mask] == mask_term[~mask])  # pruned stays pruned
    assert np.all(~mask_term | mask)  # termination is a subset of skipping
    assert mask_term.sum() < mask.sum()


def test_occupancy_requires_scene():
    trace = TraceConfig(num_rays=4, points_per_ray=4, occupancy=True)
    with pytest.raises(ValueError):
        occupancy_grid_for_trace(trace)
    with pytest.raises(ValueError):
        SimulationContext().occupancy_mask(trace)


def test_context_pruned_artifacts_and_store_round_trip(tmp_path):
    trace = TraceConfig(
        num_rays=24, points_per_ray=12, scene="mic", occupancy=True, occupancy_resolution=16
    )
    grid = HashGridConfig(num_levels=4)
    hash_fn = MortonLocalityHash()
    store = ArtifactStore(tmp_path / "store")
    ctx = SimulationContext(store=store)
    mask = ctx.occupancy_mask(trace)

    # Ray-first order is ray-major, so the pruned stream is the dense stream
    # under the keep mask.
    def stream(t):
        return ctx.request_stream(grid, t, hash_fn, StreamingOrder.RAY_FIRST, 3)

    pruned, dense = stream(trace), stream(trace.dense())
    assert np.array_equal(pruned.indices, dense.indices[mask])

    # Pruned row requests never exceed dense ones; the stream path over the
    # cached corner indices must agree with re-hashing the surviving points
    # directly.
    dense_rows = ctx.stream_row_requests(dense)
    pruned_rows = ctx.stream_row_requests(pruned)
    assert 0 < pruned_rows <= dense_rows
    kept_points = ctx.batch_points(trace).reshape(-1, 3)[mask]
    direct = RequestStream(
        indices=level_lookup_indices(kept_points, 3, grid, hash_fn),
        entry_bytes=trace.entry_bytes,
        table_entries=grid.level_table_entries(3),
        group_ids=cube_ids(kept_points, grid.resolutions[3]),
    )
    assert row_requests_for_stream_reference(direct) == pruned_rows
    # A fresh context over the same store loads instead of recomputing.
    ctx2 = SimulationContext(store=ArtifactStore(tmp_path / "store"))
    mask2 = ctx2.occupancy_mask(trace)
    assert np.array_equal(mask, mask2)
    assert ctx2.stats.store_hits > 0


# -------------------------------------------------------------- the trainer
def _make_trainer(dataset, occupancy, iterations=6):
    grid = HashGridConfig(num_levels=4, table_size=2**10, max_resolution=64)
    field = InstantNGPField(grid, hidden_dim=8, geo_features=3, rng=np.random.default_rng(5))
    config = TrainerConfig(
        num_iterations=iterations,
        rays_per_batch=48,
        samples_per_ray=12,
        seed=11,
        occupancy=occupancy,
    )
    return Trainer(field, dataset, config)


@pytest.fixture(scope="module")
def small_dataset():
    return SimulationContext().dataset(
        "lego",
        DatasetConfig(image_size=16, num_train_views=3, num_test_views=1, gt_samples_per_ray=24),
    )


def test_fully_occupied_trainer_is_exactly_dense(small_dataset):
    dense = _make_trainer(small_dataset, None)
    adaptive = _make_trainer(
        small_dataset, OccupancyGridConfig(resolution=8, update_every=10_000)
    )
    dense_history = dense.train()
    adaptive_history = adaptive.train()
    assert dense_history.losses == adaptive_history.losses
    assert adaptive_history.samples_evaluated == dense_history.samples_evaluated
    assert np.array_equal(dense.render_image(0), adaptive.render_image(0))


def test_adaptive_trainer_prunes_and_stays_finite(small_dataset):
    occupancy = OccupancyGridConfig(
        resolution=8, update_every=2, ema_decay=0.5, density_threshold=0.5
    )
    trainer = _make_trainer(small_dataset, occupancy, iterations=8)
    history = trainer.train()
    assert np.isfinite(history.final_loss)
    assert trainer.occupancy_grid.updates == 4
    dense_count = 48 * 12
    assert history.samples_evaluated == [dense_count] * 8  # warm-up: all occupied
    # Decay toward an empty field prunes cells monotonically (the mean clamp
    # keeps the above-average cells, as iNGP's update rule does) ...
    fractions = [trainer.occupancy_grid.update(lambda p: np.zeros(p.shape[0])) for _ in range(4)]
    assert fractions == sorted(fractions, reverse=True) and fractions[-1] < 1.0
    # ... and with a fully empty grid the trainer evaluates nothing at all —
    # the kept == 0 path must still produce a finite, background-only loss.
    trainer.occupancy_grid = OccupancyGrid.from_densities(
        occupancy, np.zeros(occupancy.num_cells)
    )
    assert trainer.occupancy_grid.occupancy_fraction() == 0.0
    before = [p.copy() for p in trainer.field.parameters()]
    loss = trainer.train_step()
    assert np.isfinite(loss)
    assert trainer.history.samples_evaluated[-1] == 0
    # No surviving samples -> no gradient signal -> the field must be frozen
    # (no blind Adam step on stale moments / weight decay).
    for old, new in zip(before, trainer.field.parameters()):
        assert np.array_equal(old, new)
    image = trainer.render_image(0)
    assert image.shape == (16, 16, 3)
    assert np.isfinite(image).all()


def test_sample_along_rays_occupancy_mode():
    rays = generate_rays(np.eye(4), np.array([[20.0, 0, 8], [0, 20.0, 8], [0, 0, 1]]), 4, 4)
    t_values = stratified_t_values(len(rays), 5, 0.1, 1.0, jitter=False)
    grid = OccupancyGrid.fully_occupied(OccupancyGridConfig(resolution=4))
    dense = sample_along_rays(rays, t_values)
    points, mask = sample_along_rays(rays, t_values, occupancy=grid, normalize=lambda p: p)
    assert np.array_equal(points, dense)
    assert mask.shape == (len(rays), 5) and mask.all()


# ----------------------------------------------------------- PSNR equivalence
def _render_scene_view(scene_name, samples, grid=None, image_size=24):
    """Reference-render one orbit view from the analytic scene radiance."""
    scene = build_scene(scene_name)
    bound = 1.2
    pose = poses_on_sphere(4, radius=2.2, elevation_degrees=25.0)[0]
    intrinsics = CameraIntrinsics.from_fov(image_size, image_size, 50.0)
    rays = generate_rays(pose, intrinsics.matrix, image_size, image_size)
    t_values = stratified_t_values(len(rays), samples, 0.5, 3.5, jitter=False)
    points = sample_along_rays(rays, t_values)
    dirs = np.repeat(rays.directions, samples, axis=0)
    sigma, rgb = scene.radiance(points.reshape(-1, 3), dirs)
    sigma = sigma.reshape(len(rays), samples)
    rgb = rgb.reshape(len(rays), samples, 3)
    if grid is not None:
        unit = np.clip((points + bound) / (2.0 * bound), 0.0, 1.0)
        sigma = np.where(adaptive_sample_mask(grid, unit), sigma, 0.0)
    out = render_rays(sigma, rgb, t_values, background=np.ones(3))
    return np.clip(out.rgb.reshape(image_size, image_size, 3), 0.0, 1.0)


@pytest.mark.parametrize("scene_name", ["lego", "mic"])
def test_pruned_rendering_matches_dense_psnr(scene_name):
    """Occupancy pruning costs < 0.1 dB against the dense reference render."""
    trace = TraceConfig(scene=scene_name, occupancy=True, occupancy_resolution=32)
    grid = occupancy_grid_for_trace(trace)
    assert grid.occupancy_fraction() < 0.5  # it actually skips space
    reference = _render_scene_view(scene_name, samples=96)
    dense = _render_scene_view(scene_name, samples=48)
    pruned = _render_scene_view(scene_name, samples=48, grid=grid)
    dense_psnr = psnr(dense, reference)
    pruned_psnr = psnr(pruned, reference)
    assert abs(dense_psnr - pruned_psnr) <= 0.1
