"""Hash-table access-trace generation.

The locality experiments (Fig. 6, 7, 9) need realistic streams of hash-table
lookups: points sampled along rays of a training batch, converted per level
into the eight surrounding cube vertices, hashed with a chosen hash function,
and ordered by a chosen streaming order.  The resulting byte-address traces
feed :class:`repro.dram.DRAMSystem` and the NMP accelerator model.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from ..core import precision
from ..core.hashing import HashFunction
from ..nerf.encoding import HashGridConfig
from ..nerf.occupancy import OccupancyGrid, OccupancyGridConfig, adaptive_sample_mask
from ..streams.ir import RequestStream, TableLayout, table_base_address

__all__ = [
    "TraceConfig",
    "generate_batch_points",
    "generate_scene_batch_points",
    "occupancy_grid_for_trace",
    "occupancy_point_mask",
    "level_lookup_indices",
    "HashTraceGenerator",
]


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of a synthetic hash-lookup trace.

    The defaults mimic iNGP's ray marching through the occupied part of a
    scene: 64 samples spaced roughly ``sqrt(3)/1024`` of the scene extent
    apart, which is the cone-marching step iNGP uses inside occupied regions.
    Consecutive samples therefore share cubes at coarse and mid levels —
    exactly the locality Fig. 7(a) quantifies.

    When ``scene`` names one of the eight procedural scenes, rays are instead
    cast through random pixels of orbiting training cameras (the Synthetic-
    NeRF capture geometry) and each ray's sampling interval is tightened to
    the occupied span found by probing the scene's density field — the same
    occupancy-guided marching iNGP performs, so the resulting lookup stream
    matches a real training batch for that scene rather than a uniform
    random-ray surrogate.
    """

    num_rays: int = 256
    points_per_ray: int = 64
    near: float = 0.3
    far: float = 0.55
    seed: int = 0
    #: Precision of a stored table entry in the *modeled* memory system (one
    #: of :data:`repro.core.precision.PRECISIONS`).  The default fp16 models
    #: iNGP's production half-precision tables: F=2 x FP16 = the 4-byte
    #: entries the previous hardcoded ``entry_bytes=4`` assumed.
    dtype: str = "fp16"
    features_per_entry: int = 2
    #: Optional named scene; ``None`` keeps the scene-agnostic random rays.
    scene: str | None = None
    #: Density probes per ray used to find the occupied [near, far] span.
    probe_samples: int = 24
    #: Camera orbit radius and scene half-extent (match the dataset defaults
    #: so scene traces live in the same unit cube the trainer uses).
    camera_radius: float = 2.2
    scene_bound: float = 1.2
    fov_degrees: float = 50.0
    #: Occupancy-grid empty-space skipping: with ``occupancy=True`` (scene
    #: traces only) the per-level corner-index streams drop every sample
    #: whose occupancy-grid cell is empty, modelling iNGP's production
    #: bitfield marching.  The sampled *points* stay dense — pruning happens
    #: at stream emission, so pruned streams are exact subsets of dense ones.
    occupancy: bool = False
    occupancy_resolution: int = 32
    occupancy_levels: int = 1
    occupancy_threshold: float = 1e-3
    #: Early-ray-termination transmittance threshold (0 disables): samples a
    #: ray reaches only after its transmittance through the scene's density
    #: has fallen below this value are dropped from the stream too.
    occupancy_termination: float = 0.0

    def __post_init__(self) -> None:
        precision.validate_precision(self.dtype)

    @property
    def entry_bytes(self) -> int:
        """Bytes of one embedding vector (``F`` features at ``dtype`` width)."""
        return precision.entry_bytes(self.dtype, self.features_per_entry)

    def dense(self) -> "TraceConfig":
        """The occupancy-free twin of this trace (identical sampled points).

        All occupancy fields are reset to their defaults so every pruned
        variant of one trace shares a single dense artifact key.
        """
        defaults = {
            f.name: f.default
            for f in dataclasses.fields(TraceConfig)
            if f.name.startswith("occupancy")
        }
        if all(getattr(self, name) == value for name, value in defaults.items()):
            return self
        return dataclasses.replace(self, **defaults)


def generate_batch_points(config: TraceConfig) -> np.ndarray:
    """Sample a batch of points along rays of a training batch.

    Returns an array of shape ``(num_rays, points_per_ray, 3)`` with
    coordinates in ``[0, 1]``; consecutive points along axis 1 belong to the
    same ray (this ordering is what the ray-first streaming order exploits).
    With ``config.scene`` set, rays come from the scene's orbiting training
    cameras and are clipped to the occupied density span (see
    :func:`generate_scene_batch_points`); otherwise they are scene-agnostic
    random rays inside the unit cube.
    """
    if config.scene is not None:
        return generate_scene_batch_points(config)
    rng = np.random.default_rng(config.seed)
    origins = rng.uniform(0.0, 1.0, size=(config.num_rays, 3))
    directions = rng.normal(size=(config.num_rays, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    t = np.linspace(config.near, config.far, config.points_per_ray)
    points = origins[:, None, :] + t[None, :, None] * directions[:, None, :] * 0.5
    return np.clip(points, 0.0, 1.0)


@functools.lru_cache(maxsize=64)
def _orbit_poses(num_views: int, radius: float) -> np.ndarray:
    """Stacked, read-only camera-to-world matrices of a scene trace's orbit."""
    from ..scenes.camera import poses_on_sphere

    poses = np.stack(poses_on_sphere(num_views, radius=radius, elevation_degrees=25.0))
    poses.flags.writeable = False
    return poses


def generate_scene_batch_points(config: TraceConfig) -> np.ndarray:
    """Sample a training batch of ray points through a named procedural scene.

    Mimics one iNGP training batch on the Synthetic-NeRF capture geometry:
    random pixels of cameras orbiting the object produce world-space rays,
    each ray's sampling interval is narrowed to the span where the scene's
    density field is occupied (probed at ``config.probe_samples`` positions),
    and the ``points_per_ray`` samples are taken uniformly inside that span.
    World coordinates are mapped to the hash grid's unit cube with the same
    ``scene_bound`` convention as :class:`repro.scenes.dataset.SyntheticNeRFDataset`.
    """
    if config.scene is None:
        raise ValueError("generate_scene_batch_points requires TraceConfig.scene to be set")
    # Imported here: workloads must stay importable without the scene stack.
    from ..scenes.camera import CameraIntrinsics
    from ..scenes.library import build_scene

    scene = build_scene(config.scene)
    rng = np.random.default_rng(config.seed)

    # Orbiting training cameras, one random (view, pixel) per ray.
    num_views = int(max(4, min(16, config.num_rays // 16)))
    poses = _orbit_poses(num_views, config.camera_radius)
    image_size = 64  # only sets the pixel lattice the rays pass through
    intrinsics = CameraIntrinsics.from_fov(image_size, image_size, config.fov_degrees)
    view = rng.integers(0, num_views, size=config.num_rays)
    pixels = rng.uniform(0.0, image_size, size=(config.num_rays, 2))
    cam_dirs = np.stack(
        [
            (pixels[:, 0] - image_size / 2.0) / intrinsics.focal,
            -(pixels[:, 1] - image_size / 2.0) / intrinsics.focal,
            -np.ones(config.num_rays),
        ],
        axis=1,
    )
    rotations = poses[view][:, :3, :3]
    directions = np.einsum("rij,rj->ri", rotations, cam_dirs)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    origins = poses[view][:, :3, 3]

    # Probe the density field to find each ray's occupied [near, far] span.
    bound = config.scene_bound
    diag = bound * np.sqrt(3.0)
    t_near = max(1e-3, config.camera_radius - diag)
    t_far = config.camera_radius + diag
    t_probe = np.linspace(t_near, t_far, config.probe_samples)
    probes = origins[:, None, :] + t_probe[None, :, None] * directions[:, None, :]
    occupied = scene.density(probes) > 1e-3
    hit = occupied.any(axis=1)
    first = occupied.argmax(axis=1)
    last = config.probe_samples - 1 - occupied[:, ::-1].argmax(axis=1)
    dt = t_probe[1] - t_probe[0] if config.probe_samples > 1 else 0.0
    near = np.where(hit, t_probe[first] - 0.5 * dt, t_near)
    far = np.where(hit, t_probe[last] + 0.5 * dt, t_far)
    far = np.maximum(far, near + 1e-3)

    fractions = np.linspace(0.0, 1.0, config.points_per_ray)
    t = near[:, None] + (far - near)[:, None] * fractions[None, :]
    world = origins[:, None, :] + t[..., None] * directions[:, None, :]
    unit = (world + bound) / (2.0 * bound)  # dataset normalize_positions convention
    return np.clip(unit, 0.0, 1.0)


def occupancy_grid_for_trace(
    config: TraceConfig, densities: np.ndarray | None = None
) -> OccupancyGrid:
    """The occupancy grid pruning a scene trace's lookup streams.

    Built from the scene's analytic density field sampled over the hash
    grid's unit cube (conservatively supersampled), or rebuilt from a stored
    ``densities`` estimate (the :class:`~repro.pipeline.store.ArtifactStore`
    round-trips the estimate array, not the grid object).
    """
    if config.scene is None:
        raise ValueError("occupancy pruning requires TraceConfig.scene to be set")
    occ_config = OccupancyGridConfig(
        resolution=config.occupancy_resolution,
        num_levels=config.occupancy_levels,
        density_threshold=config.occupancy_threshold,
    )
    if densities is not None:
        return OccupancyGrid.from_densities(occ_config, densities)
    from ..scenes.library import build_scene

    scene = build_scene(config.scene)
    bound = config.scene_bound

    def unit_density(unit_points: np.ndarray) -> np.ndarray:
        return scene.density(unit_points * (2.0 * bound) - bound)

    return OccupancyGrid.from_density_fn(occ_config, unit_density)


def occupancy_point_mask(
    config: TraceConfig,
    points: np.ndarray | None = None,
    grid: OccupancyGrid | None = None,
) -> np.ndarray:
    """Flat keep mask over a trace's ``num_rays * points_per_ray`` samples.

    A sample survives when its occupancy-grid cell is occupied; with
    ``occupancy_termination > 0`` also only while the ray's transmittance
    through the scene's density (accumulated over kept samples, world-scale
    segment widths) still exceeds the threshold.
    """
    if not config.occupancy:
        raise ValueError("occupancy_point_mask requires TraceConfig.occupancy=True")
    if points is None:
        points = generate_batch_points(config.dense())
    points = np.asarray(points, dtype=np.float64).reshape(
        config.num_rays, config.points_per_ray, 3
    )
    if grid is None:
        grid = occupancy_grid_for_trace(config)
    t_values = densities = None
    if config.occupancy_termination > 0.0:
        from ..scenes.library import build_scene

        bound = config.scene_bound
        world = points * (2.0 * bound) - bound
        densities = build_scene(config.scene).density(world.reshape(-1, 3)).reshape(
            config.num_rays, config.points_per_ray
        )
        # Scene samples are uniformly spaced per ray; recover the world-scale
        # t axis from cumulative inter-sample distances.
        step = np.linalg.norm(np.diff(world, axis=1), axis=-1)
        step = np.concatenate([np.zeros((config.num_rays, 1)), step], axis=1)
        t_values = np.cumsum(step, axis=1)
    mask = adaptive_sample_mask(
        grid,
        points,
        t_values=t_values,
        densities=densities,
        transmittance_threshold=config.occupancy_termination,
    )
    return mask.reshape(-1)


def level_lookup_indices(
    points: np.ndarray,
    level: int,
    grid_config: HashGridConfig,
    hash_fn: HashFunction | None = None,
) -> np.ndarray:
    """Hash-table indices of the 8 cube corners of each point at one level.

    The index step of each level of
    :meth:`repro.nerf.encoding.HashGridEncoding.forward`: each point's cube
    base vertex, then one incremental
    :meth:`~repro.core.hashing.HashFunction.corner_hashes` call of
    :meth:`HashGridConfig.level_indexer`.
    :meth:`~repro.nerf.encoding.HashGridEncoding.vertex_indices` is the
    oracle both are tested against.

    Parameters
    ----------
    points:
        ``(N, 3)`` positions in ``[0, 1]`` (any leading shape is flattened).
    level:
        Hash-table level.
    grid_config:
        The multi-resolution table configuration.
    hash_fn:
        Overrides ``grid_config.hash_fn`` when given (used to compare the
        original and Morton hash functions on identical point streams).

    Returns
    -------
    numpy.ndarray
        Integer indices of shape ``(N, 8)`` in ``[0, level_table_entries)``.
    """
    pts = np.clip(np.asarray(points, dtype=np.float64).reshape(-1, 3), 0.0, 1.0)
    res = grid_config.resolutions[level]
    base = np.clip(np.floor(pts * res).astype(np.int64), 0, res - 1)
    indexer = grid_config.level_indexer(level, hash_fn)
    return indexer.corner_hashes(base, grid_config.level_table_entries(level))


class HashTraceGenerator:
    """Generates complete hash-lookup address traces for a training batch.

    With ``trace_config.occupancy`` the emitted streams are pruned by the
    occupancy-grid keep mask: samples in empty cells (and, with termination
    enabled, past the opaque part of the scene) issue no lookups, so every
    pruned stream is an exact subset of its dense twin in stream order.
    """

    def __init__(
        self,
        grid_config: HashGridConfig | None = None,
        trace_config: TraceConfig | None = None,
        hash_fn: HashFunction | None = None,
    ):
        self.grid = grid_config or HashGridConfig()
        self.config = trace_config or TraceConfig()
        self.hash_fn = hash_fn or self.grid.hash_fn
        self._points = generate_batch_points(self.config.dense())
        self.occupancy_mask: np.ndarray | None = (
            occupancy_point_mask(self.config, points=self._points)
            if self.config.occupancy
            else None
        )

    @property
    def points(self) -> np.ndarray:
        """The sampled batch, shape ``(num_rays, points_per_ray, 3)``."""
        return self._points

    # ------------------------------------------------------- StreamSource
    @property
    def name(self) -> str:
        return "nerf.hash_trace"

    @property
    def layout(self) -> TableLayout:
        return self.grid

    @property
    def num_streams(self) -> int:
        return self.grid.num_levels

    def stream(self, level: int, point_order: np.ndarray | None = None) -> RequestStream:
        """One level's lookups as a typed :class:`RequestStream`.

        The single trace-emission code path: points are permuted by
        ``point_order`` (a permutation over the flattened point axis, as
        produced by :mod:`repro.core.streaming`), hashed into per-point
        corner indices, grouped by cube id (the reuse-group axis downstream
        locality accounting keys on), and — with occupancy enabled — pruned
        to the exact IR subset of the dense stream, after the reordering so
        stream order is preserved.
        """
        from ..core.streaming import cube_ids

        pts = self._points.reshape(-1, 3)
        if point_order is not None:
            pts = pts[point_order]
        indices = level_lookup_indices(pts, level, self.grid, self.hash_fn)
        stream = RequestStream(
            indices=indices,
            entry_bytes=self.config.entry_bytes,
            table_entries=self.grid.level_table_entries(level),
            base_address=table_base_address(self.grid, level, self.config.entry_bytes),
            dtype=self.config.dtype,
            group_ids=cube_ids(pts, self.grid.resolutions[level]),
            source=self.name,
            label=f"level={level}",
        )
        if self.occupancy_mask is not None:
            keep = (
                self.occupancy_mask
                if point_order is None
                else self.occupancy_mask[point_order]
            )
            stream = stream.subset(keep)
        return stream
