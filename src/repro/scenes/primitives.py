"""Signed-distance-field primitives and composite objects.

The Synthetic-NeRF dataset (Blender renders of chair, drums, ficus, hotdog,
lego, materials, mic and ship) is not redistributable, so the reproduction
builds *procedural* stand-in scenes from analytic signed distance fields
(SDFs).  A scene is a list of colored primitives; density is derived from
the SDF so the same volume-rendering code path used for training also
produces the ground-truth images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "sphere_sdf",
    "box_sdf",
    "torus_sdf",
    "cylinder_sdf",
    "plane_sdf",
    "smooth_union",
    "ColoredPrimitive",
    "SDFScene",
]


def _offsets(points: np.ndarray, center: np.ndarray) -> tuple[np.ndarray, ...]:
    """The x, y and z components of ``points - center``, each contiguous."""
    points = np.asarray(points)
    center = np.asarray(center)
    return tuple(points[..., i] - center[..., i] for i in range(3))


def _length(*components: np.ndarray) -> np.ndarray:
    """Euclidean length of a vector given as 2 or 3 component arrays.

    Squares are summed left to right, the order of ``np.linalg.norm(v,
    axis=-1)``, so the result equals it bit for bit.
    """
    total = components[0] * components[0]
    for c in components[1:]:
        total += c * c
    return np.sqrt(total)


def sphere_sdf(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Signed distance to a sphere."""
    return _length(*_offsets(points, center)) - radius


def box_sdf(points: np.ndarray, center: np.ndarray, half_extents: np.ndarray) -> np.ndarray:
    """Signed distance to an axis-aligned box."""
    half = np.asarray(half_extents)
    qx, qy, qz = (np.abs(p) - half[..., i] for i, p in enumerate(_offsets(points, center)))
    outside = _length(np.maximum(qx, 0.0), np.maximum(qy, 0.0), np.maximum(qz, 0.0))
    inside = np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
    return outside + inside


def torus_sdf(
    points: np.ndarray, center: np.ndarray, major_radius: float, minor_radius: float
) -> np.ndarray:
    """Signed distance to a torus lying in the xz-plane."""
    x, y, z = _offsets(points, center)
    return _length(_length(x, z) - major_radius, y) - minor_radius


def cylinder_sdf(
    points: np.ndarray, center: np.ndarray, radius: float, half_height: float
) -> np.ndarray:
    """Signed distance to a vertical (y-axis) capped cylinder."""
    x, y, z = _offsets(points, center)
    d_radial = _length(x, z) - radius
    d_vertical = np.abs(y) - half_height
    outside = _length(np.maximum(d_radial, 0.0), np.maximum(d_vertical, 0.0))
    inside = np.minimum(np.maximum(d_radial, d_vertical), 0.0)
    return outside + inside


def plane_sdf(points: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Signed distance to the plane ``normal . x = offset`` (normal must be unit)."""
    normal = np.asarray(normal, dtype=np.float64)
    return points @ normal - offset


def smooth_union(d1: np.ndarray, d2: np.ndarray, k: float = 0.1) -> np.ndarray:
    """Smooth minimum of two SDFs (polynomial smooth union)."""
    h = np.clip(0.5 + 0.5 * (d2 - d1) / max(k, 1e-9), 0.0, 1.0)
    return d2 * (1.0 - h) + d1 * h - k * h * (1.0 - h)


@dataclass
class ColoredPrimitive:
    """An SDF callable paired with a base color and a density scale.

    Attributes
    ----------
    sdf:
        Callable mapping ``(N, 3)`` points to ``(N,)`` signed distances.
    color:
        Base RGB color of the primitive in ``[0, 1]``.
    density_scale:
        Peak volumetric density inside the primitive.
    sharpness:
        Controls how quickly density falls off across the surface; larger
        values give harder surfaces.
    """

    sdf: callable
    color: tuple[float, float, float]
    density_scale: float = 40.0
    sharpness: float = 30.0

    def density(self, points: np.ndarray) -> np.ndarray:
        d = self.sdf(points)
        return self.density_scale / (1.0 + np.exp(np.clip(self.sharpness * d, -60.0, 60.0)))


class SDFScene:
    """A collection of colored SDF primitives forming a procedural scene.

    Density at a point is the sum of the primitive densities; color is the
    density-weighted average of the primitive colors, optionally modulated
    by a smooth position-dependent tint so the field has view-independent
    texture to learn.
    """

    def __init__(self, name: str, primitives: list[ColoredPrimitive], tint_frequency: float = 2.0):
        if not primitives:
            raise ValueError("a scene needs at least one primitive")
        self.name = name
        self.primitives = list(primitives)
        self.tint_frequency = float(tint_frequency)

    def _densities(self, points: np.ndarray) -> Iterator[np.ndarray]:
        """Each primitive's density at ``points``, in primitive order."""
        for prim in self.primitives:
            yield prim.density(points)

    def density(self, points: np.ndarray) -> np.ndarray:
        """Total volumetric density, shape ``(N,)``."""
        points = np.asarray(points, dtype=np.float64)
        total = np.zeros(points.shape[:-1], dtype=np.float64)
        for sigma in self._densities(points):
            total += sigma
        return total

    def color(self, points: np.ndarray) -> np.ndarray:
        """Albedo color at each point, shape ``(N, 3)``."""
        return self.radiance(points)[1]

    def radiance(
        self, points: np.ndarray, directions: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(density, color)`` from one pass over the primitives.

        With ``directions``, the color gains a mild view-dependent sheen.
        """
        points = np.asarray(points, dtype=np.float64)
        total = np.zeros(points.shape[:-1], dtype=np.float64)
        weights = np.empty(points.shape[:-1] + (len(self.primitives),), dtype=np.float64)
        for i, sigma in enumerate(self._densities(points)):
            total += sigma
            weights[..., i] = sigma + 1e-9
        weights = weights / weights.sum(axis=-1, keepdims=True)
        rgb = weights @ np.array([prim.color for prim in self.primitives], dtype=np.float64)
        if self.tint_frequency > 0:
            tint = 0.12 * np.sin(self.tint_frequency * np.pi * points)
            rgb = np.clip(rgb + tint, 0.0, 1.0)
        if directions is not None:
            directions = np.asarray(directions, dtype=np.float64)
            # Mild view-dependent brightening so view direction matters.
            sheen = 0.05 * (directions[..., 1:2] + 1.0)
            rgb = np.clip(rgb + sheen, 0.0, 1.0)
        return total, rgb
