"""Training-batch geometry at paper scale.

The paper's profiling and hardware evaluation use 35 000 training iterations
per scene with 256 K sampled points per iteration.  This module describes
that batch geometry (rays, points per ray, bytes per point) so the workload
descriptors, GPU roofline and NMP accelerator all agree on sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BatchGeometry", "PAPER_BATCH"]


@dataclass(frozen=True)
class BatchGeometry:
    """Shape of one training iteration's batch."""

    points_per_iteration: int = 256 * 1024
    points_per_ray: int = 32
    iterations_per_scene: int = 35_000
    position_bytes: int = 12       # FP32 x, y, z
    direction_bytes: int = 12      # FP32 dx, dy, dz
    color_bytes: int = 12          # FP32 rgb

    def validate(self) -> None:
        for name in ("points_per_iteration", "points_per_ray", "iterations_per_scene"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.points_per_iteration % self.points_per_ray:
            raise ValueError("points_per_iteration must be a multiple of points_per_ray")

    @property
    def rays_per_iteration(self) -> int:
        return self.points_per_iteration // self.points_per_ray

    @property
    def input_bytes_per_iteration(self) -> int:
        """Bytes of raw point inputs (position + direction) per iteration."""
        return self.points_per_iteration * (self.position_bytes + self.direction_bytes)


#: Batch geometry used throughout the paper's evaluation.
PAPER_BATCH = BatchGeometry()
