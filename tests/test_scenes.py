"""Tests for the SDF primitives, scene library and camera model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.scenes.camera import CameraIntrinsics, look_at, poses_on_sphere
from repro.scenes.library import SCENE_NAMES, available_scenes, build_scene
from repro.scenes.primitives import (
    ColoredPrimitive,
    SDFScene,
    box_sdf,
    cylinder_sdf,
    plane_sdf,
    smooth_union,
    sphere_sdf,
    torus_sdf,
)


def test_sphere_sdf_signs():
    center = np.array([0.0, 0.0, 0.0])
    assert sphere_sdf(np.array([[0.0, 0.0, 0.0]]), center, 1.0)[0] == pytest.approx(-1.0)
    assert sphere_sdf(np.array([[2.0, 0.0, 0.0]]), center, 1.0)[0] == pytest.approx(1.0)
    assert sphere_sdf(np.array([[1.0, 0.0, 0.0]]), center, 1.0)[0] == pytest.approx(0.0)


def test_box_and_cylinder_sdf_inside_outside():
    box = box_sdf(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), [0, 0, 0], [0.5, 0.5, 0.5])
    assert box[0] < 0 < box[1]
    cyl = cylinder_sdf(np.array([[0.0, 0.0, 0.0], [0.0, 5.0, 0.0]]), [0, 0, 0], 1.0, 1.0)
    assert cyl[0] < 0 < cyl[1]


def test_torus_and_plane_sdf():
    torus = torus_sdf(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), [0, 0, 0], 1.0, 0.2)
    assert torus[0] < 0 < torus[1]
    plane = plane_sdf(np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]), [0.0, 1.0, 0.0], 0.0)
    assert plane[0] > 0 > plane[1]


def test_smooth_union_lower_bound():
    d1 = np.array([0.5, -0.2])
    d2 = np.array([0.3, 0.4])
    union = smooth_union(d1, d2, k=0.1)
    assert np.all(union <= np.minimum(d1, d2) + 1e-9)


def test_colored_primitive_density_profile():
    prim = ColoredPrimitive(
        lambda p: sphere_sdf(p, [0, 0, 0], 0.5), (1.0, 0.0, 0.0), density_scale=10.0
    )
    inside = prim.density(np.array([[0.0, 0.0, 0.0]]))[0]
    outside = prim.density(np.array([[2.0, 0.0, 0.0]]))[0]
    assert inside > 9.0
    assert outside < 0.1


def test_scene_library_contains_all_eight_scenes():
    assert available_scenes() == SCENE_NAMES
    assert len(SCENE_NAMES) == 8
    for name in SCENE_NAMES:
        scene = build_scene(name)
        assert isinstance(scene, SDFScene)
        assert scene.name == name
        points = np.random.default_rng(0).uniform(-1, 1, (64, 3))
        density = scene.density(points)
        color = scene.color(points)
        assert density.shape == (64,)
        assert color.shape == (64, 3)
        assert np.all(density >= 0)
        assert np.all((color >= 0) & (color <= 1))
        # Every scene must contain some occupied volume near the origin region.
        dense_points = np.random.default_rng(1).uniform(-0.6, 0.6, (512, 3))
        assert scene.density(dense_points).max() > 1.0


def test_build_scene_unknown_name():
    with pytest.raises(KeyError):
        build_scene("spaceship")


def test_scenes_are_distinct():
    points = np.random.default_rng(3).uniform(-0.8, 0.8, (256, 3))
    signatures = {name: build_scene(name).density(points).sum() for name in SCENE_NAMES}
    assert len({round(v, 3) for v in signatures.values()}) == len(SCENE_NAMES)


def test_scene_radiance_view_dependence():
    scene = build_scene("lego")
    points = np.random.default_rng(0).uniform(-0.5, 0.5, (32, 3))
    up = np.tile([0.0, 1.0, 0.0], (32, 1))
    down = np.tile([0.0, -1.0, 0.0], (32, 1))
    _, rgb_up = scene.radiance(points, up)
    _, rgb_down = scene.radiance(points, down)
    assert rgb_up.mean() >= rgb_down.mean()


# ---------------------------------------------------------------------------
# Bit-identity of the SDFs and of the one-pass radiance.  The oracles are the
# axis-reduction forms: ``np.linalg.norm(..., axis=-1)`` and ``np.max(...,
# axis=-1)`` over stacked components, and a color loop that evaluates every
# primitive again.


def _norm_oracle(v):
    return np.linalg.norm(v, axis=-1)


def _sphere_oracle(points, center, radius):
    return _norm_oracle(points - np.asarray(center)) - radius


def _box_oracle(points, center, half_extents):
    q = np.abs(points - np.asarray(center)) - np.asarray(half_extents)
    return _norm_oracle(np.maximum(q, 0.0)) + np.minimum(np.max(q, axis=-1), 0.0)


def _torus_oracle(points, center, major_radius, minor_radius):
    p = points - np.asarray(center)
    q = np.stack([_norm_oracle(p[..., [0, 2]]) - major_radius, p[..., 1]], axis=-1)
    return _norm_oracle(q) - minor_radius


def _cylinder_oracle(points, center, radius, half_height):
    p = points - np.asarray(center)
    d = np.stack([_norm_oracle(p[..., [0, 2]]) - radius, np.abs(p[..., 1]) - half_height], axis=-1)
    return _norm_oracle(np.maximum(d, 0.0)) + np.minimum(np.max(d, axis=-1), 0.0)


def _color_oracle(scene, points):
    weights = np.zeros(points.shape[:-1] + (len(scene.primitives),))
    for i, prim in enumerate(scene.primitives):
        weights[..., i] = prim.density(points) + 1e-9
    weights = weights / weights.sum(axis=-1, keepdims=True)
    base = weights @ np.array([prim.color for prim in scene.primitives])
    if scene.tint_frequency > 0:
        base = np.clip(base + 0.12 * np.sin(scene.tint_frequency * np.pi * points), 0.0, 1.0)
    return base


_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
_COORD = st.one_of(
    st.floats(-3.0, 3.0, width=64),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    _SPECIAL,
)
_SHAPES = st.one_of(
    st.just((3,)),
    st.integers(0, 24).map(lambda n: (n, 3)),
    st.integers(0, 6).map(lambda n: (2, n, 3)),
)
_PARAM = st.floats(-1.0, 1.0, width=64)
_POSITIVE = st.floats(0.0, 1.0, width=64)


def _same_bits(actual, expected):
    """Equal bytes, except that a NaN matches any NaN.

    IEEE 754 leaves the sign and payload of a NaN result unspecified, and
    numpy's scalar and vector loops pick them differently; a NaN input
    therefore has to give a NaN, not a particular one.
    """
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.dtype != expected.dtype or actual.shape != expected.shape:
        return False
    nan = np.isnan(expected)
    if not np.array_equal(np.isnan(actual), nan):
        return False
    return actual[~nan].tobytes() == expected[~nan].tobytes()


@given(
    points=_SHAPES.flatmap(lambda shape: arrays(np.float64, shape, elements=_COORD)),
    center=st.lists(_PARAM, min_size=3, max_size=3),
    half_extents=st.lists(_POSITIVE, min_size=3, max_size=3),
    radii=st.tuples(_POSITIVE, _POSITIVE),
)
@settings(max_examples=200, deadline=None)
def test_sdfs_are_bit_identical_to_their_axis_reduction_forms(points, center, half_extents, radii):
    big, small = radii
    cases = [
        (sphere_sdf, _sphere_oracle, (center, big)),
        (box_sdf, _box_oracle, (center, half_extents)),
        (torus_sdf, _torus_oracle, (center, big, small)),
        (cylinder_sdf, _cylinder_oracle, (center, big, small)),
    ]
    for sdf, oracle, args in cases:
        with np.errstate(all="ignore"):
            actual, expected = sdf(points, *args), oracle(points, *args)
        assert _same_bits(actual, expected), (sdf.__name__, actual, expected)


@given(
    name=st.sampled_from(SCENE_NAMES),
    points=st.integers(0, 32).flatmap(
        lambda n: arrays(np.float64, (n, 3), elements=st.one_of(st.floats(-1.5, 1.5), _SPECIAL))
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_radiance_is_bit_identical_to_density_and_color(name, points, seed):
    scene = build_scene(name)
    directions = np.random.default_rng(seed).normal(size=points.shape)
    with np.errstate(invalid="ignore"):
        sigma, rgb = scene.radiance(points, directions)
        color = scene.color(points)
        expected_color = _color_oracle(scene, points)
        undirected = scene.radiance(points)[1]
    assert _same_bits(sigma, scene.density(points))
    assert _same_bits(color, expected_color)
    assert _same_bits(rgb, np.clip(color + 0.05 * (directions[..., 1:2] + 1.0), 0.0, 1.0))
    assert _same_bits(undirected, color)


def test_camera_intrinsics_from_fov():
    intr = CameraIntrinsics.from_fov(64, 64, 90.0)
    assert intr.focal == pytest.approx(32.0, rel=1e-6)
    assert intr.matrix.shape == (3, 3)
    with pytest.raises(ValueError):
        CameraIntrinsics.from_fov(0, 64, 60.0)
    with pytest.raises(ValueError):
        CameraIntrinsics.from_fov(64, 64, 0.0)


def test_look_at_produces_orthonormal_rotation():
    pose = look_at([2.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    rotation = pose[:3, :3]
    np.testing.assert_allclose(rotation.T @ rotation, np.eye(3), atol=1e-9)
    # Camera -z axis points from eye toward the target.
    forward = -rotation[:, 2]
    expected = np.array([0.0, 0.0, 0.0]) - np.array([2.0, 1.0, 2.0])
    expected = expected / np.linalg.norm(expected)
    np.testing.assert_allclose(forward, expected, atol=1e-9)


def test_look_at_degenerate_up_direction():
    pose = look_at([0.0, 2.0, 0.0], [0.0, 0.0, 0.0])
    assert np.all(np.isfinite(pose))


@given(st.integers(1, 24), st.floats(1.0, 5.0))
@settings(max_examples=20, deadline=None)
def test_poses_on_sphere_radius_property(num_poses, radius):
    poses = poses_on_sphere(num_poses, radius=radius)
    assert len(poses) == num_poses
    for pose in poses:
        assert np.linalg.norm(pose[:3, 3]) == pytest.approx(radius, rel=1e-6)


def test_poses_on_sphere_validation():
    with pytest.raises(ValueError):
        poses_on_sphere(0)
