"""Tests for the Adam optimizer, losses and image-quality metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import precision
from repro.nerf.adam import Adam
from repro.nerf.losses import huber_loss, mse_loss
from repro.nerf.metrics import _uniform_filter, mse, psnr, ssim


def test_adam_minimises_quadratic():
    rng = np.random.default_rng(0)
    target = rng.normal(size=(10,)).astype(np.float32)
    param = np.zeros(10, dtype=np.float32)
    grad = np.zeros_like(param)
    opt = Adam([param], [grad], learning_rate=0.1)
    for _ in range(300):
        grad[...] = 2 * (param - target)
        opt.step()
    np.testing.assert_allclose(param, target, atol=1e-2)


def test_adam_validation():
    p = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError):
        Adam([p], [np.zeros(4, dtype=np.float32)])
    with pytest.raises(ValueError):
        Adam([p], [np.zeros(3, dtype=np.float32)], learning_rate=0.0)
    with pytest.raises(ValueError):
        Adam([p, p], [np.zeros(3, dtype=np.float32)])


def test_adam_zero_grad_and_weight_decay():
    param = np.ones(4, dtype=np.float32)
    grad = np.ones(4, dtype=np.float32)
    opt = Adam([param], [grad], learning_rate=0.01, weight_decay=0.1)
    opt.step()
    assert np.all(param < 1.0)  # decay + positive gradient push the weight down
    opt.zero_grad()
    assert np.all(grad == 0)


def _expression_step(opt):
    """One step of ``opt`` as whole-array expressions: the oracle of ``Adam.step``."""
    opt.step_count += 1
    bias1 = 1.0 - opt.beta1**opt.step_count
    bias2 = 1.0 - opt.beta2**opt.step_count
    for p, g, m, v in zip(opt.parameters, opt.gradients, opt._m, opt._v):
        grad = g
        if opt.weight_decay:
            grad = grad + opt.weight_decay * p.astype(g.dtype, copy=False)
        m[...] = opt.beta1 * m + (1.0 - opt.beta1) * grad
        v[...] = opt.beta2 * v + (1.0 - opt.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        p -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.epsilon)


def _same_bytes(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@settings(max_examples=40, deadline=None)
@given(
    dtype=st.sampled_from(["fp64", "fp32", "fp16"]),
    weight_decay=st.sampled_from([0.0, 1e-6, 0.1]),
    learning_rate=st.sampled_from([1e-2, 3e-4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_step_is_bit_identical_to_the_expression_form(
    dtype, weight_decay, learning_rate, seed
):
    """Adam.step equals the expression form byte for byte over 60 steps:
    parameters and both moments, for fp64, fp32 and fp16 parameters."""
    rng = np.random.default_rng(seed)
    shapes = [(17, 2), (5,)]
    init = [rng.normal(0.0, 1e-2, shape).astype(precision.storage_dtype(dtype)) for shape in shapes]
    compute = precision.compute_dtype(dtype)
    hyper = {"learning_rate": learning_rate, "weight_decay": weight_decay}
    fast = Adam([p.copy() for p in init], [np.zeros(s, compute) for s in shapes], **hyper)
    oracle = Adam([p.copy() for p in init], [np.zeros(s, compute) for s in shapes], **hyper)
    for _ in range(60):
        for g, g_oracle in zip(fast.gradients, oracle.gradients):
            g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-9, 1)
            g[rng.random(g.shape) < 0.1] = 0.0  # entries no sample touched
            g_oracle[...] = g
        fast.step()
        _expression_step(oracle)
        state = [*fast.parameters, *fast._m, *fast._v]
        oracle_state = [*oracle.parameters, *oracle._m, *oracle._v]
        assert all(_same_bytes(a, b) for a, b in zip(state, oracle_state, strict=True))


def test_adam_weight_decay_of_fp16_parameters_is_computed_in_float32():
    """An fp16 parameter decays as its float32 value does, rounded once into
    storage: ``1e-6 * float16(1e-4)`` must not flush to zero."""
    p16 = np.array([1e-4, -2e-4, 3e-6, 0.25], dtype=np.float16)
    p32 = p16.astype(np.float32)
    hyper = {"learning_rate": 1e-3, "weight_decay": 1e-6}
    opt16 = Adam([p16], [np.zeros(4, np.float32)], **hyper)
    opt32 = Adam([p32], [np.zeros(4, np.float32)], **hyper)
    for _ in range(3):
        opt16.step()
        opt32.step()
        assert _same_bytes(opt16._m[0], opt32._m[0]) and _same_bytes(opt16._v[0], opt32._v[0])
        assert _same_bytes(p16, p32.astype(np.float16))
        p32[...] = p16  # the twin steps on from the stored values


def test_mse_loss_value_and_gradient():
    pred = np.array([[1.0, 2.0]])
    target = np.array([[0.0, 0.0]])
    loss, grad = mse_loss(pred, target)
    assert loss == pytest.approx((1.0 + 4.0) / 2)
    np.testing.assert_allclose(grad, 2 * (pred - target) / 2)
    with pytest.raises(ValueError):
        mse_loss(np.zeros(3), np.zeros(4))


def test_huber_loss_quadratic_and_linear_regions():
    pred = np.array([0.01, 1.0])
    target = np.zeros(2)
    loss, grad = huber_loss(pred, target, delta=0.1)
    # First element is in the quadratic region, second in the linear region.
    assert grad[0] == pytest.approx(0.01 / 2)
    assert grad[1] == pytest.approx(0.1 / 2)
    assert loss > 0
    with pytest.raises(ValueError):
        huber_loss(pred, target, delta=0.0)


def test_huber_gradient_finite_difference():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=6)
    target = rng.normal(size=6)
    loss, grad = huber_loss(pred, target, delta=0.3)
    eps = 1e-6
    for i in range(6):
        plus, minus = pred.copy(), pred.copy()
        plus[i] += eps
        minus[i] -= eps
        fd = (huber_loss(plus, target, 0.3)[0] - huber_loss(minus, target, 0.3)[0]) / (2 * eps)
        assert fd == pytest.approx(grad[i], rel=1e-4, abs=1e-8)


def test_psnr_properties():
    image = np.random.default_rng(0).uniform(0, 1, (16, 16, 3))
    assert psnr(image, image) == float("inf")
    noisy = np.clip(image + 0.1, 0, 1)
    noisier = np.clip(image + 0.3, 0, 1)
    assert psnr(image, noisy) > psnr(image, noisier)
    assert mse(image, noisy) < mse(image, noisier)


def test_psnr_known_value():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 0.1)
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-6)  # 10*log10(1/0.01)


def test_ssim_bounds_and_identity():
    rng = np.random.default_rng(2)
    image = rng.uniform(0, 1, (24, 24, 3))
    assert ssim(image, image) == pytest.approx(1.0, abs=1e-6)
    other = rng.uniform(0, 1, (24, 24, 3))
    value = ssim(image, other)
    assert -1.0 <= value <= 1.0
    assert value < 0.9
    with pytest.raises(ValueError):
        ssim(image, other[:12])


@pytest.mark.parametrize("window", [1, 2, 3, 4, 7, 8, 11])
@pytest.mark.parametrize("shape", [(24, 24), (5, 4), (1, 9), (17, 33)])
def test_box_filter_matches_scipy_uniform_filter(shape, window):
    ndimage = pytest.importorskip("scipy.ndimage")
    image = np.random.default_rng(window).uniform(0, 1, shape)
    filtered = _uniform_filter(image, window)
    assert filtered.shape == image.shape
    np.testing.assert_allclose(filtered, ndimage.uniform_filter(image, window), rtol=0, atol=1e-12)


def test_ssim_matches_the_scipy_filtered_formula():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (19, 23))
    y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
    c1, c2 = 0.01**2, 0.03**2
    for window in (4, 7):
        mu_x = ndimage.uniform_filter(x, window)
        mu_y = ndimage.uniform_filter(y, window)
        sigma_x = ndimage.uniform_filter(x * x, window) - mu_x**2
        sigma_y = ndimage.uniform_filter(y * y, window) - mu_y**2
        sigma_xy = ndimage.uniform_filter(x * y, window) - mu_x * mu_y
        expected = np.mean(
            ((2 * mu_x * mu_y + c1) * (2 * sigma_xy + c2))
            / ((mu_x**2 + mu_y**2 + c1) * (sigma_x + sigma_y + c2))
        )
        assert ssim(x, y, window=window) == pytest.approx(expected, rel=0, abs=1e-12)


def test_ssim_of_an_image_with_itself_is_exactly_one():
    rng = np.random.default_rng(4)
    for shape, window in (((5, 4), 7), ((24, 24, 3), 7), ((16, 12), 4)):
        image = rng.uniform(0, 1, shape)
        assert ssim(image, image, window=window) == 1.0
    with pytest.raises(ValueError):
        ssim(image, image, window=0)
