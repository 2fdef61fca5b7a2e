"""Tests for the NumPy MLP and its hand-written backward pass."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nerf.mlp import MLP, relu, sigmoid, softplus


def test_activation_functions_basic_values():
    assert relu(np.array([-1.0, 2.0])).tolist() == [0.0, 2.0]
    assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
    assert softplus(np.array([0.0]))[0] == pytest.approx(np.log(2.0))
    # softplus must be stable for large inputs
    assert softplus(np.array([100.0]))[0] == pytest.approx(100.0)
    assert sigmoid(np.array([-500.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_mlp_shapes_and_parameter_count():
    mlp = MLP([8, 16, 4])
    assert mlp.input_dim == 8
    assert mlp.output_dim == 4
    assert mlp.num_parameters() == 8 * 16 + 16 + 16 * 4 + 4
    out = mlp.forward(np.zeros((5, 8), dtype=np.float32))
    assert out.shape == (5, 4)


def test_mlp_rejects_invalid_configs():
    with pytest.raises(ValueError):
        MLP([8])
    with pytest.raises(ValueError):
        MLP([8, 0, 4])
    mlp = MLP([8, 4])
    with pytest.raises(ValueError):
        mlp.forward(np.zeros((5, 7)))
    with pytest.raises(RuntimeError):
        MLP([3, 2]).backward(np.zeros((1, 2)))


def test_mlp_flops_per_input():
    mlp = MLP([10, 20, 5])
    assert mlp.num_flops_per_input() == 2 * (10 * 20 + 20 * 5)


def test_mlp_gradients_match_finite_differences(rng):
    # softplus hidden units keep the loss smooth, so finite differences are
    # reliable (relu kinks would make the comparison flaky).
    mlp = MLP([6, 10, 3], hidden_activation="softplus", output_activation="sigmoid", rng=rng)
    x = rng.normal(size=(7, 6)).astype(np.float32)
    upstream = rng.normal(size=(7, 3)).astype(np.float32)

    def scalar_loss():
        return float((mlp.forward(x) * upstream).sum())

    mlp.forward(x)
    mlp.zero_grad()
    grad_input = mlp.backward(upstream)
    assert grad_input.shape == x.shape

    eps = 1e-3
    checks = [
        (mlp.weights[0], mlp.weight_grads[0]),
        (mlp.weights[1], mlp.weight_grads[1]),
        (mlp.biases[0], mlp.bias_grads[0]),
        (mlp.biases[1], mlp.bias_grads[1]),
    ]
    for param, grad in checks:
        idx = np.unravel_index(np.argmax(np.abs(grad)), param.shape)
        original = param[idx]
        param[idx] = original + eps
        plus = scalar_loss()
        param[idx] = original - eps
        minus = scalar_loss()
        param[idx] = original
        fd = (plus - minus) / (2 * eps)
        assert fd == pytest.approx(float(grad[idx]), rel=0.05, abs=1e-4)


def test_mlp_input_gradient_matches_finite_differences(rng):
    mlp = MLP([4, 8, 2], hidden_activation="softplus", rng=rng)
    x = rng.normal(size=(3, 4)).astype(np.float32)
    upstream = rng.normal(size=(3, 2)).astype(np.float32)
    mlp.forward(x)
    mlp.zero_grad()
    grad_input = mlp.backward(upstream)
    eps = 1e-3
    idx = (1, 2)
    x_plus, x_minus = x.copy(), x.copy()
    x_plus[idx] += eps
    x_minus[idx] -= eps
    fd = ((mlp.forward(x_plus) * upstream).sum() - (mlp.forward(x_minus) * upstream).sum()) / (
        2 * eps
    )
    assert fd == pytest.approx(float(grad_input[idx]), rel=0.05, abs=1e-4)


def test_gradients_accumulate_until_zero_grad(rng):
    mlp = MLP([3, 4, 2], rng=rng)
    x = rng.normal(size=(5, 3)).astype(np.float32)
    upstream = np.ones((5, 2), dtype=np.float32)
    mlp.forward(x)
    mlp.backward(upstream)
    first = mlp.weight_grads[0].copy()
    mlp.forward(x)
    mlp.backward(upstream)
    np.testing.assert_allclose(mlp.weight_grads[0], 2 * first, rtol=1e-5)
    mlp.zero_grad()
    assert np.all(mlp.weight_grads[0] == 0)


def test_intermediate_bytes_scales_with_batch():
    mlp = MLP([32, 64, 16])
    assert mlp.intermediate_bytes(batch_size=100) == 100 * (64 + 16) * 4


#: Bit patterns of two NaN payloads, one of each sign, per float width.
NAN_BITS = {
    np.float16: (0x7E01, 0xFD55),
    np.float32: (0x7FC00123, 0xFFA00001),
    np.float64: (0x7FF8000000000123, 0xFFF4000000000001),
}
_element = st.one_of(
    st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0, np.inf, -np.inf, "nan", "-nan"])
)


def _sigmoid_masked(x):
    """The two-branch masked sigmoid: the oracle of ``sigmoid``."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from([np.float16, np.float32, np.float64]),
    rows=st.lists(st.tuples(_element, _element, _element), max_size=40),
)
def test_sigmoid_is_bit_identical_to_the_masked_form(dtype, rows):
    """sigmoid equals the masked form byte for byte: signed zeros, infinities,
    NaN payloads of both signs and |x| up to 1e4, in (N, 3) and (N,) arrays and scalars."""
    values = [v for row in rows for v in row]
    x = np.array([0.0 if isinstance(v, str) else v for v in values], dtype=dtype)
    bits = x.view(np.dtype(f"u{x.itemsize}"))
    for i, v in enumerate(values):
        if isinstance(v, str):
            bits[i] = NAN_BITS[dtype][v == "-nan"]
    x = x.reshape(-1, 3)
    for arg in (x, x[:, 0], *x[:1, 0]):  # the last: a numpy scalar, if any
        with np.errstate(all="ignore"):
            fast, oracle = sigmoid(arg), _sigmoid_masked(arg)
        assert fast.dtype == oracle.dtype == dtype and fast.shape == oracle.shape
        assert fast.tobytes() == oracle.tobytes()
