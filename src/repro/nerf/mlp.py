"""Small fully-connected networks with hand-written backprop.

iNGP replaces vanilla NeRF's large MLP with two small MLPs: a density MLP
(one hidden layer of 64 units) and a color MLP (two hidden layers of 64
units).  This module provides a generic :class:`MLP` used by both, plus the
activation functions and their derivatives.  Array math is numpy; the
parameter precision is a constructor axis (``fp64``/``fp32``/``fp16``).
``fp16`` is a storage format: weights and biases are stored in float16 and
widened to float32 for every matmul, and activations and gradients stay
float32 (standard mixed precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import precision

__all__ = ["MLP", "Activation", "relu", "sigmoid", "softplus", "identity"]


# --------------------------------------------------------------- activations
def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # ``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))``
    # otherwise (NaN included), from one exp that never overflows.  ``out``
    # is an array even for a 0-d ``x``, whose ufunc results are scalars.
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    d = e + 1.0
    out = np.divide(1.0, d, out=np.empty_like(d))
    np.divide(e, d, out=out, where=~pos)
    return out


def sigmoid_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.where(x > 20.0, x, np.log1p(np.exp(np.minimum(x, 20.0))))


def softplus_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sigmoid(x)


def identity(x: np.ndarray) -> np.ndarray:
    return x


def identity_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


@dataclass(frozen=True)
class Activation:
    """An activation function together with its derivative.

    The derivative receives both the pre-activation ``x`` and the activation
    output ``y`` so cheap forms (e.g. ``y*(1-y)`` for sigmoid) can be used.
    """

    name: str
    fn: callable
    grad: callable


ACTIVATIONS = {
    "relu": Activation("relu", relu, relu_grad),
    "sigmoid": Activation("sigmoid", sigmoid, sigmoid_grad),
    "softplus": Activation("softplus", softplus, softplus_grad),
    "none": Activation("none", identity, identity_grad),
}


class MLP:
    """A fully-connected network with explicit forward/backward passes.

    Parameters
    ----------
    layer_sizes:
        Sizes including input and output, e.g. ``[32, 64, 16]``.
    hidden_activation / output_activation:
        Names from :data:`ACTIVATIONS`.
    rng:
        Generator used for He-style weight initialisation.
    dtype:
        Precision name the weights and biases are stored in: ``fp64``,
        ``fp32`` (default, the historical behavior) or ``fp16``.
        Activations and gradients use the compute dtype: float64 for fp64,
        float32 for fp32 and fp16 (fp16 parameters widen on use).
    """

    def __init__(
        self,
        layer_sizes: list[int],
        hidden_activation: str = "relu",
        output_activation: str = "none",
        rng: np.random.Generator | None = None,
        dtype: str = "fp32",
    ):
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least an input and an output size")
        if any(s <= 0 for s in layer_sizes):
            raise ValueError("all layer sizes must be positive")
        rng = rng or np.random.default_rng(0)
        self.layer_sizes = list(layer_sizes)
        self.hidden_act = ACTIVATIONS[hidden_activation]
        self.output_act = ACTIVATIONS[output_activation]
        self.precision = precision.validate_precision(dtype, precision.FLOAT_PRECISIONS)
        self.dtype = precision.compute_dtype(self.precision)
        storage = precision.storage_dtype(self.precision)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = math.sqrt(2.0 / fan_in)
            self.weights.append(
                np.asarray(rng.normal(0.0, scale, size=(fan_in, fan_out)).astype(storage))
            )
            self.biases.append(np.zeros(fan_out, dtype=storage))
        self.weight_grads = [np.zeros(w.shape, dtype=self.dtype) for w in self.weights]
        self.bias_grads = [np.zeros(b.shape, dtype=self.dtype) for b in self.biases]
        self._cache: dict | None = None

    # ------------------------------------------------------------------ API
    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases]

    def gradients(self) -> list[np.ndarray]:
        return [*self.weight_grads, *self.bias_grads]

    def zero_grad(self) -> None:
        for g in self.weight_grads:
            g[...] = 0.0
        for g in self.bias_grads:
            g[...] = 0.0

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    def num_flops_per_input(self) -> int:
        """Multiply-accumulate FLOPs per input sample (2 per MAC)."""
        return int(sum(2 * fi * fo for fi, fo in zip(self.layer_sizes[:-1], self.layer_sizes[1:])))

    # ------------------------------------------------------------- forward
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected input of shape (N, {self.input_dim}), got {x.shape}")
        activations = [x]
        pre_acts = []
        h = x
        num_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.astype(self.dtype, copy=False)
            z += b.astype(self.dtype, copy=False)
            pre_acts.append(z)
            act = self.output_act if i == num_layers - 1 else self.hidden_act
            h = act.fn(z)
            activations.append(h)
        self._cache = {"activations": activations, "pre_acts": pre_acts}
        return h

    __call__ = forward

    # ------------------------------------------------------------ backward
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``dL/d(output)``; returns ``dL/d(input)``.

        Parameter gradients are *accumulated* into ``weight_grads`` /
        ``bias_grads`` (call :meth:`zero_grad` between optimisation steps).
        """
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        grad = np.asarray(grad_output, dtype=self.dtype)
        activations = self._cache["activations"]
        pre_acts = self._cache["pre_acts"]
        num_layers = len(self.weights)
        if grad.shape != activations[-1].shape:
            raise ValueError(
                f"grad_output shape {grad.shape} != output shape {activations[-1].shape}"
            )
        for i in reversed(range(num_layers)):
            act = self.output_act if i == num_layers - 1 else self.hidden_act
            dz = grad * act.grad(pre_acts[i], activations[i + 1])
            self.weight_grads[i] += activations[i].T @ dz
            self.bias_grads[i] += dz.sum(axis=0)
            grad = dz @ self.weights[i].astype(self.dtype, copy=False).T
        return grad

    # -------------------------------------------------------- introspection
    def intermediate_bytes(self, batch_size: int, dtype_bytes: int | None = None) -> int:
        """Bytes of intermediate activations stored for a given batch size.

        This corresponds to the "Intermediate Data" column in paper Tab. II
        (layer-by-layer processing keeps the activations of every layer of
        the current batch live for the backward pass).  ``dtype_bytes``
        defaults to the width of the network's own precision.
        """
        width = precision.dtype_bytes(self.precision) if dtype_bytes is None else dtype_bytes
        hidden_units = sum(self.layer_sizes[1:])
        return int(batch_size * hidden_units * width)
