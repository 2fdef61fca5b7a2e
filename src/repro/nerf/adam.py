"""Adam optimizer for lists of numpy parameter arrays."""

from __future__ import annotations

import numpy as np


__all__ = ["Adam"]


class Adam:
    """Adam with the standard bias-corrected first/second moment estimates.

    The optimizer holds *references* to the parameter and gradient arrays and
    updates the parameters in place, so modules keep owning their storage
    (mirroring how the embedding tables and MLP weights live in DRAM in the
    accelerator model).
    """

    def __init__(
        self,
        parameters: list[np.ndarray],
        gradients: list[np.ndarray],
        learning_rate: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.99,
        epsilon: float = 1e-10,
        weight_decay: float = 0.0,
    ):
        if len(parameters) != len(gradients):
            raise ValueError("parameters and gradients must have the same length")
        for p, g in zip(parameters, gradients):
            if p.shape != g.shape:
                raise ValueError(
                    f"parameter shape {p.shape} does not match gradient shape {g.shape}"
                )
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.parameters = parameters
        self.gradients = gradients
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p, dtype=np.float32) for p in parameters]
        self._v = [np.zeros_like(p, dtype=np.float32) for p in parameters]

    def step(self) -> None:
        """Apply one Adam update using the currently accumulated gradients."""
        self.step_count += 1
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        for p, g, m, v in zip(self.parameters, self.gradients, self._m, self._v):
            grad = g
            if self.weight_decay:
                # Widened first: a float16 ``p`` would round the term to 11 bits.
                grad = grad + self.weight_decay * p.astype(g.dtype, copy=False)
            # One ufunc at a time, in the order and dtypes of
            #   m = b1 * m + (1 - b1) * grad
            #   v = b2 * v + (1 - b2) * grad * grad
            #   p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            # so the bits are the same, through three temporaries: ``scaled``
            # in the gradients' dtype, ``moment`` and ``denom`` in float32.
            scaled = np.multiply(1.0 - self.beta1, grad)
            moment = np.multiply(self.beta1, m)
            np.add(moment, scaled, out=m)
            np.multiply(1.0 - self.beta2, grad, out=scaled)
            np.multiply(scaled, grad, out=scaled)
            np.multiply(self.beta2, v, out=moment)
            np.add(moment, scaled, out=v)
            np.divide(m, bias1, out=moment)
            np.multiply(self.learning_rate, moment, out=moment)
            denom = np.divide(v, bias2)
            np.sqrt(denom, out=denom)
            np.add(denom, self.epsilon, out=denom)
            np.divide(moment, denom, out=moment)
            # The in-place subtract casts the float32 update to p.dtype itself
            # (same-kind casting), so no per-step astype temporary is needed.
            p -= moment

    def zero_grad(self) -> None:
        for g in self.gradients:
            g[...] = 0.0
