"""Radiance fields: iNGP-style hash-grid field and vanilla NeRF field.

A *radiance field* maps a 3D position and a viewing direction to a density
``sigma`` and an RGB color.  All fields expose the same small interface so
that the trainer, the renderer and the baselines are interchangeable:

* ``forward(positions, directions) -> (sigma, rgb)``
* ``backward(grad_sigma, grad_rgb)`` accumulating parameter gradients
* ``parameters() / gradients() / zero_grad()``
"""

from __future__ import annotations

import numpy as np

from ..core import precision
from .encoding import FrequencyEncoding, HashGridConfig, HashGridEncoding
from .mlp import MLP, sigmoid, sigmoid_grad, softplus, softplus_grad

__all__ = ["RadianceField", "InstantNGPField", "VanillaNeRFField"]


class RadianceField:
    """Common interface for all radiance-field models."""

    name: str = "abstract"

    def forward(
        self, positions: np.ndarray, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(sigma, rgb)`` with shapes ``(N,)`` and ``(N, 3)``."""
        raise NotImplementedError

    def backward(self, grad_sigma: np.ndarray, grad_rgb: np.ndarray) -> None:
        raise NotImplementedError

    def parameters(self) -> list[np.ndarray]:
        raise NotImplementedError

    def gradients(self) -> list[np.ndarray]:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.gradients():
            g[...] = 0.0

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    __call__ = forward


def _check_inputs(positions: np.ndarray, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Existing float dtypes are preserved (the encodings cast where they need
    # to); only non-float inputs are promoted, so no copy happens on the
    # common float64 path.
    positions = np.asarray(positions)
    directions = np.asarray(directions)
    if positions.dtype.kind != "f":
        positions = positions.astype(np.float64)
    if directions.dtype.kind != "f":
        directions = directions.astype(np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {positions.shape}")
    if directions.shape != positions.shape:
        raise ValueError(f"directions {directions.shape} must match positions {positions.shape}")
    return positions, directions


class InstantNGPField(RadianceField):
    """iNGP radiance field: hash-grid encoding + density MLP + color MLP.

    Architecture (matching the small MLPs of the paper):

    * density MLP: ``L*F -> 64 -> (1 + geo_features)``; the first output is
      passed through softplus to produce ``sigma``, the remaining
      ``geo_features`` values feed the color MLP.
    * color MLP: ``geo_features + dir_enc -> 64 -> 64 -> 3`` with a sigmoid
      output.

    ``grid_config.dtype`` sets the storage precision of the tables and both
    MLPs (``int8`` tables pair with fp32 MLPs, since quantized tables are
    produced after training).  Everything computes at
    :func:`~repro.core.precision.compute_dtype`: float64 for ``fp64`` and
    float32 otherwise, so an ``fp16`` field stores float16 parameters while
    its activations and gradients are float32.  The ``(sigma, rgb)``
    interface stays float64 regardless.
    """

    name = "ingp"

    def __init__(
        self,
        grid_config: HashGridConfig | None = None,
        geo_features: int = 15,
        hidden_dim: int = 64,
        dir_frequencies: int = 4,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.grid_config = grid_config or HashGridConfig()
        self.encoding = HashGridEncoding(self.grid_config, rng=rng)
        mlp_dtype = "fp32" if self.grid_config.dtype == "int8" else self.grid_config.dtype
        self._compute_dtype = precision.compute_dtype(self.grid_config.dtype)
        self.geo_features = int(geo_features)
        self.dir_encoding = FrequencyEncoding(
            input_dim=3, num_frequencies=dir_frequencies, include_input=True
        )
        self.density_mlp = MLP(
            [self.encoding.output_dim, hidden_dim, 1 + self.geo_features],
            hidden_activation="relu",
            output_activation="none",
            rng=rng,
            dtype=mlp_dtype,
        )
        self.color_mlp = MLP(
            [self.geo_features + self.dir_encoding.output_dim, hidden_dim, hidden_dim, 3],
            hidden_activation="relu",
            output_activation="none",
            rng=rng,
            dtype=mlp_dtype,
        )
        self._cache: dict | None = None

    # ------------------------------------------------------------- forward
    def forward(
        self, positions: np.ndarray, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        positions, directions = _check_inputs(positions, directions)
        features = self.encoding.forward(positions)  # (N, L*F)  -- "HT"
        h = self.density_mlp.forward(features)  # (N, 1+geo)  -- "MLPd"
        sigma_logit = h[:, 0]
        sigma = softplus(sigma_logit)
        geo = h[:, 1:]
        dir_enc = self.dir_encoding.forward(directions)
        color_in = np.concatenate([geo, dir_enc], axis=1).astype(self._compute_dtype, copy=False)
        rgb_logit = self.color_mlp.forward(color_in)  # (N, 3)   -- "MLPc"
        rgb = sigmoid(rgb_logit)
        self._cache = {
            "sigma_logit": sigma_logit,
            "sigma": sigma,
            "rgb_logit": rgb_logit,
            "rgb": rgb,
            "n": positions.shape[0],
        }
        return sigma.astype(np.float64, copy=False), rgb.astype(np.float64, copy=False)

    # ------------------------------------------------------------ backward
    def backward(self, grad_sigma: np.ndarray, grad_rgb: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        cache = self._cache
        n = cache["n"]
        grad_sigma = np.asarray(grad_sigma, dtype=self._compute_dtype).reshape(n)
        grad_rgb = np.asarray(grad_rgb, dtype=self._compute_dtype).reshape(n, 3)

        # Color branch ("MLPc_b"): sigmoid then MLP.
        grad_rgb_logit = grad_rgb * sigmoid_grad(cache["rgb_logit"], cache["rgb"])
        grad_color_in = self.color_mlp.backward(grad_rgb_logit)
        grad_geo = grad_color_in[:, : self.geo_features]
        # Direction encoding has no trainable parameters; its grad is dropped.

        # Density branch ("MLPd_b"): softplus on the first channel.
        grad_h = np.zeros((n, 1 + self.geo_features), dtype=self._compute_dtype)
        grad_h[:, 0] = grad_sigma * softplus_grad(cache["sigma_logit"], cache["sigma"])
        grad_h[:, 1:] = grad_geo
        grad_features = self.density_mlp.backward(grad_h)

        # Hash-table backward ("HT_b").
        self.encoding.backward(grad_features)

    # ---------------------------------------------------------- parameters
    def parameters(self) -> list[np.ndarray]:
        return [
            *self.encoding.parameters(),
            *self.density_mlp.parameters(),
            *self.color_mlp.parameters(),
        ]

    def gradients(self) -> list[np.ndarray]:
        return [
            *self.encoding.gradients(),
            *self.density_mlp.gradients(),
            *self.color_mlp.gradients(),
        ]

    def zero_grad(self) -> None:
        self.encoding.zero_grad()
        self.density_mlp.zero_grad()
        self.color_mlp.zero_grad()


class VanillaNeRFField(RadianceField):
    """Vanilla-NeRF-style field: frequency encoding and a single large MLP.

    For tractability on CPU the MLP is narrower than the original 8x256
    network (configurable), but the structure — positional encoding of the
    position and direction feeding a fully-connected network that outputs
    density and color — is the same, which is what matters for the relative
    cost and quality comparisons of Table IV and Fig. 1.
    """

    name = "vanilla-nerf"

    def __init__(
        self,
        pos_frequencies: int = 10,
        dir_frequencies: int = 4,
        hidden_dim: int = 128,
        num_hidden_layers: int = 4,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.pos_encoding = FrequencyEncoding(
            input_dim=3, num_frequencies=pos_frequencies, include_input=True
        )
        self.dir_encoding = FrequencyEncoding(
            input_dim=3, num_frequencies=dir_frequencies, include_input=True
        )
        input_dim = self.pos_encoding.output_dim + self.dir_encoding.output_dim
        layers = [input_dim] + [hidden_dim] * num_hidden_layers + [4]
        self.mlp = MLP(layers, hidden_activation="relu", output_activation="none", rng=rng)
        self._cache: dict | None = None

    def forward(
        self, positions: np.ndarray, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        positions, directions = _check_inputs(positions, directions)
        pos_enc = self.pos_encoding.forward(positions)
        dir_enc = self.dir_encoding.forward(directions)
        x = np.concatenate([pos_enc, dir_enc], axis=1).astype(np.float32, copy=False)
        out = self.mlp.forward(x)  # (N, 4)
        sigma_logit = out[:, 0]
        rgb_logit = out[:, 1:]
        sigma = softplus(sigma_logit)
        rgb = sigmoid(rgb_logit)
        self._cache = {
            "sigma_logit": sigma_logit,
            "sigma": sigma,
            "rgb_logit": rgb_logit,
            "rgb": rgb,
            "n": positions.shape[0],
        }
        return sigma.astype(np.float64, copy=False), rgb.astype(np.float64, copy=False)

    def backward(self, grad_sigma: np.ndarray, grad_rgb: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        cache = self._cache
        n = cache["n"]
        grad_sigma = np.asarray(grad_sigma, dtype=np.float32).reshape(n)
        grad_rgb = np.asarray(grad_rgb, dtype=np.float32).reshape(n, 3)
        grad_out = np.zeros((n, 4), dtype=np.float32)
        grad_out[:, 0] = grad_sigma * softplus_grad(cache["sigma_logit"], cache["sigma"])
        grad_out[:, 1:] = grad_rgb * sigmoid_grad(cache["rgb_logit"], cache["rgb"])
        self.mlp.backward(grad_out)

    def parameters(self) -> list[np.ndarray]:
        return self.mlp.parameters()

    def gradients(self) -> list[np.ndarray]:
        return self.mlp.gradients()

    def zero_grad(self) -> None:
        self.mlp.zero_grad()
