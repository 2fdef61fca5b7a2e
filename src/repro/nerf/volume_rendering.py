"""Differentiable volume rendering (paper Eq. (1)).

Given per-sample densities ``sigma_i`` and colors ``c_i`` along a ray with
segment lengths ``delta_i = t_{i+1} - t_i``, the rendered pixel color is

    C_hat(r) = sum_i T_i * (1 - exp(-sigma_i * delta_i)) * c_i
    T_i      = exp(-sum_{j<i} sigma_j * delta_j)

Both the forward compositing and the reverse-mode gradients w.r.t. densities
and colors are implemented as vectorised numpy over rays x samples batches.
Rendering always runs in float64 regardless of the field's precision:
compositing sums many small terms and is cheap relative to the field
evaluation it post-processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


__all__ = ["render_rays", "render_rays_backward", "RenderOutput", "accumulate_transmittance"]


@dataclass
class RenderOutput:
    """Result of :func:`render_rays`.

    Attributes
    ----------
    rgb:
        ``(R, 3)`` composited pixel colors.
    weights:
        ``(R, S)`` per-sample compositing weights ``T_i * alpha_i``.
    transmittance:
        ``(R, S)`` accumulated transmittance ``T_i`` before each sample.
    alpha:
        ``(R, S)`` per-sample opacities ``1 - exp(-sigma_i * delta_i)``.
    depth:
        ``(R,)`` expected ray termination depth (weights-weighted t).
    opacity:
        ``(R,)`` accumulated opacity (sum of weights).
    """

    rgb: np.ndarray
    weights: np.ndarray
    transmittance: np.ndarray
    alpha: np.ndarray
    depth: np.ndarray
    opacity: np.ndarray


def accumulate_transmittance(sigma: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Transmittance ``T_i = exp(-sum_{j<i} sigma_j delta_j)``, shape (R, S)."""
    tau = sigma * deltas
    cum = np.cumsum(tau, axis=-1)
    # Exclusive cumulative sum: T_0 = 1.
    shifted = np.concatenate([np.zeros_like(cum[..., :1]), cum[..., :-1]], axis=-1)
    return np.exp(-shifted)


def render_rays(
    sigma: np.ndarray,
    colors: np.ndarray,
    t_values: np.ndarray,
    background: np.ndarray | None = None,
) -> RenderOutput:
    """Composite per-sample density/color into pixel colors (Eq. (1)).

    Parameters
    ----------
    sigma:
        ``(R, S)`` non-negative densities.
    colors:
        ``(R, S, 3)`` per-sample RGB in ``[0, 1]``.
    t_values:
        ``(R, S)`` or ``(S,)`` sample distances along each ray (increasing).
    background:
        Optional ``(3,)`` background color composited behind the volume with
        the residual transmittance (Synthetic-NeRF uses white).
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.float64)
    t_values = np.asarray(t_values, dtype=np.float64)
    if sigma.ndim != 2:
        raise ValueError(f"sigma must be (R, S), got {sigma.shape}")
    if colors.shape != sigma.shape + (3,):
        raise ValueError(f"colors must be (R, S, 3), got {colors.shape}")
    if t_values.ndim == 1:
        t_values = np.broadcast_to(t_values, sigma.shape)
    if t_values.shape != sigma.shape:
        raise ValueError(f"t_values must broadcast to {sigma.shape}, got {t_values.shape}")

    deltas = np.diff(t_values, axis=-1)
    # The last segment duplicates the last spacing so every sample has a width.
    last = deltas[..., -1:] if deltas.shape[-1] > 0 else np.full(sigma[..., :1].shape, 1e10)
    deltas = np.concatenate([deltas, last], axis=-1)

    alpha = 1.0 - np.exp(-np.maximum(sigma, 0.0) * deltas)
    transmittance = accumulate_transmittance(np.maximum(sigma, 0.0), deltas)
    weights = transmittance * alpha
    rgb = (weights[..., None] * colors).sum(axis=-2)
    opacity = weights.sum(axis=-1)
    depth = (weights * t_values).sum(axis=-1)
    if background is not None:
        background = np.asarray(background, dtype=np.float64).reshape(1, 3)
        rgb = rgb + (1.0 - opacity)[..., None] * background
    return RenderOutput(
        rgb=rgb,
        weights=weights,
        transmittance=transmittance,
        alpha=alpha,
        depth=depth,
        opacity=opacity,
    )


def render_rays_backward(
    grad_rgb: np.ndarray,
    sigma: np.ndarray,
    colors: np.ndarray,
    t_values: np.ndarray,
    output: RenderOutput,
    background: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the rendered color w.r.t. ``sigma`` and ``colors``.

    Parameters
    ----------
    grad_rgb:
        ``(R, 3)`` upstream gradient ``dL/dC_hat``.
    sigma, colors, t_values:
        The same inputs that were passed to :func:`render_rays`.
    output:
        The :class:`RenderOutput` returned by the matching forward call.
    background:
        The same background used in the forward pass (affects the density
        gradient through the residual-transmittance term).

    Returns
    -------
    (grad_sigma, grad_colors):
        Arrays of shapes ``(R, S)`` and ``(R, S, 3)``.

    Notes
    -----
    With ``w_i = T_i * alpha_i``:

    * ``dC/dc_i = w_i``
    * ``dC/dsigma_i`` has two parts: the local term through ``alpha_i``
      (``T_i * exp(-sigma_i delta_i) * delta_i * c_i``) and the occlusion
      term through every later sample's transmittance
      (``-delta_i * sum_{j>i} w_j c_j``), plus ``-delta_i * (1 - O) * bg``
      when a background is composited.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.float64)
    t_values = np.asarray(t_values, dtype=np.float64)
    grad_rgb = np.asarray(grad_rgb, dtype=np.float64)
    if t_values.ndim == 1:
        t_values = np.broadcast_to(t_values, sigma.shape)

    deltas = np.diff(t_values, axis=-1)
    # Same segment widths as the forward pass: the last spacing is duplicated.
    last = deltas[..., -1:] if deltas.shape[-1] > 0 else np.full(sigma[..., :1].shape, 1e10)
    deltas = np.concatenate([deltas, last], axis=-1)

    weights = output.weights
    transmittance = output.transmittance

    # dL/dc_i = w_i * dL/dC
    grad_colors = weights[..., None] * grad_rgb[..., None, :]

    # Per-sample contribution to the pixel color, projected on grad_rgb.
    contrib = (colors * grad_rgb[..., None, :]).sum(axis=-1)  # (R, S) = c_i . dL/dC

    # Local term: d alpha_i / d sigma_i = delta_i * exp(-sigma_i delta_i)
    exp_term = np.exp(-np.maximum(sigma, 0.0) * deltas)
    local = transmittance * exp_term * deltas * contrib

    # Occlusion term: increasing sigma_i reduces T_j for all j > i by delta_i.
    weighted_contrib = weights * contrib  # (R, S) = w_j * (c_j . dL/dC)
    # suffix_sum[i] = sum_{j > i} weighted_contrib[j]
    rev_cum = np.cumsum(weighted_contrib[..., ::-1], axis=-1)[..., ::-1]
    suffix = rev_cum - weighted_contrib
    occlusion = -deltas * suffix

    grad_sigma = local + occlusion

    if background is not None:
        background = np.asarray(background, dtype=np.float64).reshape(1, 3)
        bg_contrib = (background * grad_rgb).sum(axis=-1)  # (R,)
        # The background term is (1 - sum_j w_j) * bg; d(1 - O)/d sigma_i = -delta_i * T_residual_i
        # where the residual transmittance after the last sample equals
        # T_S = prod_j (1 - alpha_j).  d T_S / d sigma_i = -delta_i * T_S.
        residual = 1.0 - output.opacity  # (R,)
        grad_sigma = grad_sigma - deltas * residual[..., None] * bg_contrib[..., None]

    # Densities are clamped at zero in the forward pass; gradient is zero there
    # when sigma < 0 (subgradient convention).
    grad_sigma = np.where(sigma < 0.0, 0.0, grad_sigma)
    return grad_sigma, grad_colors
