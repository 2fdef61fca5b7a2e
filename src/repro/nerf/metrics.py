"""Rendering-quality metrics: MSE, PSNR and a simplified SSIM."""

from __future__ import annotations

import numpy as np

__all__ = ["mse", "psnr", "ssim"]


def mse(predicted: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error between two images/arrays in ``[0, 1]``."""
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.shape != target.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {target.shape}")
    return float(np.mean((predicted - target) ** 2))


def psnr(predicted: np.ndarray, target: np.ndarray, max_value: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (higher is better, Tab. IV metric)."""
    err = mse(predicted, target)
    if err <= 0.0:
        return float("inf")
    return float(10.0 * np.log10(max_value**2 / err))


def _uniform_filter(image: np.ndarray, window: int) -> np.ndarray:
    """Mean over a ``window``-wide box along every axis of ``image``.

    Borders reflect with the edge sample repeated (``d c b a | a b c d``), so
    images smaller than the window work too; an even window reaches one
    sample further back than forward.  This is ``scipy.ndimage``'s
    ``uniform_filter`` in its default ``reflect`` mode.
    """
    before = window // 2
    out = image
    for axis in range(image.ndim):
        line = np.moveaxis(out, axis, 0)
        pad = [(before, window - 1 - before)] + [(0, 0)] * (line.ndim - 1)
        sums = np.cumsum(np.pad(line, pad, mode="symmetric"), axis=0)
        sums = np.concatenate([np.zeros_like(sums[:1]), sums])
        out = np.moveaxis((sums[window:] - sums[:-window]) / window, 0, axis)
    return out


def ssim(
    predicted: np.ndarray, target: np.ndarray, window: int = 7, max_value: float = 1.0
) -> float:
    """Structural similarity with a uniform window (simplified, single scale).

    Accepts ``(H, W)`` or ``(H, W, C)`` images; channels are averaged.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.shape != target.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {target.shape}")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if predicted.ndim == 2:
        predicted = predicted[..., None]
        target = target[..., None]
    c1 = (0.01 * max_value) ** 2
    c2 = (0.03 * max_value) ** 2
    scores = []
    for ch in range(predicted.shape[-1]):
        x = predicted[..., ch]
        y = target[..., ch]
        mu_x = _uniform_filter(x, window)
        mu_y = _uniform_filter(y, window)
        sigma_x = _uniform_filter(x * x, window) - mu_x**2
        sigma_y = _uniform_filter(y * y, window) - mu_y**2
        sigma_xy = _uniform_filter(x * y, window) - mu_x * mu_y
        score = ((2 * mu_x * mu_y + c1) * (2 * sigma_xy + c2)) / (
            (mu_x**2 + mu_y**2 + c1) * (sigma_x + sigma_y + c2)
        )
        scores.append(score.mean())
    return float(np.mean(scores))
