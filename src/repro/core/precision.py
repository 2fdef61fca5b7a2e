"""The precision (dtype) axis shared by the executed kernels and the models.

Every precision has a short name (``fp64``/``fp32``/``fp16``/``int8``) that
flows through frozen configs into the canonical keys of the memoizing
context and the artifact store, and three derived facts:

* :func:`dtype_bytes` — bytes per stored scalar, which the *modeled* memory
  system turns into hash-table entry widths, DRAM/SRAM traffic and MLP
  activation bytes;
* :func:`storage_dtype` — the numpy dtype parameters are stored in by the
  *executed* kernels (``fp16`` stores half-precision tables and MLP
  weights, ``int8`` stores quantized table entries);
* :func:`compute_dtype` — the numpy dtype kernels compute in: float64 for
  ``fp64`` and float32 for every narrower precision.  Reduced precisions
  are storage formats: ``fp16`` parameters widen to float32 on gather and
  before each matmul (numpy has no BLAS path for float16), and ``int8``
  tables are dequantized to float32 on gather.  Gradients accumulate at
  the compute dtype, and Adam's in-place update rounds back into storage.

``int8`` table entries use an affine quantization: an 8-bit code ``q`` in
``[-128, 127]`` maps back to ``(q + 128) * scale + zero_point`` where
``zero_point`` is the real value of code ``-128`` (the table minimum).  The
reconstruction error is bounded by ``scale / 2`` per entry, and constant
tables round-trip exactly.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "PRECISIONS",
    "FLOAT_PRECISIONS",
    "compute_dtype",
    "dequantize_int8",
    "dtype_bytes",
    "entry_bytes",
    "quantize_int8",
    "storage_dtype",
    "validate_precision",
]

#: Every precision of the dtype axis, widest first.
PRECISIONS: tuple[str, ...] = ("fp64", "fp32", "fp16", "int8")

#: Precisions kernels can train in (int8 tables are inference-only).
FLOAT_PRECISIONS: tuple[str, ...] = ("fp64", "fp32", "fp16")

_DTYPE_BYTES: dict[str, int] = {"fp64": 8, "fp32": 4, "fp16": 2, "int8": 1}

_STORAGE_DTYPES: dict[str, type] = {
    "fp64": np.float64,
    "fp32": np.float32,
    "fp16": np.float16,
    "int8": np.int8,
}

#: Number of representable int8 steps between table minimum and maximum.
_INT8_STEPS = 255
_INT8_OFFSET = 128  # shifts [-128, 127] codes onto [0, 255] step counts


def validate_precision(name: str, allowed: tuple[str, ...] = PRECISIONS) -> str:
    """Check a precision name against the axis; returns it unchanged."""
    if name not in allowed:
        raise ValueError(f"unknown precision {name!r}; expected one of {', '.join(allowed)}")
    return name


def dtype_bytes(name: str) -> int:
    """Bytes per stored scalar of a named precision."""
    return _DTYPE_BYTES[validate_precision(name)]


def entry_bytes(name: str, features_per_entry: int = 1) -> int:
    """Bytes of one table entry: ``features_per_entry`` scalars at ``name`` width.

    The single home of the dtype -> entry-width rule every table-shaped
    config (hash-grid entries, trace entries, embedding rows) derives its
    ``entry_bytes`` from.  Sub-byte products (e.g. a single int8 feature
    packed below one byte by a hypothetical narrower dtype) clamp to 1 byte,
    the smallest addressable unit of the modeled memory system.
    """
    if features_per_entry <= 0:
        raise ValueError(f"features_per_entry must be positive, got {features_per_entry}")
    return max(1, features_per_entry * dtype_bytes(name))


def storage_dtype(name: str) -> Any:
    """numpy dtype parameters of this precision are stored in."""
    return _STORAGE_DTYPES[validate_precision(name)]


def compute_dtype(name: str) -> Any:
    """numpy dtype kernels compute in at this precision (float32 below fp64)."""
    return np.float64 if validate_precision(name) == "fp64" else np.float32


def quantize_int8(values: NDArray[Any]) -> tuple[NDArray[np.int8], float, float]:
    """Affine int8 quantization of an array; returns ``(codes, scale, zero_point)``.

    ``zero_point`` is the real value reconstructed for code ``-128`` (the
    array minimum), ``scale`` the real-value width of one code step.  A
    constant array gets ``scale = 1.0`` and every entry the code ``-128``,
    so it round-trips exactly; otherwise the reconstruction error is at most
    ``scale / 2`` per entry.
    """
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        return data.astype(np.int8), 1.0, 0.0
    if not np.all(np.isfinite(data)):
        raise ValueError("quantize_int8 requires finite values")
    lo = float(data.min())
    hi = float(data.max())
    scale = (hi - lo) / _INT8_STEPS
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    steps = np.rint((data - lo) / scale) - _INT8_OFFSET
    codes = np.clip(steps, -128, 127).astype(np.int8)
    return codes, scale, lo


def dequantize_int8(
    codes: NDArray[Any], scale: float, zero_point: float, dtype: Any = np.float32
) -> NDArray[Any]:
    """Reconstruct real values from int8 codes produced by :func:`quantize_int8`."""
    out: NDArray[Any] = (
        (codes.astype(np.float64) + _INT8_OFFSET) * scale + zero_point
    ).astype(dtype)
    return out
