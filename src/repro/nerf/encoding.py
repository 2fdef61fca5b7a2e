"""Input encodings for radiance fields.

Two encodings are provided:

* :class:`HashGridEncoding` — iNGP's multi-resolution hash encoding with a
  pluggable hash mapping function (original prime-XOR or Instant-NeRF's
  Morton locality hash) and trilinear interpolation, including the backward
  pass that scatters gradients into the embedding tables.
* :class:`FrequencyEncoding` — the sinusoidal positional encoding of vanilla
  NeRF, used by the vanilla-NeRF baseline and for view-direction encoding.

Array math is numpy, with hand-written reverse-mode gradients; the
``*_reference`` oracles are the correctness anchors of the fused kernels.
The table precision is an axis of :class:`HashGridConfig` and a storage
format: float tables (``fp64``/``fp32``/``fp16``) train end to end, ``fp16``
entries widening to float32 on gather, while ``int8`` tables store
affine-quantized entries that are dequantized on gather (inference only —
see :meth:`quantized_int8`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..core import precision
from ..core.hashing import DenseGridIndexer, HashFunction, OriginalSpatialHash

__all__ = [
    "HashGridConfig",
    "HashGridEncoding",
    "FrequencyEncoding",
    "level_resolutions",
]


def level_resolutions(num_levels: int, base_resolution: int, max_resolution: int) -> list[int]:
    """Per-level grid resolutions following iNGP's geometric progression.

    ``N_l = floor(N_min * b**l)`` with the growth factor ``b`` chosen so that
    level ``L-1`` reaches ``max_resolution``.
    """
    if num_levels <= 0:
        raise ValueError("num_levels must be positive")
    if base_resolution <= 0 or max_resolution < base_resolution:
        raise ValueError("require 0 < base_resolution <= max_resolution")
    if num_levels == 1:
        return [base_resolution]
    growth = math.exp((math.log(max_resolution) - math.log(base_resolution)) / (num_levels - 1))
    return [int(math.floor(base_resolution * growth**level)) for level in range(num_levels)]


@dataclass(frozen=True)
class HashGridConfig:
    """Configuration of the multi-resolution hash table.

    Paper-scale defaults match iNGP: ``L=16`` levels, ``T=2**19`` entries per
    level, ``F=2`` features per entry, base resolution 16, finest 2048.

    ``dtype`` names the precision table entries are stored in: one of
    :data:`repro.core.precision.PRECISIONS`.  The encoding computes at
    :func:`~repro.core.precision.compute_dtype` — float64 for ``fp64``,
    float32 otherwise.  The default ``fp32`` matches the historical float32
    tables; ``fp16`` stores half-precision entries widened to float32 on
    gather, and ``int8`` stores affine-quantized entries dequantized to
    float32 on gather.
    """

    num_levels: int = 16
    table_size: int = 2**19
    features_per_entry: int = 2
    base_resolution: int = 16
    max_resolution: int = 2048
    hash_fn: HashFunction = field(default_factory=OriginalSpatialHash)
    dtype: str = "fp32"

    def __post_init__(self) -> None:
        precision.validate_precision(self.dtype)

    @cached_property
    def resolutions(self) -> tuple[int, ...]:
        """Per-level grid resolutions, computed once per config."""
        return tuple(level_resolutions(self.num_levels, self.base_resolution, self.max_resolution))

    def __getstate__(self) -> dict[str, object]:
        # The cached resolutions are derived: pickles carry the fields only.
        state = dict(self.__dict__)
        state.pop("resolutions", None)
        return state

    @property
    def output_dim(self) -> int:
        return self.num_levels * self.features_per_entry

    @property
    def entry_bytes(self) -> int:
        """Bytes of one table entry (``F`` features at this precision)."""
        return precision.entry_bytes(self.dtype, self.features_per_entry)

    def level_table_entries(self, level: int) -> int:
        """Actual number of table entries used by a level.

        Coarse levels whose dense grid is smaller than ``T`` store the grid
        directly (dense indexing); finer levels use ``T`` hashed entries.
        """
        res = self.resolutions[level]
        dense = (res + 1) ** 3
        return min(dense, self.table_size)

    def level_uses_hash(self, level: int) -> bool:
        res = self.resolutions[level]
        return (res + 1) ** 3 > self.table_size

    def level_indexer(self, level: int, hash_fn: HashFunction | None = None) -> HashFunction:
        """The function that maps one level's grid vertices to table indices.

        A hashed level uses ``hash_fn`` (the config's ``hash_fn`` when
        ``None``); a coarse level stored dense is indexed row-major by a
        :class:`~repro.core.hashing.DenseGridIndexer`.  Every index pass —
        the encoding's and the memory path's — picks its indexer here.
        """
        if self.level_uses_hash(level):
            return hash_fn or self.hash_fn
        return DenseGridIndexer(self.resolutions[level])

    def table_bytes(self, dtype_bytes: int | None = None) -> int:
        """Total hash-table parameter footprint in bytes.

        ``dtype_bytes`` overrides the per-scalar width; by default it is
        derived from ``dtype`` (4 for the fp32 default).
        """
        width = precision.dtype_bytes(self.dtype) if dtype_bytes is None else dtype_bytes
        total_entries = sum(self.level_table_entries(lvl) for lvl in range(self.num_levels))
        return total_entries * self.features_per_entry * width


class HashGridEncoding:
    """Multi-resolution hash encoding (iNGP Steps (1)-(4)).

    The forward pass implements, per level: hashing of the 8 surrounding cube
    vertices, embedding lookup, trilinear interpolation, and finally the
    concatenation across levels.  The backward pass accumulates gradients
    into the embedding tables with the same trilinear weights.

    Tables are stored at the config's storage dtype and gathered values
    widen to its compute dtype, in which features and gradients live: an
    ``fp16`` encoding keeps float16 tables, returns float32 features and
    accumulates float32 gradients, which Adam rounds back into the tables.
    With ``config.dtype == "int8"`` the tables hold quantized codes plus a
    per-level ``(scale, zero_point)`` pair; gathers dequantize to float32 and
    :meth:`backward` refuses to run (int8 tables are inference-only — train
    a float encoding and convert it with :meth:`quantized_int8`).
    """

    def __init__(
        self, config: HashGridConfig | None = None, rng: np.random.Generator | None = None
    ):
        self.config = config or HashGridConfig()
        rng = rng or np.random.default_rng(0)
        cfg = self.config
        self._compute_dtype = precision.compute_dtype(cfg.dtype)
        self._quantized = cfg.dtype == "int8"
        # iNGP initialises embeddings uniformly in [-1e-4, 1e-4].
        init = [
            rng.uniform(
                -1e-4,
                1e-4,
                size=(cfg.level_table_entries(lvl), cfg.features_per_entry),
            )
            for lvl in range(cfg.num_levels)
        ]
        self.scales: list[float] = [1.0] * cfg.num_levels
        self.zero_points: list[float] = [0.0] * cfg.num_levels
        if self._quantized:
            self.embeddings: list[np.ndarray] = []
            for lvl, table in enumerate(init):
                codes, scale, zero = precision.quantize_int8(table)
                self.embeddings.append(np.asarray(codes))
                self.scales[lvl] = scale
                self.zero_points[lvl] = zero
        else:
            storage = precision.storage_dtype(cfg.dtype)
            self.embeddings = [np.asarray(table.astype(storage)) for table in init]
        self.grads: list[np.ndarray] = [
            np.zeros(e.shape, dtype=self._compute_dtype) for e in self.embeddings
        ]
        self._cache: dict | None = None

    # ------------------------------------------------------------------ API
    @property
    def output_dim(self) -> int:
        return self.config.output_dim

    def parameters(self) -> list[np.ndarray]:
        return self.embeddings

    def gradients(self) -> list[np.ndarray]:
        return self.grads

    def zero_grad(self) -> None:
        for g in self.grads:
            g[...] = 0.0

    def num_parameters(self) -> int:
        return int(sum(e.size for e in self.embeddings))

    def quantized_int8(self, rng: np.random.Generator | None = None) -> HashGridEncoding:
        """Post-training int8 quantization: a new encoding with code tables.

        Each level's float table is affine-quantized independently (its own
        ``scale``/``zero_point``), which bounds the per-entry reconstruction
        error by half a code step of that level's value range.
        """
        if self._quantized:
            raise ValueError("encoding is already int8-quantized")
        out = HashGridEncoding(replace(self.config, dtype="int8"), rng=rng)
        for level, emb in enumerate(self.embeddings):
            codes, scale, zero = precision.quantize_int8(emb)
            out.embeddings[level] = np.asarray(codes)
            out.scales[level] = scale
            out.zero_points[level] = zero
        return out

    def _gathered_values(self, level: int, gathered: np.ndarray) -> np.ndarray:
        """Table entries in compute precision (widens fp16, dequantizes int8 codes)."""
        if self._quantized:
            return precision.dequantize_int8(
                gathered, self.scales[level], self.zero_points[level], dtype=self._compute_dtype
            )
        return gathered.astype(self._compute_dtype, copy=False)

    # ------------------------------------------------------- index helpers
    def vertex_indices(
        self, positions: np.ndarray, level: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hash-table indices and interpolation weights for one level.

        Parameters
        ----------
        positions:
            ``(N, 3)`` float array with coordinates in ``[0, 1]``.
        level:
            Level index in ``[0, L)``.

        Returns
        -------
        (indices, weights, base_coords):
            ``indices`` is ``(N, 8)`` int64 table indices, ``weights`` is the
            ``(N, 8)`` trilinear weight of each corner in the encoding's
            compute dtype (float32 by default), and ``base_coords`` is the
            ``(N, 3)`` integer lower-corner vertex of each cube.
        """
        cfg = self.config
        res = cfg.resolutions[level]
        pos = np.clip(np.asarray(positions, dtype=np.float64), 0.0, 1.0)
        scaled = pos * res
        base = np.floor(scaled).astype(np.int64)
        base = np.clip(base, 0, res - 1)
        frac = scaled - base  # in [0, 1)

        offsets = np.array(
            [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.int64
        )  # (8, 3)
        corners = base[:, None, :] + offsets[None, :, :]  # (N, 8, 3)

        indexer = cfg.level_indexer(level)
        idx = indexer(corners.reshape(-1, 3), cfg.level_table_entries(level)).reshape(-1, 8)

        # Trilinear weights: product over axes of (1-frac) or frac per corner.
        w = np.ones((pos.shape[0], 8), dtype=np.float64)
        for axis in range(3):
            take_hi = offsets[:, axis][None, :]  # (1, 8)
            f = frac[:, axis][:, None]  # (N, 1)
            w = w * np.where(take_hi == 1, f, 1.0 - f)
        return idx, w.astype(self._compute_dtype), base

    # ------------------------------------------------------------- forward
    #: Points per block of :meth:`forward`: the smallest power of two that
    #: holds a training batch of tab05 (5,120 points) or tab04 (7,680), so a
    #: training step encodes its batch in one block.  The bound stays for
    #: evaluation chunks, where it keeps each level's temporaries ((8, block)
    #: indices and weights, (8, block, F) gathered values) within cache.
    #: Forward plus backward, tab05's fp32 grid, lego samples (2-CPU host,
    #: medians of 21 rounds), blocks of 4,096 -> 8,192 points: 5,120 points
    #: 8.2 -> 7.6 ms, 7,680 11.3 -> 10.9 ms, 32,768 52.7 -> 52.1 ms,
    #: 131,072 246 -> 232 ms, against 318 ms unblocked.
    FORWARD_BLOCK = 8192

    def forward(self, positions: np.ndarray) -> np.ndarray:
        """Encode positions; returns ``(N, L*F)`` features in compute dtype.

        Runs over blocks of at most :attr:`FORWARD_BLOCK` points and, inside
        a block, one level at a time:

        * the geometry: each point's cube base vertex, by truncation (the
          positions are clipped to ``[0, 1]``, so it is ``floor``; the
          lower clip still maps a NaN coordinate to vertex 0), and ``frac``,
          ``1 - frac`` and the separable trilinear weights, all float64 and
          written into per-block buffers, then cast once to compute dtype;
        * one :meth:`~repro.core.hashing.HashFunction.corner_hashes` call,
          whose corner-major ``(8, b)`` indices feed an ``np.take`` gather
          of the 8 corners without a copy;
        * the gathered values times their weights, and the corner sum: one
          ``np.add.reduce`` over the corners (F >= 2; reducing straight into
          the strided feature columns was ten times slower than this copy)
          or a pairwise tree (F == 1).

        Every step repeats the arithmetic of :meth:`vertex_indices` and
        :meth:`forward_reference` in the same order, so the features and
        the cache :meth:`backward` reads are bit-identical to the oracle's.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {positions.shape}")
        cfg = self.config
        dtype = self._compute_dtype
        num_f = cfg.features_per_entry
        n = positions.shape[0]
        pos = np.clip(positions, 0.0, 1.0)
        features = np.empty((n, cfg.output_dim), dtype=dtype)
        idx_all = np.empty((cfg.num_levels, n, 8), dtype=np.int64)
        w_all = np.empty((cfg.num_levels, n, 8), dtype=dtype)
        for start in range(0, n, self.FORWARD_BLOCK):
            stop = min(start + self.FORWARD_BLOCK, n)
            b = stop - start
            pos_t = np.ascontiguousarray(pos[start:stop].T)  # (3, b)
            scaled = np.empty((3, b))
            base = np.empty((3, b), dtype=np.int64)
            axis_w = np.empty((3, 2, b))  # per axis: 1 - frac, frac
            wxy = np.empty((2, 2, b))
            w64 = np.empty((8, b))
            w_t = w64 if dtype == np.float64 else np.empty((8, b), dtype=dtype)
            for level, res in enumerate(cfg.resolutions):
                np.multiply(pos_t, res, out=scaled)
                np.copyto(base, scaled, casting="unsafe")  # truncates: floor on [0, res]
                np.clip(base, 0, res - 1, out=base)
                np.subtract(scaled, base, out=axis_w[:, 1])  # frac, in [0, 1]
                np.subtract(1.0, axis_w[:, 1], out=axis_w[:, 0])
                # Corner 4i + 2j + k weighs (wx_i * wy_j) * wz_k with
                # w_0 = 1 - f and w_1 = f: vertex_indices' products, in its order.
                np.multiply(axis_w[0][:, None], axis_w[1][None], out=wxy)
                np.multiply(wxy[:, :, None], axis_w[2], out=w64.reshape(2, 2, 2, b))
                if w_t is not w64:
                    np.copyto(w_t, w64, casting="same_kind")
                idx = cfg.level_indexer(level).corner_hashes(
                    base.T, cfg.level_table_entries(level)
                )  # (b, 8), a view of corner-major (8, b) indices
                gathered = np.take(self.embeddings[level], idx.T, axis=0)
                vals = self._gathered_values(level, gathered)  # (8, b, F)
                for f in range(num_f):
                    vals[:, :, f] *= w_t
                # The corner sum of forward_reference's ``.sum(axis=1)``: numpy
                # starts from +0.0 and adds corners 0..7 in turn, or, when the
                # corner axis is contiguous (F == 1), pairwise.
                if num_f == 1:
                    acc = np.zeros((b, 1), dtype=dtype)
                    acc += ((vals[0] + vals[1]) + (vals[2] + vals[3])) + (
                        (vals[4] + vals[5]) + (vals[6] + vals[7])
                    )
                else:
                    acc = np.add.reduce(vals, axis=0)
                features[start:stop, level * num_f : (level + 1) * num_f] = acc
                idx_all[level, start:stop] = idx
                w_all[level, start:stop] = w_t.T
        self._cache = {"levels": list(zip(idx_all, w_all)), "n": n}
        return features

    __call__ = forward

    def forward_reference(self, positions: np.ndarray) -> np.ndarray:
        """Unblocked per-level forward through :meth:`vertex_indices`, the oracle for tests."""
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {positions.shape}")
        cfg = self.config
        n = positions.shape[0]
        features = np.empty((n, cfg.output_dim), dtype=self._compute_dtype)
        cache_levels = []
        for level in range(cfg.num_levels):
            idx, w, _ = self.vertex_indices(positions, level)
            emb = self._gathered_values(level, self.embeddings[level][idx])  # (N, 8, F)
            feat = (emb * w[:, :, None]).sum(axis=1)  # (N, F)
            lo = level * cfg.features_per_entry
            features[:, lo : lo + cfg.features_per_entry] = feat
            cache_levels.append((idx, w))
        self._cache = {"levels": cache_levels, "n": n}
        return features

    # ------------------------------------------------------------ backward
    def backward(self, grad_output: np.ndarray) -> None:
        """Accumulate embedding-table gradients given ``dL/d(features)``.

        ``grad_output`` has shape ``(N, L*F)`` and must correspond to the
        most recent :meth:`forward` call.  Positions are treated as constants
        (iNGP does not back-propagate into sample positions either).

        The scatter-add over the 8 cube corners uses a ``bincount`` segment
        sum per feature channel (accumulated in float64), which is typically
        an order of magnitude faster than the ``np.add.at`` path retained in
        :meth:`backward_reference`.
        """
        if self._quantized:
            raise RuntimeError(
                "int8-quantized tables are inference-only; train a float encoding "
                "and convert it with quantized_int8()"
            )
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        cfg = self.config
        grad_output = np.asarray(grad_output, dtype=self._compute_dtype)
        expected = (self._cache["n"], cfg.output_dim)
        if grad_output.shape != expected:
            raise ValueError(f"grad_output shape {grad_output.shape} != {expected}")
        # Reusable (N, 8) float64 weight buffer: multiplying straight into
        # float64 lets bincount consume the weights without an internal cast.
        buf = np.empty((expected[0], 8), dtype=np.float64)
        flat_buf = buf.reshape(-1)
        for level, (idx, w) in enumerate(self._cache["levels"]):
            lo = level * cfg.features_per_entry
            flat_idx = idx.reshape(-1)
            entries = self.grads[level].shape[0]
            # dL/d emb[idx] = w * g_feat, segment-summed over the 8 corners.
            for f in range(cfg.features_per_entry):
                np.multiply(w, grad_output[:, lo + f][:, None], out=buf)
                self.grads[level][:, f] += np.bincount(flat_idx, flat_buf, minlength=entries)

    def backward_reference(self, grad_output: np.ndarray) -> None:
        """Original ``np.add.at`` scatter backward, kept as the oracle for tests."""
        if self._quantized:
            raise RuntimeError(
                "int8-quantized tables are inference-only; train a float encoding "
                "and convert it with quantized_int8()"
            )
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        cfg = self.config
        grad_output = np.asarray(grad_output, dtype=self._compute_dtype)
        expected = (self._cache["n"], cfg.output_dim)
        if grad_output.shape != expected:
            raise ValueError(f"grad_output shape {grad_output.shape} != {expected}")
        for level, (idx, w) in enumerate(self._cache["levels"]):
            lo = level * cfg.features_per_entry
            g_feat = grad_output[:, lo : lo + cfg.features_per_entry]  # (N, F)
            # dL/d emb[idx] = w * g_feat, scatter-added over the 8 corners.
            contrib = w[:, :, None] * g_feat[:, None, :]  # (N, 8, F)
            np.add.at(
                self.grads[level], idx.reshape(-1), contrib.reshape(-1, cfg.features_per_entry)
            )


class FrequencyEncoding:
    """Sinusoidal positional encoding ``gamma(p)`` from vanilla NeRF.

    Maps each input coordinate to ``(sin(2^k pi p), cos(2^k pi p))`` for
    ``k = 0..num_frequencies-1``, optionally keeping the raw input.

    :meth:`forward` encodes each run of bitwise-equal consecutive rows once
    and repeats the result: a training batch holds each ray's view
    direction ``samples_per_ray`` times in a row.  Rows compare as bit
    patterns, so ``+0.0`` and ``-0.0``, or NaNs with different payloads,
    are never merged, and the output is byte-identical to the row-by-row
    :meth:`forward_reference`.
    """

    def __init__(self, input_dim: int = 3, num_frequencies: int = 10, include_input: bool = True):
        if input_dim <= 0 or num_frequencies <= 0:
            raise ValueError("input_dim and num_frequencies must be positive")
        self.input_dim = input_dim
        self.num_frequencies = num_frequencies
        self.include_input = include_input
        self.freq_bands = (2.0 ** np.arange(num_frequencies)).astype(np.float64) * np.pi

    @property
    def output_dim(self) -> int:
        dim = self.input_dim * self.num_frequencies * 2
        if self.include_input:
            dim += self.input_dim
        return dim

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected shape (N, {self.input_dim}), got {x.shape}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Encode ``(N, D)`` rows as ``(N, output_dim)`` float32, once per run of equal rows."""
        x = self._check(x)
        bits = x.view(np.uint64)
        starts = np.ones(x.shape[0], dtype=bool)  # row differs from the one before
        np.not_equal(bits[1:, 0], bits[:-1, 0], out=starts[1:])
        for d in range(1, self.input_dim):
            starts[1:] |= bits[1:, d] != bits[:-1, d]
        first = np.flatnonzero(starts)
        if first.size == x.shape[0]:
            return self.forward_reference(x)
        runs = np.diff(first, append=x.shape[0])
        return np.repeat(self.forward_reference(x[first]), runs, axis=0)

    def forward_reference(self, x: np.ndarray) -> np.ndarray:
        """Row-by-row encoding, the oracle of :meth:`forward`."""
        x = self._check(x)
        width = self.input_dim * self.num_frequencies
        angles = x[:, :, None] * self.freq_bands[None, None, :]  # (N, D, K)
        enc = np.concatenate(
            [np.sin(angles).reshape(x.shape[0], width), np.cos(angles).reshape(x.shape[0], width)],
            axis=1,
        )
        if self.include_input:
            enc = np.concatenate([x, enc], axis=1)
        return enc.astype(np.float32)

    __call__ = forward

    def parameters(self) -> list[np.ndarray]:
        return []

    def gradients(self) -> list[np.ndarray]:
        return []

    def zero_grad(self) -> None:  # no trainable state
        return None
