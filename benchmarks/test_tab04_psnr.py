"""Benchmark regenerating Table IV: rendering quality of the NeRF algorithms.

This is the only benchmark that performs real training, so the default run
uses a reduced configuration (one scene, small images, short schedules).  The
reproduced shape is (1) the hash-grid methods (iNGP / Instant-NeRF) beat the
non-grid baselines on equal budgets, and (2) replacing iNGP's hash with the
Morton locality hash costs almost no quality (paper: 0.23 dB on average).
"""

from __future__ import annotations

import numpy as np
from conftest import report

from repro.experiments import QualityRunConfig, run_tab04

BENCH_CONFIG = QualityRunConfig(
    scenes=("lego",),
    image_size=32,
    num_train_views=6,
    num_test_views=1,
    iterations=80,
    rays_per_batch=128,
    samples_per_ray=32,
)


def test_tab04_psnr_hash_grid_methods(benchmark):
    """iNGP vs Instant-NeRF algorithm: the Morton hash must not cost quality."""
    result = report(
        benchmark.pedantic(
            run_tab04,
            kwargs={"config": BENCH_CONFIG, "methods": ("ingp", "instant-nerf")},
            iterations=1,
            rounds=1,
        )
    )
    by_method = {row["method"]: row["avg_psnr"] for row in result.rows}
    assert np.isfinite(by_method["ingp"])
    assert by_method["ingp"] > 10.0
    assert by_method["instant-nerf"] > 10.0
    assert abs(by_method["ingp"] - by_method["instant-nerf"]) < 2.5


def test_tab04_psnr_baselines(benchmark):
    """Full method sweep on one scene at the reduced benchmark scale."""
    result = report(
        benchmark.pedantic(
            run_tab04,
            kwargs={"config": BENCH_CONFIG, "methods": ("nerf", "fastnerf", "tensorf", "ingp")},
            iterations=1,
            rounds=1,
        )
    )
    by_method = {row["method"]: row["avg_psnr"] for row in result.rows}
    # All methods must learn something (well above a black/random image).
    assert all(score > 6.0 for score in by_method.values())
    # Shape: the hash-grid method leads the pack on an equal (short) budget.
    assert by_method["ingp"] >= max(by_method["nerf"], by_method["fastnerf"]) - 1.0
