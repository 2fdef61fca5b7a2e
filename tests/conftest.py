"""Shared fixtures for the test suite (kept tiny so the suite stays fast)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nerf.encoding import HashGridConfig
from repro.scenes.dataset import DatasetConfig, SyntheticNeRFDataset
from repro.scenes.library import build_scene


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line("markers", "slow: trains a field or runs a full experiment")


@pytest.fixture(scope="session")
def tiny_dataset() -> SyntheticNeRFDataset:
    """A very small posed-image dataset rendered once per test session."""
    config = DatasetConfig(
        image_size=20,
        num_train_views=3,
        num_test_views=1,
        gt_samples_per_ray=48,
    )
    return SyntheticNeRFDataset(build_scene("lego"), config)


@pytest.fixture(scope="session")
def small_grid_config() -> HashGridConfig:
    """A hash-grid configuration small enough for fast gradient checks."""
    return HashGridConfig(num_levels=4, table_size=512, base_resolution=4, max_resolution=64)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
