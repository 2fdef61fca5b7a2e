"""Tests for the top-level co-design system model."""

from __future__ import annotations

import pytest

from repro.core.codesign import SCENE_DIFFICULTY, AlgorithmConfig, InstantNeRFSystem
from repro.core.hashing import MortonLocalityHash, OriginalSpatialHash
from repro.core.streaming import StreamingOrder
from repro.gpu import TX2, XNX
from repro.nerf.encoding import HashGridConfig
from repro.pipeline import SimulationContext
from repro.scenes.library import SCENE_NAMES
from repro.workloads.traces import TraceConfig


@pytest.fixture(scope="module")
def small_trace():
    return TraceConfig(num_rays=48, points_per_ray=48, seed=0)


@pytest.fixture(scope="module")
def instant_system(small_trace):
    return InstantNeRFSystem(AlgorithmConfig.instant_nerf(), trace_config=small_trace)


@pytest.fixture(scope="module")
def ingp_system(small_trace):
    return InstantNeRFSystem(AlgorithmConfig.ingp(), trace_config=small_trace)


def test_algorithm_configs():
    ours = AlgorithmConfig.instant_nerf()
    theirs = AlgorithmConfig.ingp()
    assert isinstance(ours.hash_fn, MortonLocalityHash)
    assert ours.streaming_order is StreamingOrder.RAY_FIRST
    assert isinstance(theirs.hash_fn, OriginalSpatialHash)
    assert theirs.streaming_order is StreamingOrder.RANDOM


def test_scene_difficulty_covers_all_scenes():
    assert set(SCENE_DIFFICULTY) == set(SCENE_NAMES)
    assert sum(SCENE_DIFFICULTY.values()) / len(SCENE_DIFFICULTY) == pytest.approx(1.0, abs=0.05)


def test_measured_locality_reproduces_paper_statistics(instant_system, ingp_system):
    ours = instant_system.locality
    theirs = ingp_system.locality
    # Sec. III-A: ~1.58 vs ~4.02 row requests per cube.
    assert ours.row_requests_per_cube == pytest.approx(1.58, abs=0.4)
    assert theirs.row_requests_per_cube == pytest.approx(4.02, abs=0.5)
    # Ray-first streaming shares cubes; random order does not.
    assert ours.cube_sharing_run_length > 1.5
    assert theirs.cube_sharing_run_length == pytest.approx(1.0, abs=0.1)
    assert ours.bank_conflict_stall_factor < theirs.bank_conflict_stall_factor


@pytest.mark.parametrize("dtype", ["fp16", "fp32", "fp64"])
def test_locality_is_the_same_with_and_without_a_context(dtype):
    """The context-free measurement prices the trace's entry width too."""
    grid = HashGridConfig(num_levels=8, table_size=2**14)
    trace = TraceConfig(num_rays=32, points_per_ray=32, seed=0, dtype=dtype)
    for algorithm in (AlgorithmConfig.instant_nerf(), AlgorithmConfig.ingp()):
        alone = InstantNeRFSystem(algorithm, grid, trace_config=trace)
        shared = SimulationContext().system(algorithm, grid, trace)
        assert alone.locality == shared.locality


def test_codesign_outperforms_ingp_on_nmp(instant_system, ingp_system):
    ours = instant_system.scene_training_seconds("lego")
    theirs = ingp_system.scene_training_seconds("lego")
    assert theirs > 1.5 * ours


def test_scene_difficulty_scales_results(instant_system):
    assert instant_system.scene_training_seconds("ship") > instant_system.scene_training_seconds(
        "mic"
    )
    assert instant_system.scene_training_energy_j(
        "ship"
    ) > instant_system.scene_training_energy_j("mic")


def test_fig11_comparisons_within_expected_regime(instant_system):
    xnx = instant_system.compare_against(XNX)
    tx2 = instant_system.compare_against(TX2)
    assert len(xnx) == 8 and len(tx2) == 8
    for comparison in xnx:
        assert comparison.speedup > 10.0
        assert comparison.energy_efficiency_improvement > 20.0
    for comparison in tx2:
        assert comparison.speedup > 60.0
        assert comparison.energy_efficiency_improvement > 100.0
    # TX2 is the slower baseline, so it shows the larger gains (paper Fig. 11).
    assert min(c.speedup for c in tx2) > max(c.speedup for c in xnx)


def test_algorithm_speedup_on_gpu_close_to_paper(instant_system, ingp_system):
    """Sec. V-B: the algorithm alone boosts 2080Ti training efficiency by ~1.15x."""
    boost = instant_system.algorithm_speedup_on_gpu(ingp_system)
    assert 1.0 < boost < 1.5
    assert boost == pytest.approx(1.15, abs=0.12)


def test_custom_grid_config_flows_through(small_trace):
    grid = HashGridConfig(num_levels=8, table_size=2**16, max_resolution=512)
    system = InstantNeRFSystem(grid_config=grid, trace_config=small_trace)
    assert system.workload.grid.num_levels == 8
    assert system.accelerator.workload is system.workload
