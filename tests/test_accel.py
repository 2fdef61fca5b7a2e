"""Tests for the NMP accelerator: PEs, scratchpad, ISA, microarchitecture, system."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    FP32_PE_GROUP,
    INT32_PE_GROUP,
    AlgorithmLocality,
    BankMicroarchitecture,
    ComparisonModel,
    InstructionStream,
    NMPAccelerator,
    NMPConfig,
    Opcode,
    PEGroup,
    Scratchpad,
    build_step_program,
)
from repro.core.parallelism import all_data_parallel_plan
from repro.core.streaming import StreamingOrder
from repro.gpu import TX2, XNX
from repro.mem import CacheConfig, CacheHierarchy
from repro.nerf.encoding import HashGridConfig
from repro.pipeline import SimulationContext
from repro.workloads.traces import TraceConfig


# ----------------------------------------------------------------------- PEs
def test_pe_group_throughput_and_energy():
    group = PEGroup(
        name="test",
        num_pes=128,
        frequency_mhz=100.0,
        ops_per_pe_per_cycle=1.0,
        energy_pj_per_op=2.0,
    )
    group.validate()
    assert group.peak_ops_per_second == pytest.approx(128 * 100e6)
    assert group.cycles_for(1280) == pytest.approx(10.0)
    assert group.seconds_for(1280) == pytest.approx(10.0 / 100e6)
    assert group.energy_for(1e6) == pytest.approx(2e-6)
    with pytest.raises(ValueError):
        group.cycles_for(-1)
    with pytest.raises(ValueError):
        group.cycles_for(10, efficiency=0.0)
    with pytest.raises(ValueError):
        PEGroup(name="bad", num_pes=0).validate()


def test_table3_pe_configuration():
    assert INT32_PE_GROUP.num_pes == 256
    assert FP32_PE_GROUP.num_pes == 256
    assert INT32_PE_GROUP.frequency_mhz == 200.0
    assert FP32_PE_GROUP.frequency_mhz == 200.0


def test_scratchpad_capacity_and_transfers():
    spm = Scratchpad()
    spm.validate()
    assert spm.capacity_bytes == 2048  # Table III: 2 KB
    assert spm.fits(1024) and not spm.fits(4096)
    assert spm.transfer_cycles(1280) == pytest.approx(10.0)
    assert spm.access_energy_j(1000) > 0
    with pytest.raises(ValueError):
        spm.transfer_cycles(-1)


# ----------------------------------------------------------------------- ISA
def test_instruction_stream_building_and_counting():
    stream = InstructionStream("demo")
    stream.append(Opcode.ROW_READ, 1024)
    stream.append(Opcode.HASH, 64)
    stream.append(Opcode.HASH, 32)
    assert len(stream) == 3
    assert stream.count(Opcode.HASH) == 2
    assert stream.total_operand(Opcode.HASH) == 96


@pytest.mark.parametrize("step", ["HT", "HT_b", "MLP", "MLP_b"])
def test_build_step_program_contains_expected_opcodes(step):
    program = build_step_program(
        step, num_points=1024, num_levels=4, mac_ops=10_000, rows_touched=8
    )
    assert len(program) > 0
    assert program.count(Opcode.SYNC) == 1
    if step == "HT":
        assert program.count(Opcode.HASH) == 1
        assert program.count(Opcode.ROW_READ) == 8
        assert program.count(Opcode.INTERP) == 1
    if step == "HT_b":
        assert program.count(Opcode.SCATTER_ADD) == 1
        assert program.count(Opcode.ROW_WRITE) == 8
    if step in ("MLP", "MLP_b"):
        assert program.count(Opcode.MAC) == 1


def test_build_step_program_validation():
    with pytest.raises(ValueError):
        build_step_program("conv", 10, 1)
    with pytest.raises(ValueError):
        build_step_program("HT", -1, 1)


# ------------------------------------------------------------- microarchitecture
def test_microarchitecture_area_and_power_match_paper():
    """Sec. V-C: 3.6 mm^2 and 596.3 mW per bank microarchitecture."""
    micro = BankMicroarchitecture()
    assert micro.area_mm2() == pytest.approx(3.6, rel=0.05)
    assert micro.power_mw() == pytest.approx(596.3, rel=0.05)
    assert micro.area_fraction_of_bank() == pytest.approx(0.015, rel=0.25)
    summary = micro.summary()
    assert summary["int32_pes"] == 256 and summary["fp32_pes"] == 256
    assert summary["scratchpad_kb"] == 2.0
    with pytest.raises(ValueError):
        micro.power_mw(int_activity=2.0)
    with pytest.raises(ValueError):
        micro.area_fraction_of_bank(0.0)


def test_microarchitecture_compute_time_overlaps_int_and_fp():
    micro = BankMicroarchitecture()
    fp_only = micro.compute_seconds(1e9, 0.0)
    int_only = micro.compute_seconds(0.0, 1e9)
    both = micro.compute_seconds(1e9, 1e9)
    assert both == pytest.approx(max(fp_only, int_only))
    assert micro.compute_energy_j(1e9, 1e9) > 0


# ------------------------------------------------------------------ NMP system
def test_algorithm_locality_validation():
    AlgorithmLocality.instant_nerf().validate()
    AlgorithmLocality.ingp_baseline().validate()
    with pytest.raises(ValueError):
        AlgorithmLocality(row_requests_per_cube=0.0).validate()
    with pytest.raises(ValueError):
        AlgorithmLocality(cube_sharing_run_length=0.5).validate()
    with pytest.raises(ValueError):
        AlgorithmLocality(bank_conflict_stall_factor=0.5).validate()


def test_nmp_config_validation():
    NMPConfig().validate()
    with pytest.raises(ValueError):
        NMPConfig(num_active_banks=0).validate()
    with pytest.raises(ValueError):
        NMPConfig(compute_efficiency=0.0).validate()
    with pytest.raises(ValueError):
        NMPConfig(subarray_parallel_speedup=0.5).validate()
    assert NMPConfig().effective_interbank_bandwidth_gbps > 10.0
    assert NMPConfig(interbank_bandwidth_gbps=5.0).effective_interbank_bandwidth_gbps == 5.0


def test_nmp_iteration_cost_structure():
    accelerator = NMPAccelerator()
    cost = accelerator.iteration_cost()
    assert set(cost.steps) == {"HT", "MLP", "MLP_b", "HT_b"}
    assert cost.seconds > 0
    assert cost.energy_j > 0
    assert sum(cost.breakdown().values()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        accelerator.step_cost("conv")


def test_nmp_training_time_is_instant_compared_to_edge_gpus():
    """Headline claim: per-scene training drops from hours to minutes."""
    accelerator = NMPAccelerator()
    seconds = accelerator.scene_training_seconds()
    assert 30.0 < seconds < 1500.0  # minutes, not hours
    assert accelerator.scene_training_energy_j() > 0
    assert accelerator.average_power_w() < XNX.power_w  # NMP draws less than the edge GPU


def test_instant_nerf_locality_beats_ingp_baseline_on_nmp():
    """Algorithm/accelerator co-design: the Morton+ray-first locality matters."""
    ours = NMPAccelerator(locality=AlgorithmLocality.instant_nerf())
    baseline = NMPAccelerator(locality=AlgorithmLocality.ingp_baseline())
    assert baseline.scene_training_seconds() > 1.5 * ours.scene_training_seconds()


def test_more_banks_reduce_latency():
    small = NMPAccelerator(NMPConfig(num_active_banks=8))
    large = NMPAccelerator(NMPConfig(num_active_banks=32))
    assert large.scene_training_seconds() < small.scene_training_seconds()


def test_heterogeneous_plan_beats_all_data_parallel_on_nmp():
    hetero = NMPAccelerator()
    data_parallel = NMPAccelerator(NMPConfig(plan=all_data_parallel_plan()))
    assert hetero.iteration_cost().seconds < data_parallel.iteration_cost().seconds


@pytest.fixture(scope="module")
def filtered_stats():
    """Hierarchy stats of one NeRF lookup stream (about 71% of it reaches DRAM)."""
    grid = HashGridConfig(num_levels=4)
    trace = TraceConfig(num_rays=32, points_per_ray=16, seed=0)
    stream = SimulationContext().request_stream(
        grid, trace, grid.hash_fn, StreamingOrder.RAY_FIRST, 0
    )
    return CacheHierarchy(CacheConfig(capacity_bytes=16 * 1024)).filter_stream(stream).stats


@settings(max_examples=40, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_nmp_sample_fraction_scales_per_point_costs_linearly(filtered_stats, fraction):
    """Occupancy pruning scales every per-point term; inter-bank traffic stays.

    Energy is not checked: static energy scales with busy time, which
    includes the unscaled inter-bank term.
    """
    for stats in (None, filtered_stats):
        dense = NMPAccelerator(cache_stats=stats)
        pruned = NMPAccelerator(cache_stats=stats, sample_fraction=fraction)
        for step in ("HT", "MLP", "MLP_b", "HT_b"):
            full, part = dense.step_cost(step), pruned.step_cost(step)
            assert part.memory_seconds == pytest.approx(
                fraction * full.memory_seconds, rel=1e-12, abs=0.0
            )
            assert part.compute_seconds == pytest.approx(
                fraction * full.compute_seconds, rel=1e-12, abs=0.0
            )
            assert part.interbank_seconds == full.interbank_seconds


def test_comparison_model_fig11_ranges():
    """Fig. 11 shape: order-of-magnitude speedup and energy gains over edge GPUs."""
    accelerator = NMPAccelerator()
    xnx = ComparisonModel(accelerator, XNX).compare_scene("lego")
    tx2 = ComparisonModel(accelerator, TX2).compare_scene("lego")
    assert xnx.speedup > 10.0
    assert tx2.speedup > 60.0
    assert tx2.speedup > xnx.speedup
    assert xnx.energy_efficiency_improvement > 20.0
    assert tx2.energy_efficiency_improvement > 100.0
    with pytest.raises(ValueError):
        ComparisonModel(accelerator, XNX).compare_scene("lego", scene_difficulty=0.0)


def test_comparison_model_modelled_gpu_time_fallback():
    accelerator = NMPAccelerator()
    modelled = ComparisonModel(accelerator, XNX, use_measured_gpu_time=False).compare_scene("lego")
    assert modelled.gpu_seconds != pytest.approx(XNX.measured_training_s)
    assert modelled.speedup > 5.0
