"""Tests for the LPDDR4 DRAM substrate: spec, addressing, banks, controller, system."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.dram import (
    LPDDR4_2400,
    AddressMapper,
    Bank,
    ChannelController,
    DRAMEnergyModel,
    DRAMOrganization,
    DRAMSpec,
    DRAMSystem,
    DRAMTiming,
    MemoryRequest,
    RequestType,
    coalesce_row_requests,
    requests_from_addresses,
)
from repro.dram.spec import DDR4_3200
from repro.streams import RequestStream


def _address_stream(addresses):
    """Raw byte addresses as a stream of one-byte entries (addresses unchanged)."""
    a = np.asarray(addresses, dtype=np.int64)
    return RequestStream(
        indices=a.reshape(-1, 1), entry_bytes=1, table_entries=int(a.max()) + 1 if a.size else 1
    )


# --------------------------------------------------------------------- spec
def test_default_spec_matches_table3():
    org = LPDDR4_2400.organization
    assert org.total_capacity_bytes == 16 * 1024**3
    assert org.num_channels == 8
    assert org.banks_per_chip == 16
    assert org.row_buffer_bytes == 1024
    assert org.num_banks_total == 128
    # 128 MB per bank for the 16 GB / 128-bank system (paper: 128-256 MB).
    assert org.bank_capacity_bytes == 128 * 1024**2
    # Peak external bandwidth of LPDDR4-2400 x 128-bit is ~38.4 GB/s x 2? No:
    # 128 bit * 2400 MT/s = 38.4 GB/s; XNX pairs it with LPDDR4x at 59.7 GB/s.
    assert org.peak_bandwidth_gbps == pytest.approx(38.4, rel=0.01)
    assert LPDDR4_2400.timing.tRCD == 4
    assert LPDDR4_2400.timing.tRP == 6
    LPDDR4_2400.validate()


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        DRAMSpec(organization=DRAMOrganization(num_channels=0)).validate()
    with pytest.raises(ValueError):
        DRAMSpec(timing=DRAMTiming(tRCD=-1)).validate()


def test_internal_bandwidth_exceeds_external():
    org = LPDDR4_2400.organization
    assert org.internal_bank_bandwidth_gbps > 5 * org.peak_bandwidth_gbps


# ------------------------------------------------------------------- traces
def test_memory_request_validation():
    with pytest.raises(ValueError):
        MemoryRequest(address=-1)
    with pytest.raises(ValueError):
        MemoryRequest(address=0, size_bytes=0)
    request = MemoryRequest(address=4096, request_type=RequestType.WRITE, size_bytes=64)
    assert request.request_type is RequestType.WRITE


def test_requests_from_addresses_and_coalescing():
    addresses = np.array([0, 8, 1024, 2048, 2052])
    requests = requests_from_addresses(addresses, issue_interval=2)
    assert len(requests) == 5
    assert requests[3].arrival_cycle == 6
    coalesced = coalesce_row_requests(addresses, row_bytes=1024)
    assert list(coalesced) == [0, 1024, 2048]
    with pytest.raises(ValueError):
        coalesce_row_requests(addresses, row_bytes=0)


# ----------------------------------------------------------------- address
def test_address_mapper_roundtrip_and_fields():
    mapper = AddressMapper()
    address = mapper.encode(channel=3, bank=5, row=100, column=17)
    decoded = mapper.decode(address)
    assert decoded.channel == 3
    assert decoded.bank == 5
    assert decoded.row == 100
    assert decoded.column == 17
    with pytest.raises(ValueError):
        mapper.encode(channel=99, bank=0, row=0)


@given(st.integers(0, 7), st.integers(0, 15), st.integers(0, 10000), st.integers(0, 1023))
@settings(max_examples=60, deadline=None)
def test_address_mapper_roundtrip_property(channel, bank, row, column):
    mapper = AddressMapper()
    decoded = mapper.decode(mapper.encode(channel=channel, bank=bank, row=row, column=column))
    assert (decoded.channel, decoded.bank, decoded.row, decoded.column) == (
        channel,
        bank,
        row,
        column,
    )


def test_sequential_addresses_fill_a_row_before_switching_banks():
    mapper = AddressMapper()
    addrs = np.arange(0, 4096, 64)
    channels, _, banks, _, rows, _ = mapper.decode_array(addrs)
    # First 1 KB stays in one (bank, row); the next 1 KB moves to another bank.
    assert len(set(zip(banks[:16], rows[:16]))) == 1
    assert banks[16] != banks[0]


# -------------------------------------------------------------------- banks
def test_bank_row_hit_vs_miss_latency():
    bank = Bank(LPDDR4_2400)
    miss = bank.access(row=10, subarray=0, cycle=0)
    hit = bank.access(row=10, subarray=0, cycle=miss.ready_cycle)
    other = bank.access(row=11, subarray=0, cycle=hit.ready_cycle)
    assert not miss.row_hit and hit.row_hit and not other.row_hit
    # Switching rows costs the precharge on top of activate + column access.
    assert hit.latency < other.latency
    assert bank.state.row_hits == 1
    assert bank.state.row_misses == 2
    assert bank.row_hit_rate() == pytest.approx(1 / 3)


def test_bank_first_access_to_idle_subarray_skips_precharge():
    """Regression: an idle subarray has no open row, so no tRP is charged."""
    t = LPDDR4_2400.timing
    bank = Bank(LPDDR4_2400)
    first = bank.access(row=10, subarray=0, cycle=0)
    assert not first.row_hit
    assert first.latency == t.tRCD + t.tCL  # no tRP on an idle subarray
    switch = bank.access(row=11, subarray=0, cycle=first.ready_cycle)
    assert switch.latency == t.tRP + t.tRCD + t.tCL  # row 10 must be precharged
    # A write to a second idle subarray also skips the precharge.
    first_write = bank.access(row=3, subarray=1, cycle=0, is_write=True)
    assert first_write.latency == t.tRCD + t.tWR


def test_bank_access_reports_actual_start_cycle():
    bank = Bank(LPDDR4_2400)
    first = bank.access(row=1, subarray=0, cycle=0)
    assert first.start_cycle == 0
    # Bank is busy until first.ready_cycle: the next access starts there.
    delayed = bank.access(row=2, subarray=0, cycle=0)
    assert delayed.start_cycle == first.ready_cycle
    assert delayed.ready_cycle == delayed.start_cycle + delayed.latency


def test_bank_conflict_detection_and_reset():
    bank = Bank(LPDDR4_2400, subarrays=4)
    first = bank.access(row=1, subarray=0, cycle=0)
    # Second request arrives before the bank is free and targets another row.
    second = bank.access(row=2, subarray=1, cycle=0)
    assert second.bank_conflict
    assert bank.state.bank_conflicts == 1
    with pytest.raises(ValueError):
        bank.access(row=-1, subarray=0, cycle=0)
    with pytest.raises(ValueError):
        Bank(LPDDR4_2400, subarrays=0)


def test_subarrays_keep_independent_open_rows():
    bank = Bank(LPDDR4_2400, subarrays=2)
    bank.access(row=5, subarray=0, cycle=0)
    result = bank.access(row=7, subarray=1, cycle=100)
    assert not result.row_hit
    hit0 = bank.access(row=5, subarray=0, cycle=200)
    hit1 = bank.access(row=7, subarray=1, cycle=300)
    assert hit0.row_hit and hit1.row_hit


# --------------------------------------------------------------- controller
def test_controller_counts_and_hit_rate():
    controller = ChannelController(LPDDR4_2400)
    addrs = [0, 64, 128, 1024 * 16 * 50]  # three to one row, one far away
    finish = controller.service_all([MemoryRequest(a) for a in addrs])
    assert finish > 0
    assert controller.stats.requests == 4
    assert controller.stats.row_hits >= 2
    assert controller.row_hit_rate() > 0.4


def test_controller_write_requests_tracked():
    controller = ChannelController(LPDDR4_2400)
    controller.service_all([MemoryRequest(0, RequestType.WRITE)])
    assert controller.stats.writes == 1 and controller.stats.reads == 0


def test_controller_anchors_activation_window_on_actual_start():
    """Regression: when the bank is busy, the ACT happens at the bank's next
    free cycle, and tRRD must be measured from there, not the issue cycle."""
    controller = ChannelController(LPDDR4_2400)
    mapper = controller.mapper
    t = LPDDR4_2400.timing
    # Two activations to different rows of the same bank, both arriving at 0.
    first = controller.service_all([MemoryRequest(mapper.encode(channel=0, bank=0, row=0))])
    assert controller._last_activation_cycle == 0
    controller.service_all([MemoryRequest(mapper.encode(channel=0, bank=0, row=100))])
    # The second ACT could only issue once the bank freed up at `first`,
    # which is later than the tRRD-constrained issue cycle.
    assert first > t.tRRD
    assert controller._last_activation_cycle == first


# ------------------------------------------------------------------- system
def test_dram_system_sequential_faster_than_random():
    """Streaming rows of one bank in order beats visiting them shuffled."""
    system = DRAMSystem()
    mapper = AddressMapper()
    rng = np.random.default_rng(0)
    sequential = np.array(
        [
            mapper.encode(channel=0, bank=0, row=row, column=col)
            for row in range(32)
            for col in range(0, 1024, 64)
        ]
    )
    shuffled = rng.permutation(sequential)
    seq_result = system.service_batch(_address_stream(sequential), size_bytes=32)
    rand_result = system.service_batch(_address_stream(shuffled), size_bytes=32)
    assert seq_result.row_hit_rate > rand_result.row_hit_rate
    assert seq_result.total_cycles < rand_result.total_cycles
    assert seq_result.achieved_bandwidth_gbps > rand_result.achieved_bandwidth_gbps
    assert rand_result.bank_conflict_rate >= 0.0


def test_dram_system_energy_accounting_and_near_bank_saves_io():
    system = DRAMSystem()
    stream = _address_stream(np.arange(0, 256 * 64, 64))
    external = system.service_batch(stream, size_bytes=32, near_bank=False)
    internal = system.service_batch(stream, size_bytes=32, near_bank=True)
    assert external.energy.io_j > 0
    assert internal.energy.io_j == 0
    assert internal.energy.total_j < external.energy.total_j
    assert external.bytes_transferred == internal.bytes_transferred


def test_dram_system_empty_trace():
    result = DRAMSystem().service_requests([])
    assert result.total_cycles == 0
    assert result.total_requests == 0
    batch = DRAMSystem().service_batch(_address_stream([]), size_bytes=32)
    assert batch.total_cycles == 0 and batch.total_requests == 0


def test_dram_system_service_batch_matches_object_path():
    rng = np.random.default_rng(11)
    addrs = (rng.integers(0, 2**27, size=2000) * 4).astype(np.int64)
    via_requests = DRAMSystem().service_requests([MemoryRequest(int(a)) for a in addrs])
    via_batch = DRAMSystem().service_batch(_address_stream(addrs), size_bytes=32)
    assert via_batch == via_requests
    with pytest.raises(ValueError, match="indices must lie"):
        DRAMSystem().service_batch(RequestStream(indices=[[-4]], entry_bytes=1, table_entries=1))


def test_dram_system_subarrays_per_bank_default_and_validation():
    assert DRAMSystem().subarrays_per_bank == LPDDR4_2400.organization.subarrays_per_bank
    assert DRAMSystem(DDR4_3200).subarrays_per_bank == DDR4_3200.organization.subarrays_per_bank
    assert DRAMSystem(subarrays_per_bank=3).subarrays_per_bank == 3
    for bad in (0, -1):
        with pytest.raises(ValueError, match="subarrays_per_bank"):
            DRAMSystem(subarrays_per_bank=bad)


@pytest.mark.parametrize("channels", [range(8), [5]], ids=["all_channels", "one_channel"])
def test_dram_metrics_equal_on_batch_and_object_paths(channels):
    """Both paths record the same ``dram.*`` counters, per-channel busy
    cycles included, and only for channels that served a request."""
    mapper = AddressMapper()
    rng = np.random.default_rng(5)
    addrs = np.array(
        [
            mapper.encode(
                channel=int(rng.choice(list(channels))),
                bank=int(rng.integers(0, 16)),
                row=int(rng.integers(0, 64)),
                column=int(rng.integers(0, 1024)),
            )
            for _ in range(600)
        ]
    )

    def counters(service):
        _, metrics = obs.enable(wall_clock=False)
        try:
            service()
            return metrics.snapshot()["counters"]
        finally:
            obs.disable()

    via_batch = counters(lambda: DRAMSystem().service_batch(_address_stream(addrs), size_bytes=32))
    via_requests = counters(
        lambda: DRAMSystem().service_requests([MemoryRequest(int(a)) for a in addrs])
    )
    assert via_batch == via_requests
    busy = {name for name in via_batch if name.endswith(".busy_cycles")}
    assert busy == {f"dram.channel{c}.busy_cycles" for c in channels}
    assert all(via_batch[name] > 0 for name in busy)
    assert via_batch["dram.requests"] == addrs.size


def test_energy_model_validation():
    model = DRAMEnergyModel()
    with pytest.raises(ValueError):
        model.energy(-1, 0, 0, 0.0)
    breakdown = model.energy(10, 1000, 1000, 1e-3)
    assert breakdown.total_j > 0
