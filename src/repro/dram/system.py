"""Whole-memory-system simulator: channels, banks, subarrays, energy.

:class:`DRAMSystem` is the substrate shared by the hash-table locality
experiments (Fig. 6/7/9) and by the NMP accelerator model: it services
request streams and reports completion time, row-hit/bank-conflict counts,
achieved bandwidth and energy.

Every caller takes :meth:`DRAMSystem.service_batch`, which times a whole
stream as arrays, or its array entry :meth:`DRAMSystem.service_addresses`.
Requests all arrive at cycle 0 and each channel serves them in stream
order, so whether a request hits the open row, and whether it pays a
precharge, follows from the previous access to its subarray; a row hit is
ready its latency after its bank's previous request.  Only activations
wait on the channel's tRRD/tFAW window, so the one scalar loop runs over
activations alone.  ``service_addresses`` takes an optional stream id per
request and times many streams in the same pass, each on idle banks as if
alone.

:meth:`DRAMSystem.service_requests` is its per-request oracle: it walks a
:class:`MemoryRequest` list through the :class:`ChannelController` and
:class:`~repro.dram.bank.Bank` state machines one request at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.scratch import scratch
from ..core.sorting import stable_order
from ..obs import get_metrics, get_tracer
from ..streams.ir import RequestStream
from .address import AddressMapper
from .controller import ChannelController
from .energy import DRAMEnergyModel, EnergyBreakdown
from .spec import DRAMSpec, LPDDR4_2400
from .trace import MemoryRequest

__all__ = ["TraceResult", "DRAMSystem"]


@dataclass(frozen=True)
class TraceResult:
    """Summary of servicing one trace."""

    total_cycles: int
    total_requests: int
    row_hits: int
    row_misses: int
    bank_conflicts: int
    activations: int
    bytes_transferred: int
    elapsed_ns: float
    achieved_bandwidth_gbps: float
    row_hit_rate: float
    energy: EnergyBreakdown

    @property
    def bank_conflict_rate(self) -> float:
        return self.bank_conflicts / self.total_requests if self.total_requests else 0.0


class DRAMSystem:
    """A multi-channel LPDDR4 memory system with optional NMP-side accounting.

    It keeps no state between calls: every trace starts on idle banks.
    ``subarrays_per_bank`` defaults to the organization's.
    """

    def __init__(
        self,
        spec: DRAMSpec | None = None,
        subarrays_per_bank: int | None = None,
        energy_model: DRAMEnergyModel | None = None,
    ):
        self.spec = spec or LPDDR4_2400
        self.spec.validate()
        if subarrays_per_bank is None:
            subarrays_per_bank = self.spec.organization.subarrays_per_bank
        elif subarrays_per_bank <= 0:
            raise ValueError(f"subarrays_per_bank must be positive, got {subarrays_per_bank}")
        self.subarrays_per_bank = subarrays_per_bank
        self.mapper = AddressMapper(self.spec.organization)
        self.energy_model = energy_model or DRAMEnergyModel()

    # ----------------------------------------------------------------- API
    def service_requests(
        self, requests: list[MemoryRequest], near_bank: bool = False
    ) -> TraceResult:
        """Service a request trace and summarise timing, locality and energy.

        Parameters
        ----------
        requests:
            The trace (each request is routed to its channel by address).
        near_bank:
            When True, data stays inside the DRAM die (NMP access): no bytes
            cross the external I/O interface, which reduces I/O energy —
            the accounting behind the Fig. 11(b) energy-efficiency gains.
        """
        with get_tracer().span("dram.service_requests", "dram") as span:
            org = self.spec.organization
            controllers = [
                ChannelController(
                    self.spec, channel_id=c, subarrays_per_bank=self.subarrays_per_bank
                )
                for c in range(org.num_channels)
            ]
            per_channel: dict[int, list[MemoryRequest]] = {c: [] for c in range(org.num_channels)}
            if requests:
                # Route every request with one vectorized decode instead of one
                # 6-array decode per request.
                addresses = np.array([request.address for request in requests], dtype=np.int64)
                channels = self.mapper.decode_array(addresses)[0]
                for request, channel in zip(requests, channels):
                    per_channel[int(channel) % org.num_channels].append(request)

            finish_cycles = [
                controllers[c].service_all(reqs) for c, reqs in per_channel.items() if reqs
            ]
            stats = [controller.stats for controller in controllers]
            result = self._summarise(
                int(max(finish_cycles)) if finish_cycles else 0,
                requests=sum(s.requests for s in stats),
                row_hits=sum(s.row_hits for s in stats),
                row_misses=sum(s.row_misses for s in stats),
                bank_conflicts=sum(s.bank_conflicts for s in stats),
                activations=sum(s.activations for s in stats),
                bytes_transferred=sum(s.bytes_transferred for s in stats),
                near_bank=near_bank,
            )
            if span.enabled:
                span.set_cycles(result.total_cycles)
                span.add_args(requests=result.total_requests)
                self._emit_metrics(
                    result.total_requests,
                    result.row_hits,
                    result.bank_conflicts,
                    result.bytes_transferred,
                    {c.channel_id: c.stats.busy_cycles for c in controllers if c.stats.requests},
                )
            return result

    def service_batch(
        self, stream: RequestStream, size_bytes: int | None = None, near_bank: bool = False
    ) -> TraceResult:
        """Service one back-pressured request stream without building request objects.

        The stream's addresses are wrapped into the modeled capacity and
        timed by :meth:`service_addresses`; its kind picks the request
        direction and its ``entry_bytes`` the burst size (``size_bytes``
        overrides it).  Produces the same :class:`TraceResult` as
        :meth:`service_requests` on the equivalent :class:`MemoryRequest`
        trace.
        """
        org = self.spec.organization
        burst = stream.entry_bytes if size_bytes is None else size_bytes
        addresses = stream.addresses % org.total_capacity_bytes
        (cycles,), (hits,), (conflicts,) = self.service_addresses(
            addresses, burst, stream.writes
        )
        requests = int(addresses.size)
        return self._summarise(
            cycles,
            requests=requests,
            row_hits=hits,
            row_misses=requests - hits,
            bank_conflicts=conflicts,
            activations=requests - hits,
            bytes_transferred=requests * min(burst, org.row_buffer_bytes),
            near_bank=near_bank,
        )

    def service_addresses(
        self,
        addresses: np.ndarray,
        burst_bytes: int,
        writes: bool = False,
        streams: np.ndarray | None = None,
        num_streams: int = 1,
    ) -> tuple[list[int], list[int], list[int]]:
        """Time requests to byte ``addresses`` below the modeled capacity.

        The array entry of the DRAM model: :meth:`service_batch` and
        :meth:`repro.serve.cost.ServiceCostModel.costs` both call it.  Every
        request arrives at cycle 0 and reads (or, with ``writes``, writes)
        ``burst_bytes``.  ``streams`` optionally gives each request a stream
        id below ``num_streams``; the requests of one stream are
        consecutive.  Every stream starts cold: idle banks with no open row
        and an empty tRRD/tFAW window on every channel, whatever the streams
        before it left behind.  Returns, per stream, the completion cycle,
        the row hits and the bank conflicts, each exactly what the stream
        gets alone.  :meth:`_time_batch` times them all with one
        :meth:`AddressMapper.decode_banks` call, stable sorts by stream and
        by subarray or bank, and a scalar loop over the activations only.
        When tracing, one ``dram.service_batch`` span (with the stream count
        in its args) and one set of ``dram.*`` counters cover the call; the
        counters add up to what one call per stream would count.
        """
        with get_tracer().span("dram.service_batch", "dram") as span:
            cycles, row_hits, conflicts, busy_cycles = self._time_batch(
                addresses, writes, streams, num_streams
            )
            if span.enabled:
                requests = int(addresses.size)
                row_bytes = self.spec.organization.row_buffer_bytes
                span.set_cycles(sum(cycles))
                span.add_args(streams=num_streams, requests=requests)
                self._emit_metrics(
                    requests,
                    sum(row_hits),
                    sum(conflicts),
                    requests * min(burst_bytes, row_bytes),
                    busy_cycles,
                )
            return cycles, row_hits, conflicts

    # ------------------------------------------------------------ internals
    def _time_batch(
        self,
        addresses: np.ndarray,
        writes: bool,
        streams: np.ndarray | None = None,
        num_streams: int = 1,
    ) -> tuple[list[int], list[int], list[int], dict[int, int]]:
        """Time requests that all arrive at cycle 0, served in order per channel.

        ``writes`` is the direction of every request.  ``streams`` optionally
        gives each request a stream id below ``num_streams``; the requests
        of one stream are consecutive, and each stream is timed as if alone.
        Returns, per stream, the completion cycle, the row hits and the bank
        conflicts, and the busy cycles of each channel that served a
        request, summed over the streams.
        """
        if addresses.size == 0:
            return [0] * num_streams, [0] * num_streams, [0] * num_streams, {}
        org, timing = self.spec.organization, self.spec.timing
        n = addresses.size
        # Every request-length temporary lives in this thread's scratch pool
        # (int64 slots 0-8, bool slots 0-3).  ``take`` writes straight into a
        # slot only with ``mode="clip"``, which leaves a permutation as it
        # is, and bools are copied into an int64 slot before arithmetic,
        # which would otherwise buffer a cast copy.
        channel, bank, row = self.mapper.decode_banks(
            addresses, out=tuple(scratch(slot, n, np.int64) for slot in range(3))
        )
        key, spare = scratch(3, n, np.int64), scratch(4, n, np.int64)
        bank += np.multiply(channel, org.banks_per_chip, out=key)  # one id per bank of the system

        # A request hits when the previous access to its subarray, in its
        # stream, opened the same row, and pays a precharge when that access
        # opened another one.
        num_banks = org.num_channels * org.banks_per_chip
        np.remainder(row, org.subarrays_per_bank, out=key)  # the subarray the mapper decodes
        key %= self.subarrays_per_bank
        key += np.multiply(bank, self.subarrays_per_bank, out=spare)
        by_subarray = stable_order(
            key, num_banks * self.subarrays_per_bank, streams, num_streams
        )
        follows, same = scratch(0, n, bool), scratch(1, n, bool)
        follows[0] = same[0] = False
        sorted_key = key.take(by_subarray, out=spare, mode="clip")
        np.equal(sorted_key[1:], sorted_key[:-1], out=follows[1:])
        if streams is not None:
            sorted_streams = streams.take(by_subarray, out=spare, mode="clip")
            follows[1:] &= np.equal(sorted_streams[1:], sorted_streams[:-1], out=same[1:])
        rows = row.take(by_subarray, out=key, mode="clip")
        np.equal(rows[1:], rows[:-1], out=same[1:])
        hit, row_open = scratch(2, n, bool), scratch(3, n, bool)
        row_open[by_subarray] = follows
        hit[by_subarray] = np.logical_and(follows, same, out=same)
        column = timing.tWR if writes else timing.tCL
        latency = scratch(5, n, np.int64)
        latency[:] = row_open
        latency *= timing.tRP
        latency += timing.tRCD + column
        np.copyto(latency, column + timing.tCCD, where=hit)

        # A bank serves its requests back to back: each starts once the
        # previous one is ready.  ``before`` is the latency of the requests
        # its bank served earlier, so a bank whose latest activation started
        # ``lag`` cycles after its own ``before`` frees up at ``before + lag``.
        # With streams, each stream has its own banks.
        by_bank = stable_order(bank, num_banks, streams, num_streams)
        sorted_bank = bank.take(by_bank, out=key, mode="clip")
        sorted_latency = latency.take(by_bank, out=spare, mode="clip")
        first = scratch(0, n, bool)
        first[0] = True
        np.not_equal(sorted_bank[1:], sorted_bank[:-1], out=first[1:])
        if streams is not None:
            sorted_streams = streams.take(by_bank, out=scratch(6, n, np.int64), mode="clip")
            first[1:] |= np.not_equal(sorted_streams[1:], sorted_streams[:-1], out=same[1:])
            unit = np.multiply(streams, num_banks, out=row)  # one id per bank of each stream
            unit += bank
        else:
            unit = bank
        firsts = np.flatnonzero(first)
        ahead = np.cumsum(sorted_latency, out=latency)
        ahead -= sorted_latency
        rank = scratch(7, n, np.int64)
        rank[:] = first
        np.cumsum(rank, out=rank)
        rank -= 1
        ahead -= ahead[firsts].take(rank, out=scratch(8, n, np.int64), mode="clip")
        before = rank
        before[by_bank] = ahead

        # Only activations wait on the tRRD/tFAW window, so the recurrence
        # across banks walks each channel's activations in stream order, one
        # stream at a time.  An activation starts at the later of the window
        # and its bank's free cycle, and conflicts when the bank, not the
        # window, held it back.
        activations = np.flatnonzero(np.logical_not(hit, out=row_open))
        m = activations.size
        group = channel.take(activations, out=scratch(8, m, np.int64), mode="clip")
        if streams is not None:  # (stream, channel) pairs, stream-major
            stream_of = streams.take(activations, out=scratch(5, m, np.int64), mode="clip")
            stream_of *= org.num_channels
            group += stream_of
        num_groups = num_streams * org.num_channels
        activations = activations[stable_order(group, num_groups)]
        banks = unit.take(activations, out=scratch(5, m, np.int64), mode="clip").tolist()
        befores = before.take(activations, out=scratch(0, m, np.int64), mode="clip").tolist()
        ends = np.cumsum(np.bincount(group, minlength=num_groups)).tolist()
        lag = [0] * (num_banks * num_streams)
        t_rrd, t_faw = timing.tRRD, timing.tFAW
        conflicts = [0] * num_streams
        begin = 0
        for group_index, end in enumerate(ends):
            bank_conflicts = 0
            # The channel's last four activation starts, latest first; the
            # placeholder is the controller's "no activation yet" cycle.
            act1 = act2 = act3 = act4 = -(10**9)
            for b, earlier in zip(banks[begin:end], befores[begin:end]):
                start = act1 + t_rrd
                if act4 + t_faw > start:
                    start = act4 + t_faw
                if start < 0:
                    start = 0
                free = earlier + lag[b]
                if free > start:
                    start = free
                    bank_conflicts += 1
                lag[b] = start - earlier
                act4, act3, act2, act1 = act3, act2, act1, start
            conflicts[group_index // org.num_channels] += bank_conflicts
            begin = end

        # A bank finishes its total latency after the lag of its last activation.
        bank_latency = np.add.reduceat(sorted_latency, firsts)
        used_bank = sorted_bank[firsts]
        used_unit = used_bank if streams is None else used_bank + sorted_streams[firsts] * num_banks
        finish = bank_latency + np.asarray(lag, dtype=np.int64)[used_unit]
        used_channels = used_bank // org.banks_per_chip
        busy = np.bincount(used_channels, weights=bank_latency).tolist()
        busy_cycles = {c: int(busy[c]) for c in sorted(set(used_channels.tolist()))}
        if streams is None:
            return [int(finish.max())], [n - m], conflicts, busy_cycles
        used_stream = used_unit // num_banks
        total_cycles = np.zeros(num_streams, dtype=np.int64)
        np.maximum.at(total_cycles, used_stream, finish)
        row_hits = np.bincount(streams.compress(hit), minlength=num_streams)
        return total_cycles.tolist(), row_hits.tolist(), conflicts, busy_cycles

    def _emit_metrics(
        self,
        requests: int,
        row_hits: int,
        bank_conflicts: int,
        bytes_transferred: int,
        busy_cycles: dict[int, int],
    ) -> None:
        """Record serviced requests in the metrics registry (enabled-only).

        ``busy_cycles`` maps each channel that served a request to the sum
        of its requests' latencies.
        """
        metrics = get_metrics()
        metrics.counter("dram.requests").inc(requests)
        metrics.counter("dram.row_hits").inc(row_hits)
        metrics.counter("dram.row_misses").inc(requests - row_hits)
        metrics.counter("dram.bank_conflicts").inc(bank_conflicts)
        metrics.counter("dram.bytes_transferred").inc(bytes_transferred)
        for channel, cycles in busy_cycles.items():
            metrics.counter(f"dram.channel{channel}.busy_cycles").inc(cycles)

    def _summarise(
        self,
        total_cycles: int,
        *,
        requests: int,
        row_hits: int,
        row_misses: int,
        bank_conflicts: int,
        activations: int,
        bytes_transferred: int,
        near_bank: bool,
    ) -> TraceResult:
        elapsed_ns = total_cycles * self.spec.clock_period_ns
        bandwidth = bytes_transferred / max(elapsed_ns, 1e-9)  # bytes/ns == GB/s
        energy = self.energy_model.energy(
            activations=activations,
            bytes_accessed=bytes_transferred,
            bytes_on_io=0 if near_bank else bytes_transferred,
            elapsed_seconds=elapsed_ns * 1e-9,
        )
        total = row_hits + row_misses
        return TraceResult(
            total_cycles=total_cycles,
            total_requests=requests,
            row_hits=row_hits,
            row_misses=row_misses,
            bank_conflicts=bank_conflicts,
            activations=activations,
            bytes_transferred=bytes_transferred,
            elapsed_ns=elapsed_ns,
            achieved_bandwidth_gbps=float(bandwidth),
            row_hit_rate=row_hits / total if total else 0.0,
            energy=energy,
        )

    # ------------------------------------------------------------ metadata
    @property
    def peak_bandwidth_gbps(self) -> float:
        return self.spec.organization.peak_bandwidth_gbps

    @property
    def num_banks(self) -> int:
        return self.spec.organization.num_banks_total
