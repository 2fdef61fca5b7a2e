"""Whole-memory-system simulator: channels, banks, subarrays, energy.

:class:`DRAMSystem` is the substrate shared by the hash-table locality
experiments (Fig. 6/7/9) and by the NMP accelerator model: it services
request streams and reports completion time, row-hit/bank-conflict counts,
achieved bandwidth and energy.  :meth:`DRAMSystem.service_batch` is the
path every caller takes; :meth:`DRAMSystem.service_requests` is its
per-request oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import get_metrics, get_tracer
from ..streams.ir import RequestStream
from .controller import ChannelController
from .energy import DRAMEnergyModel, EnergyBreakdown
from .spec import DRAMSpec, LPDDR4_2400
from .trace import MemoryRequest, RequestType

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
    """A multi-channel LPDDR4 memory system with optional NMP-side accounting."""

    def __init__(
        self,
        spec: DRAMSpec | None = None,
        subarrays_per_bank: int | None = None,
        energy_model: DRAMEnergyModel | None = None,
    ):
        self.spec = spec or LPDDR4_2400
        self.spec.validate()
        org = self.spec.organization
        self.subarrays_per_bank = subarrays_per_bank or org.subarrays_per_bank
        self.channels = [
            ChannelController(self.spec, channel_id=c, subarrays_per_bank=self.subarrays_per_bank)
            for c in range(org.num_channels)
        ]
        self.energy_model = energy_model or DRAMEnergyModel()

    # ----------------------------------------------------------------- API
    def reset(self) -> None:
        for channel in self.channels:
            channel.reset()

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
            self.reset()
            org = self.spec.organization
            per_channel: dict[int, list[MemoryRequest]] = {c: [] for c in range(org.num_channels)}
            if requests:
                # Route every request with one vectorized decode instead of one
                # 6-array decode per request.
                addresses = np.array([request.address for request in requests], dtype=np.int64)
                channels = self.channels[0].mapper.decode_array(addresses)[0]
                for request, channel in zip(requests, channels):
                    per_channel[int(channel) % org.num_channels].append(request)

            finish_cycles = [
                self.channels[c].service_all(reqs) for c, reqs in per_channel.items() if reqs
            ]
            total_cycles = int(max(finish_cycles)) if finish_cycles else 0
            result = self._summarise(total_cycles, near_bank=near_bank)
            if span.enabled:
                span.set_cycles(result.total_cycles)
                span.add_args(requests=result.total_requests)
                self._emit_metrics(result)
            return result

    def service_batch(
        self, stream: RequestStream, size_bytes: int | None = None, near_bank: bool = False
    ) -> TraceResult:
        """Service one back-pressured request stream without building request objects.

        The stream's addresses are wrapped into the modeled capacity, its
        kind picks the request direction and its ``entry_bytes`` the burst
        size (``size_bytes`` overrides it).  All addresses are routed to
        channels with a single :meth:`AddressMapper.decode_array` call and
        each channel decodes its share once more in
        :meth:`ChannelController.service_batch`.  Produces the same
        :class:`TraceResult` as :meth:`service_requests` on the equivalent
        :class:`MemoryRequest` trace.
        """
        request_type = RequestType.WRITE if stream.writes else RequestType.READ
        if size_bytes is None:
            size_bytes = stream.entry_bytes
        addresses = stream.addresses % self.spec.organization.total_capacity_bytes
        with get_tracer().span("dram.service_batch", "dram") as span:
            self.reset()
            org = self.spec.organization
            finish_cycles = []
            if addresses.size:
                channels = self.channels[0].mapper.decode_array(addresses)[0] % org.num_channels
                for c in range(org.num_channels):
                    chunk = addresses[channels == c]
                    if chunk.size:
                        finish_cycles.append(
                            self.channels[c].service_batch(
                                chunk, request_type=request_type, size_bytes=size_bytes
                            )
                        )
            total_cycles = int(max(finish_cycles)) if finish_cycles else 0
            result = self._summarise(total_cycles, near_bank=near_bank)
            if span.enabled:
                span.set_cycles(result.total_cycles)
                span.add_args(requests=result.total_requests)
                self._emit_metrics(result)
            return result

    # ------------------------------------------------------------ internals
    def _emit_metrics(self, result: TraceResult) -> None:
        """Record one serviced trace in the metrics registry (enabled-only)."""
        metrics = get_metrics()
        metrics.counter("dram.requests").inc(result.total_requests)
        metrics.counter("dram.row_hits").inc(result.row_hits)
        metrics.counter("dram.row_misses").inc(result.row_misses)
        metrics.counter("dram.bank_conflicts").inc(result.bank_conflicts)
        metrics.counter("dram.bytes_transferred").inc(result.bytes_transferred)
        for channel in self.channels:
            if channel.stats.requests:
                metrics.counter(f"dram.channel{channel.channel_id}.busy_cycles").inc(
                    channel.stats.busy_cycles
                )
    def _summarise(self, total_cycles: int, near_bank: bool) -> TraceResult:
        org = self.spec.organization
        requests = sum(c.stats.requests for c in self.channels)
        row_hits = sum(c.stats.row_hits for c in self.channels)
        row_misses = sum(c.stats.row_misses for c in self.channels)
        conflicts = sum(c.stats.bank_conflicts for c in self.channels)
        activations = sum(c.stats.activations for c in self.channels)
        transferred = sum(c.stats.bytes_transferred for c in self.channels)
        elapsed_ns = total_cycles * self.spec.clock_period_ns
        bandwidth = transferred / max(elapsed_ns, 1e-9)  # bytes/ns == GB/s
        energy = self.energy_model.energy(
            activations=activations,
            bytes_accessed=transferred,
            bytes_on_io=0 if near_bank else transferred,
            elapsed_seconds=elapsed_ns * 1e-9,
        )
        total = row_hits + row_misses
        return TraceResult(
            total_cycles=total_cycles,
            total_requests=requests,
            row_hits=row_hits,
            row_misses=row_misses,
            bank_conflicts=conflicts,
            activations=activations,
            bytes_transferred=transferred,
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
