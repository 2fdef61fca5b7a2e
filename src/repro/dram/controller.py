"""Per-channel memory controller: the per-request DRAM timing oracle.

The controller accepts row-granularity requests, decodes them with the
address mapper, enforces a small set of inter-command constraints (tRRD,
tFAW across banks of a channel) on top of the per-bank timing handled by
:class:`repro.dram.bank.Bank`, and keeps aggregate statistics.  Only
:meth:`repro.dram.system.DRAMSystem.service_requests` drives it, one
request at a time; :meth:`~repro.dram.system.DRAMSystem.service_batch`
times whole streams as arrays and must agree with it exactly.

Scheduling policy: requests are serviced in arrival order per channel
(FCFS).  Row hits are naturally cheaper because the bank model charges only
the column-access latency, which is what gives the open-page behaviour its
first-ready flavour without a full FR-FCFS reorder queue.  This is a
deliberate simplification over Ramulator's reorder queue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .address import AddressMapper
from .bank import Bank
from .spec import DRAMSpec
from .trace import MemoryRequest, RequestType

__all__ = ["ChannelStats", "ChannelController"]


@dataclass
class ChannelStats:
    """Aggregate statistics for one channel."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    bank_conflicts: int = 0
    activations: int = 0
    bytes_transferred: int = 0
    busy_cycles: int = 0
    last_ready_cycle: int = 0


class ChannelController:
    """FCFS open-page controller for one LPDDR4 channel."""

    def __init__(self, spec: DRAMSpec, channel_id: int = 0, subarrays_per_bank: int | None = None):
        self.spec = spec
        self.channel_id = channel_id
        org = spec.organization
        self.banks = [
            Bank(spec, bank_id=b, subarrays=subarrays_per_bank) for b in range(org.banks_per_chip)
        ]
        self.mapper = AddressMapper(org)
        self.stats = ChannelStats()
        self._recent_activations: list[int] = []  # cycles of recent ACTs for tFAW
        self._last_activation_cycle: int = -(10**9)

    # ------------------------------------------------------------ internals
    def _activation_constraint(self, cycle: int) -> int:
        """Earliest cycle at which a new activation may be issued (tRRD/tFAW)."""
        t = self.spec.timing
        earliest = max(cycle, self._last_activation_cycle + t.tRRD)
        if len(self._recent_activations) >= 4:
            earliest = max(earliest, self._recent_activations[-4] + t.tFAW)
        return earliest

    def _note_activation(self, cycle: int) -> None:
        self._last_activation_cycle = cycle
        self._recent_activations.append(cycle)
        if len(self._recent_activations) > 8:
            self._recent_activations = self._recent_activations[-8:]

    def _service_decoded(
        self,
        bank_idx: int,
        subarray: int,
        row: int,
        is_write: bool,
        arrival_cycle: int,
        size_bytes: int,
    ) -> int:
        """Service one already-decoded request; returns its data-ready cycle."""
        org = self.spec.organization
        bank = self.banks[bank_idx % len(self.banks)]

        issue_cycle = arrival_cycle
        # Activation-rate limits only matter when the access misses the row buffer.
        open_row = bank.state.open_rows.get(subarray % bank.num_subarrays)
        will_activate = open_row != row
        if will_activate:
            issue_cycle = self._activation_constraint(issue_cycle)
        result = bank.access(row, subarray, issue_cycle, is_write=is_write)
        if will_activate:
            # Anchor the tRRD/tFAW window on the cycle the ACT actually issued:
            # a busy bank delays the ACT to its next free cycle, not the issue
            # cycle the controller asked for.
            self._note_activation(result.start_cycle)

        stats = self.stats
        stats.requests += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if result.row_hit:
            stats.row_hits += 1
        else:
            stats.row_misses += 1
            stats.activations += 1
        if result.bank_conflict:
            stats.bank_conflicts += 1
        stats.bytes_transferred += min(size_bytes, org.row_buffer_bytes)
        stats.busy_cycles += result.latency
        stats.last_ready_cycle = max(stats.last_ready_cycle, result.ready_cycle)
        return result.ready_cycle

    # ----------------------------------------------------------------- API
    def service_all(self, requests: list[MemoryRequest]) -> int:
        """Service a request list in order; returns the completion cycle."""
        if not requests:
            return 0
        addresses = np.array([request.address for request in requests], dtype=np.int64)
        _, _, banks, subarrays, rows, _ = self.mapper.decode_array(addresses)
        finish = 0
        for request, bank_idx, subarray, row in zip(
            requests, banks.tolist(), subarrays.tolist(), rows.tolist()
        ):
            ready = self._service_decoded(
                bank_idx,
                subarray,
                row,
                request.request_type is RequestType.WRITE,
                request.arrival_cycle,
                request.size_bytes,
            )
            finish = max(finish, ready)
        return finish

    # ------------------------------------------------------------ statistics
    def row_hit_rate(self) -> float:
        total = self.stats.row_hits + self.stats.row_misses
        return self.stats.row_hits / total if total else 0.0
