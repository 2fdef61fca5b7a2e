"""Bank and subarray state machines with an open-page row-buffer policy.

Each bank tracks which row is open in each of its subarrays (subarray-level
parallelism: different subarrays keep independent local row buffers, so two
requests to different subarrays of the same bank do not necessarily conflict
— the property exploited by the Instant-NeRF intra-level hash-table mapping).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .spec import DRAMSpec

__all__ = ["AccessResult", "BankState", "Bank"]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one row access issued to a bank.

    ``start_cycle`` is the cycle at which the bank actually began the access
    (and, on a row miss, issued the ACT) — ``max(issue cycle, bank free
    cycle)``; activation-rate windows (tRRD/tFAW) must anchor on it, not on
    the issue cycle.
    """

    ready_cycle: int
    latency: int
    row_hit: bool
    bank_conflict: bool
    subarray: int
    start_cycle: int = 0


@dataclass
class BankState:
    """Mutable per-bank bookkeeping."""

    open_rows: dict[int, int] = field(default_factory=dict)  # subarray -> open row
    next_free_cycle: int = 0
    activations: int = 0
    row_hits: int = 0
    row_misses: int = 0
    bank_conflicts: int = 0
    reads: int = 0
    writes: int = 0


class Bank:
    """A single DRAM bank with subarray-aware open-row tracking."""

    def __init__(self, spec: DRAMSpec, bank_id: int = 0, subarrays: int | None = None):
        self.spec = spec
        self.bank_id = bank_id
        default_subarrays = spec.organization.subarrays_per_bank
        self.num_subarrays = subarrays if subarrays is not None else default_subarrays
        if self.num_subarrays <= 0:
            raise ValueError("a bank needs at least one subarray")
        self.state = BankState()

    # ----------------------------------------------------------- internals
    def _row_cycle_latencies(
        self, row_hit: bool, is_write: bool, precharge_needed: bool = True
    ) -> int:
        t = self.spec.timing
        if row_hit:
            # Column access straight out of the open row buffer.
            latency = t.tCL + t.tCCD if not is_write else t.tWR + t.tCCD
        else:
            # Precharge (only if a different row was open) + activate + column access.
            latency = (
                (t.tRP if precharge_needed else 0) + t.tRCD + (t.tCL if not is_write else t.tWR)
            )
        return latency

    # ----------------------------------------------------------------- API
    def access(self, row: int, subarray: int, cycle: int, is_write: bool = False) -> AccessResult:
        """Issue one row-granularity access; returns timing and hit/conflict flags.

        A *bank conflict* is recorded when the request has to wait because the
        bank (all subarrays share the command path and global row buffer) is
        still busy with a previous request to a *different* row.
        """
        if row < 0:
            raise ValueError("row must be non-negative")
        subarray = subarray % self.num_subarrays
        state = self.state

        open_row = state.open_rows.get(subarray)
        row_hit = open_row == row
        start_cycle = max(cycle, state.next_free_cycle)
        waited = start_cycle > cycle
        bank_conflict = waited and not row_hit

        # A first access to an idle subarray has no open row to precharge.
        precharge_needed = not row_hit and open_row is not None
        latency = self._row_cycle_latencies(row_hit, is_write, precharge_needed)
        ready = start_cycle + latency

        state.open_rows[subarray] = row
        state.next_free_cycle = ready
        if row_hit:
            state.row_hits += 1
        else:
            state.row_misses += 1
            state.activations += 1
        if bank_conflict:
            state.bank_conflicts += 1
        if is_write:
            state.writes += 1
        else:
            state.reads += 1
        return AccessResult(ready, latency, row_hit, bank_conflict, subarray, start_cycle)

    # ------------------------------------------------------------ statistics
    def row_hit_rate(self) -> float:
        total = self.state.row_hits + self.state.row_misses
        return self.state.row_hits / total if total else 0.0
