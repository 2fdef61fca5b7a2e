"""Byte-address to (channel, rank, bank, subarray, row, column) mapping.

The default interleaving follows the common row-bank-column policy used for
LPDDR4 in edge SoCs: the column bits (within a row) are least significant so
a streaming access fills a row before moving on, bank bits sit above the
column bits so consecutive rows map to different banks (bank-level
parallelism), then channel bits, then row bits.

The mapping is intentionally configurable because the Instant-NeRF hash-table
mapping scheme (Sec. IV-B) works precisely by *changing* how hash-table
addresses land on subarrays and banks; see :mod:`repro.core.mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spec import DRAMOrganization

__all__ = ["DecodedAddress", "AddressMapper"]


@dataclass(frozen=True)
class DecodedAddress:
    """Result of decoding one byte address."""

    channel: int
    rank: int
    bank: int
    subarray: int
    row: int
    column: int


class AddressMapper:
    """Decode byte addresses into DRAM coordinates.

    Bit layout (LSB to MSB): column | bank | channel | row.  The subarray is
    derived from the row index (rows are striped over subarrays), matching
    how subarray-level parallelism exposes mostly-independent row groups
    within a bank.
    """

    def __init__(self, organization: DRAMOrganization | None = None):
        self.org = organization or DRAMOrganization()
        self.org.validate()
        self._column_bits = int(np.log2(self.org.row_buffer_bytes))
        self._bank_bits = int(np.ceil(np.log2(self.org.banks_per_chip)))
        self._channel_bits = (
            int(np.ceil(np.log2(self.org.num_channels))) if self.org.num_channels > 1 else 0
        )
        if 2**self._column_bits != self.org.row_buffer_bytes:
            raise ValueError("row_buffer_bytes must be a power of two")
        # Masked bank and channel bits exceed their counts only when a count
        # is not a power of two; only then does a decode clamp them.
        self._clamp = (
            2**self._bank_bits != self.org.banks_per_chip
            or 2**self._channel_bits != self.org.num_channels
        )

    # ------------------------------------------------------------- scalars
    def decode(self, address: int) -> DecodedAddress:
        """Decode a single byte address."""
        channel, rank, bank, subarray, row, column = (
            int(v[0]) for v in self.decode_array(np.array([address]))
        )
        return DecodedAddress(channel, rank, bank, subarray, row, column)

    def encode(self, channel: int, bank: int, row: int, column: int = 0, rank: int = 0) -> int:
        """Inverse of :meth:`decode` (rank collapses into the channel for 1 rank/ch)."""
        if not 0 <= channel < self.org.num_channels:
            raise ValueError(f"channel {channel} out of range")
        if not 0 <= bank < self.org.banks_per_chip:
            raise ValueError(f"bank {bank} out of range")
        if not 0 <= column < self.org.row_buffer_bytes:
            raise ValueError(f"column {column} out of range")
        addr = row
        if self._channel_bits:
            addr = (addr << self._channel_bits) | channel
        addr = (addr << self._bank_bits) | bank
        addr = (addr << self._column_bits) | column
        return int(addr)

    # -------------------------------------------------------------- arrays
    def decode_array(self, addresses: np.ndarray) -> tuple[np.ndarray, ...]:
        """Vectorised decode; returns (channel, rank, bank, subarray, row, column)."""
        addr = np.asarray(addresses, dtype=np.int64)
        channel, bank, row = self.decode_banks(addr)
        rank = np.zeros_like(row)
        subarray = row % self.org.subarrays_per_bank
        column = addr & (self.org.row_buffer_bytes - 1)
        return channel, rank, bank, subarray, row, column

    def decode_banks(
        self, addresses: np.ndarray, out: tuple[np.ndarray, ...] | None = None
    ) -> tuple[np.ndarray, ...]:
        """The (channel, bank, row) of :meth:`decode_array`, without its other arrays.

        ``out`` optionally gives the three int64 arrays, each of the
        addresses' length, to fill and return.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        channel, bank, rest = out or (np.empty_like(addresses) for _ in range(3))
        np.right_shift(addresses, self._column_bits, out=rest)
        np.bitwise_and(rest, 2**self._bank_bits - 1, out=bank)
        rest >>= self._bank_bits
        if self._channel_bits:
            np.bitwise_and(rest, 2**self._channel_bits - 1, out=channel)
            rest >>= self._channel_bits
        else:
            channel.fill(0)
        if self._clamp:
            np.minimum(bank, self.org.banks_per_chip - 1, out=bank)
            np.minimum(channel, self.org.num_channels - 1, out=channel)
        return channel, bank, rest
