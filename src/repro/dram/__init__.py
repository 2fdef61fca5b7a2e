"""LPDDR4 DRAM substrate: organization/timing specs, bank/subarray model,
controllers, full-system trace simulation and energy accounting."""

from .address import AddressMapper, DecodedAddress
from .bank import AccessResult, Bank, BankState
from .controller import ChannelController, ChannelStats
from .energy import DRAMEnergyModel, EnergyBreakdown
from .spec import LPDDR4_2400, DRAMOrganization, DRAMSpec, DRAMTiming
from .system import DRAMSystem, TraceResult
from .trace import MemoryRequest, RequestType

__all__ = [
    "AddressMapper",
    "DecodedAddress",
    "AccessResult",
    "Bank",
    "BankState",
    "ChannelController",
    "ChannelStats",
    "DRAMEnergyModel",
    "EnergyBreakdown",
    "LPDDR4_2400",
    "DRAMOrganization",
    "DRAMSpec",
    "DRAMTiming",
    "DRAMSystem",
    "TraceResult",
    "MemoryRequest",
    "RequestType",
]
