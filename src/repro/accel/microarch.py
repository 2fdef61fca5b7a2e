"""Per-bank Instant-NeRF microarchitecture (Fig. 8).

Each DRAM bank is paired with a compute engine (INT32 + FP32 PE groups,
scratchpad, crossbar, hash registers) and a controller (instruction FIFO,
decoder, address buffer, command/address generators).  The paper implements
this block in RTL (28 nm, 3 metal layers) and reports 3.6 mm^2 and 596.3 mW;
this model reproduces the same roll-up from per-block area/power estimates so
that the constants feeding the system simulation are traceable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pe import FP32_PE_GROUP, INT32_PE_GROUP, PEGroup
from .scratchpad import Scratchpad

__all__ = ["ControllerConfig", "MicroarchitectureConfig", "BankMicroarchitecture"]


@dataclass(frozen=True)
class ControllerConfig:
    """Controller blocks of Fig. 8 with area/power estimates (28 nm)."""

    instruction_fifo_depth: int = 64
    address_buffer_entries: int = 32
    area_mm2: float = 0.35
    power_mw: float = 45.0

    def validate(self) -> None:
        if self.instruction_fifo_depth <= 0 or self.address_buffer_entries <= 0:
            raise ValueError("FIFO depth and address buffer entries must be positive")


@dataclass(frozen=True)
class MicroarchitectureConfig:
    """Full per-bank configuration (paper Table III)."""

    technology_nm: int = 28
    frequency_mhz: float = 200.0
    int_pe_group: PEGroup = INT32_PE_GROUP
    fp_pe_group: PEGroup = FP32_PE_GROUP
    scratchpad: Scratchpad = field(default_factory=Scratchpad)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    crossbar_area_mm2: float = 0.25
    crossbar_power_mw: float = 40.0
    hash_register_bytes: int = 64
    row_register_bytes: int = 1024  # r0, sized to the global row buffer

    def validate(self) -> None:
        if self.frequency_mhz <= 0:
            raise ValueError("frequency_mhz must be positive")
        self.int_pe_group.validate()
        self.fp_pe_group.validate()
        self.scratchpad.validate()
        self.controller.validate()


class BankMicroarchitecture:
    """Area/power/throughput roll-up for one per-bank Instant-NeRF engine."""

    #: Post-layout numbers reported by the paper (Sec. V-C); the analytic
    #: roll-up below is calibrated to land on these anchors.
    PAPER_AREA_MM2 = 3.6
    PAPER_POWER_MW = 596.3

    def __init__(self, config: MicroarchitectureConfig | None = None):
        self.config = config or MicroarchitectureConfig()
        self.config.validate()

    # -------------------------------------------------------------- area
    def area_mm2(self) -> float:
        """Total area: PE groups + scratchpad + crossbar + controller + registers."""
        cfg = self.config
        register_area = 0.12  # r0 row register + hash registers
        return (
            cfg.int_pe_group.area_mm2
            + cfg.fp_pe_group.area_mm2
            + cfg.scratchpad.area_mm2
            + cfg.crossbar_area_mm2
            + cfg.controller.area_mm2
            + register_area
        )

    def area_fraction_of_bank(self, bank_area_mm2: float = 240.0) -> float:
        """Area overhead relative to one DRAM bank (~1.5% in the paper)."""
        if bank_area_mm2 <= 0:
            raise ValueError("bank_area_mm2 must be positive")
        return self.area_mm2() / bank_area_mm2

    # -------------------------------------------------------------- power
    def power_mw(self, int_activity: float = 1.0, fp_activity: float = 1.0) -> float:
        """Power at the given PE activity factors (defaults: peak, ~596 mW)."""
        if not 0 <= int_activity <= 1 or not 0 <= fp_activity <= 1:
            raise ValueError("activity factors must be in [0, 1]")
        cfg = self.config
        int_group, fp_group = cfg.int_pe_group, cfg.fp_pe_group
        int_power = (
            int_group.peak_ops_per_second * int_activity * int_group.energy_pj_per_op * 1e-12 * 1e3
        )
        fp_power = (
            fp_group.peak_ops_per_second * fp_activity * fp_group.energy_pj_per_op * 1e-12 * 1e3
        )
        spm_bytes_per_s = cfg.scratchpad.bytes_per_cycle * cfg.frequency_mhz * 1e6 * 0.5
        spm_power = spm_bytes_per_s * cfg.scratchpad.energy_pj_per_byte * 1e-12 * 1e3
        static_power = 145.0  # leakage + clock tree at 28 nm
        dynamic = int_power + fp_power + spm_power
        return dynamic + cfg.crossbar_power_mw + cfg.controller.power_mw + static_power

    # --------------------------------------------------------- throughput
    def compute_seconds(self, fp_ops: float, int_ops: float, efficiency: float = 0.8) -> float:
        """Time for a block of work using both PE groups in parallel."""
        fp_time = self.config.fp_pe_group.seconds_for(fp_ops, efficiency) if fp_ops else 0.0
        int_time = self.config.int_pe_group.seconds_for(int_ops, efficiency) if int_ops else 0.0
        # INT32 index calculation overlaps FP32 interpolation/MAC work.
        return max(fp_time, int_time)

    def compute_energy_j(self, fp_ops: float, int_ops: float) -> float:
        cfg = self.config
        return cfg.fp_pe_group.energy_for(fp_ops) + cfg.int_pe_group.energy_for(int_ops)

    # ---------------------------------------------------------- reporting
    def summary(self) -> dict[str, float]:
        """Key microarchitecture numbers for Table III / Sec. V-C."""
        return {
            "technology_nm": float(self.config.technology_nm),
            "frequency_mhz": self.config.frequency_mhz,
            "int32_pes": float(self.config.int_pe_group.num_pes),
            "fp32_pes": float(self.config.fp_pe_group.num_pes),
            "scratchpad_kb": self.config.scratchpad.capacity_bytes / 1024.0,
            "area_mm2": self.area_mm2(),
            "power_mw": self.power_mw(),
            "paper_area_mm2": self.PAPER_AREA_MM2,
            "paper_power_mw": self.PAPER_POWER_MW,
        }
