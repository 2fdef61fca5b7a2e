"""Processing-element (PE) group models.

Each per-bank Instant-NeRF microarchitecture contains two PE groups
(Table III: 256 INT32 PEs + 256 FP32 PEs at 200 MHz).  The INT32 group
executes the hash-index calculations; the FP32 group executes trilinear
interpolation, the MLP MACs and the gradient math.  The model exposes
throughput (ops/second), per-op energy and area so the microarchitecture can
roll them up.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PEGroup", "INT32_PE_GROUP", "FP32_PE_GROUP"]


@dataclass(frozen=True)
class PEGroup:
    """A SIMD group of identical processing elements.

    Attributes
    ----------
    name:
        Human-readable name (``int32`` / ``fp32``).
    num_pes:
        Number of parallel lanes.
    frequency_mhz:
        Clock frequency.
    ops_per_pe_per_cycle:
        Operations each lane retires per cycle (1 for a simple ALU/MAC).
    energy_pj_per_op:
        Dynamic energy per operation (28 nm-class estimates).
    area_mm2:
        Area of the whole group.
    """

    name: str
    num_pes: int = 256
    frequency_mhz: float = 200.0
    ops_per_pe_per_cycle: float = 1.0
    energy_pj_per_op: float = 1.0
    area_mm2: float = 1.0

    def validate(self) -> None:
        if self.num_pes <= 0:
            raise ValueError("num_pes must be positive")
        if self.frequency_mhz <= 0:
            raise ValueError("frequency_mhz must be positive")
        if self.ops_per_pe_per_cycle <= 0:
            raise ValueError("ops_per_pe_per_cycle must be positive")

    @property
    def peak_ops_per_second(self) -> float:
        return self.num_pes * self.frequency_mhz * 1e6 * self.ops_per_pe_per_cycle

    def cycles_for(self, num_ops: float, efficiency: float = 1.0) -> float:
        """Cycles needed to execute ``num_ops`` operations on this group."""
        if num_ops < 0:
            raise ValueError("num_ops must be non-negative")
        if not 0 < efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        ops_per_cycle = self.num_pes * self.ops_per_pe_per_cycle * efficiency
        return num_ops / ops_per_cycle

    def seconds_for(self, num_ops: float, efficiency: float = 1.0) -> float:
        return self.cycles_for(num_ops, efficiency) / (self.frequency_mhz * 1e6)

    def energy_for(self, num_ops: float) -> float:
        """Dynamic energy in joules for ``num_ops`` operations."""
        if num_ops < 0:
            raise ValueError("num_ops must be non-negative")
        return num_ops * self.energy_pj_per_op * 1e-12


#: Paper Table III configuration: 256 INT32 PEs per bank at 200 MHz.  The
#: per-op energy is a 28 nm estimate for an INT32 ALU op including operand
#: movement from the local register file.
INT32_PE_GROUP = PEGroup(
    name="int32", num_pes=256, frequency_mhz=200.0, energy_pj_per_op=2.0, area_mm2=0.9
)

#: Paper Table III configuration: 256 FP32 PEs per bank at 200 MHz.  The
#: mixed-precision datapath processes FP16 operands two per lane and fuses
#: multiply-accumulate, so each PE retires 4 FLOPs per cycle on MLP work;
#: the per-op energy corresponds to one such FP16 lane operation at 28 nm.
FP32_PE_GROUP = PEGroup(
    name="fp32",
    num_pes=256,
    frequency_mhz=200.0,
    ops_per_pe_per_cycle=4.0,
    energy_pj_per_op=1.3,
    area_mm2=1.8,
)
