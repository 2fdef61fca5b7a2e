"""Table III and Sec. V-C: accelerator configuration, area and power."""

from __future__ import annotations

from ..accel.microarch import BankMicroarchitecture
from ..dram.spec import DRAMSpec, LPDDR4_2400, get_dram_spec
from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from .runner import ExperimentResult

__all__ = ["run_tab03"]


def run_tab03(
    microarch: BankMicroarchitecture | None = None,
    dram_spec: DRAMSpec | None = None,
    dram_name: str = "LPDDR4-2400",
) -> ExperimentResult:
    """Reproduce Table III (configuration) and the Sec. V-C area/power numbers."""
    microarch = microarch or BankMicroarchitecture()
    spec = dram_spec or LPDDR4_2400
    org = spec.organization
    timing = spec.timing
    summary = microarch.summary()
    rows = [
        {"parameter": "DRAM type", "value": dram_name},
        {"parameter": "Total capacity (GB)", "value": org.total_capacity_bytes / 1024**3},
        {"parameter": "I/O interface (bits)", "value": org.io_width_bits},
        {"parameter": "Channels", "value": org.num_channels},
        {"parameter": "Banks per chip", "value": org.banks_per_chip},
        {"parameter": "Subarrays per bank", "value": org.subarrays_per_bank},
        {"parameter": "Row buffer (KB)", "value": org.row_buffer_bytes / 1024},
        {"parameter": "Peak ext. bandwidth (GB/s)", "value": org.peak_bandwidth_gbps},
        {
            "parameter": "tRCD / tRP / tRAS / tCCD",
            "value": f"{timing.tRCD}/{timing.tRP}/{timing.tRAS}/{timing.tCCD}",
        },
        {"parameter": "tRRD / tFAW / tWR", "value": f"{timing.tRRD}/{timing.tFAW}/{timing.tWR}"},
        {"parameter": "Microarch technology (nm)", "value": summary["technology_nm"]},
        {"parameter": "Microarch frequency (MHz)", "value": summary["frequency_mhz"]},
        {"parameter": "INT32 PEs per bank", "value": summary["int32_pes"]},
        {"parameter": "FP32 PEs per bank", "value": summary["fp32_pes"]},
        {"parameter": "Scratchpad (KB)", "value": summary["scratchpad_kb"]},
        {"parameter": "Area per bank (mm^2, modelled)", "value": summary["area_mm2"]},
        {"parameter": "Area per bank (mm^2, paper)", "value": summary["paper_area_mm2"]},
        {"parameter": "Power per bank (mW, modelled)", "value": summary["power_mw"]},
        {"parameter": "Power per bank (mW, paper)", "value": summary["paper_power_mw"]},
        {"parameter": "Area fraction of a DRAM bank", "value": microarch.area_fraction_of_bank()},
    ]
    return ExperimentResult(
        experiment_id="Table III",
        description="Instant-NeRF accelerator parameters, area and power",
        rows=rows,
        notes=(
            "Paper: 3.6 mm^2 (1.5% of a bank) and 596.3 mW per microarchitecture "
            "at 28 nm / 200 MHz."
        ),
    )


@register_experiment(
    "tab03",
    paper_ref="Table III",
    title="Accelerator configuration, area and power",
    params=(
        ParamSpec("dram", str, "lpddr4-2400", help="DRAM spec to list the organization of"),
    ),
)
def tab03_experiment(ctx: SimulationContext, *, dram: str) -> ExperimentResult:
    return run_tab03(dram_spec=get_dram_spec(dram), dram_name=dram.upper())
