"""Near-memory-processing accelerator model (paper Sec. IV / Fig. 5).

:class:`NMPAccelerator` models the full Instant-NeRF accelerator: an LPDDR4
memory system in which every bank is paired with one
:class:`repro.accel.microarch.BankMicroarchitecture`.  Given the iNGP
training workload, an algorithm configuration (hash locality and streaming
order expressed as request-reduction factors) and an inter-bank parallelism
plan, it estimates per-iteration latency, per-scene training time and energy.

The timing model is phase-based rather than cycle-by-cycle (the paper uses a
Ramulator-extended cycle simulator): each training step is mapped onto the banks according to the
parallelism plan, its row accesses and PE operations are counted, and the
step latency is the slowest bank's memory/compute time plus the inter-bank
transfer time dictated by the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.parallelism import (
    MovementCategory,
    ParallelismPlan,
    analyze_plan,
    heterogeneous_plan,
)
from ..dram.energy import DRAMEnergyModel
from ..dram.spec import DRAMSpec, LPDDR4_2400
from ..obs import get_metrics, get_tracer
from ..workloads.batch import BatchGeometry
from ..workloads.steps import INGPWorkloadModel, StepName
from .microarch import BankMicroarchitecture

if TYPE_CHECKING:  # imported lazily at runtime (repro.mem depends on accel)
    from ..mem.hierarchy import HierarchyStats
    from ..streams.ir import RequestStream

__all__ = ["AlgorithmLocality", "NMPConfig", "StepCost", "IterationCost", "NMPAccelerator"]


@dataclass(frozen=True)
class AlgorithmLocality:
    """How the Instant-NeRF algorithm reduces hash-table memory requests.

    Attributes
    ----------
    row_requests_per_cube:
        Average distinct DRAM rows touched to gather one 3D cube's eight
        embeddings (paper Sec. III-A: 4.02 for the original hash, 1.58 for
        the Morton locality hash).
    cube_sharing_run_length:
        Average number of consecutive streamed points that reuse the same
        cube (Fig. 7(a)); register hits remove their lookups entirely.
    bank_conflict_stall_factor:
        Multiplicative latency penalty from residual bank conflicts after
        the hash-table mapping scheme (1.0 = no stalls).
    """

    row_requests_per_cube: float = 1.58
    cube_sharing_run_length: float = 3.0
    bank_conflict_stall_factor: float = 1.1

    def validate(self) -> None:
        if self.row_requests_per_cube <= 0 or self.cube_sharing_run_length < 1:
            raise ValueError("row_requests_per_cube must be > 0 and cube_sharing_run_length >= 1")
        if self.bank_conflict_stall_factor < 1.0:
            raise ValueError("bank_conflict_stall_factor must be >= 1")

    @classmethod
    def instant_nerf(cls) -> "AlgorithmLocality":
        """Defaults measured for Morton hashing + ray-first streaming."""
        return cls(
            row_requests_per_cube=1.58, cube_sharing_run_length=3.0, bank_conflict_stall_factor=1.1
        )

    @classmethod
    def ingp_baseline(cls) -> "AlgorithmLocality":
        """Defaults for the original iNGP hash with random point order."""
        return cls(
            row_requests_per_cube=4.02, cube_sharing_run_length=1.05, bank_conflict_stall_factor=1.6
        )

    @classmethod
    def from_request_stream(
        cls,
        stream: "RequestStream",
        row_bytes: int = 1024,
        bank_conflict_stall_factor: float = 1.0,
    ) -> "AlgorithmLocality":
        """Locality factors measured from an actual :class:`RequestStream`.

        Replaces the paper's hand-measured constants with the IR's own
        accounting: row requests per charged point from the row-request
        kernel, sharing run length from the stream's reuse groups.  The
        residual ``bank_conflict_stall_factor`` still has to come from the
        mapping analysis (it depends on the bank layout, not the stream).
        """
        from ..core.streaming import row_requests_for_stream, stream_sharing_run_length

        if stream.num_points == 0:
            raise ValueError("cannot measure locality factors from an empty stream")
        charged = int(stream.run_starts().sum())
        requests = row_requests_for_stream(stream, row_bytes=row_bytes)
        return cls(
            row_requests_per_cube=max(requests / charged, 1e-9),
            cube_sharing_run_length=max(stream_sharing_run_length(stream), 1.0),
            bank_conflict_stall_factor=bank_conflict_stall_factor,
        )


@dataclass(frozen=True)
class NMPConfig:
    """System-level configuration of the accelerator."""

    dram: DRAMSpec = field(default_factory=lambda: LPDDR4_2400)
    num_active_banks: int = 16             # one DRAM die: 16 banks, each with a microarchitecture
    plan: ParallelismPlan = field(default_factory=heterogeneous_plan)
    compute_efficiency: float = 0.9        # PE-array utilisation on mapped kernels
    load_imbalance: float = 1.2            # slowest-bank factor after inter-level balancing
    subarray_parallel_speedup: float = 2.0  # row-access overlap from subarray-level parallelism
    interbank_bandwidth_gbps: float | None = None  # defaults to the external LPDDR4 bandwidth

    def validate(self) -> None:
        if self.num_active_banks <= 0:
            raise ValueError("num_active_banks must be positive")
        if not 0 < self.compute_efficiency <= 1:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if self.load_imbalance < 1.0:
            raise ValueError("load_imbalance must be >= 1")
        if self.subarray_parallel_speedup < 1.0:
            raise ValueError("subarray_parallel_speedup must be >= 1")

    @property
    def effective_interbank_bandwidth_gbps(self) -> float:
        if self.interbank_bandwidth_gbps is not None:
            return self.interbank_bandwidth_gbps
        # Inter-bank transfers ride the shared channel I/O: 16 bit x 2400 MT/s
        # per channel, summed over channels, derated for protocol overhead.
        org = self.dram.organization
        per_channel = org.channel_io_bits / 8 * org.clock_mhz * 2 * 1e6 / 1e9
        return 0.8 * per_channel * org.num_channels


@dataclass(frozen=True)
class StepCost:
    """Latency/energy of one training step on the accelerator (one iteration)."""

    name: str
    memory_seconds: float
    compute_seconds: float
    interbank_seconds: float
    energy_j: float

    @property
    def seconds(self) -> float:
        return max(self.memory_seconds, self.compute_seconds) + self.interbank_seconds


@dataclass(frozen=True)
class IterationCost:
    """All steps of one training iteration."""

    steps: dict[str, StepCost]

    @property
    def seconds(self) -> float:
        return sum(step.seconds for step in self.steps.values())

    @property
    def energy_j(self) -> float:
        return sum(step.energy_j for step in self.steps.values())

    def breakdown(self) -> dict[str, float]:
        total = self.seconds
        return {name: step.seconds / total for name, step in self.steps.items()} if total else {}


class NMPAccelerator:
    """Executes the iNGP training workload on the near-bank accelerator."""

    #: Memory-clock cycles for one near-bank row access (precharge + activate
    #: + column access into the r0 register, Table III timings).
    ROW_ACCESS_CYCLES = 14
    #: Additional cycles for the write-back of a modified row (tWR).
    ROW_WRITE_CYCLES = 6

    def __init__(
        self,
        config: NMPConfig | None = None,
        workload: INGPWorkloadModel | None = None,
        locality: AlgorithmLocality | None = None,
        microarch: BankMicroarchitecture | None = None,
        energy_model: DRAMEnergyModel | None = None,
        cache_stats: "HierarchyStats | None" = None,
        sample_fraction: float = 1.0,
    ):
        self.config = config or NMPConfig()
        self.config.validate()
        self.workload = workload or INGPWorkloadModel()
        self.locality = locality or AlgorithmLocality.instant_nerf()
        self.locality.validate()
        self.microarch = microarch or BankMicroarchitecture()
        self.energy_model = energy_model or DRAMEnergyModel()
        self.batch: BatchGeometry = self.workload.batch
        #: Measured :class:`repro.mem.hierarchy.HierarchyStats` of the SRAM
        #: cache tier in front of the banks.  When given, only the cache
        #: misses (plus prefetch fills) of the hash-table streams reach the
        #: row buffers, and the SRAM lookup energy joins the HT step energy.
        self.cache_stats = cache_stats
        if cache_stats is not None and cache_stats.dram_traffic_fraction <= 0:
            raise ValueError("cache_stats must describe a stream with DRAM traffic fraction > 0")
        #: Fraction of the batch's samples that survive occupancy-grid
        #: adaptive marching (1.0 = dense sampling).  Pruned samples skip the
        #: hash-table lookups, the interpolation and the MLPs entirely, so
        #: every per-point memory/compute term scales with it; the
        #: plan-derived inter-bank traffic is kept unscaled (conservative).
        self.sample_fraction = sample_fraction
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")

    @property
    def effective_points_per_iteration(self) -> float:
        """Field-evaluated samples per iteration after occupancy pruning."""
        return self.batch.points_per_iteration * self.sample_fraction

    # ------------------------------------------------------------ hash side
    def _hash_row_accesses_per_iteration(self) -> float:
        """Distinct near-bank row accesses for one iteration of HT lookups."""
        cubes = self.effective_points_per_iteration * self.workload.grid.num_levels
        effective_cubes = cubes / self.locality.cube_sharing_run_length
        rows = effective_cubes * self.locality.row_requests_per_cube
        if self.cache_stats is not None:
            rows *= self.cache_stats.dram_traffic_fraction
        return rows

    def _hash_sram_energy_j(self) -> float:
        """SRAM (scratchpad + cache) energy of one iteration's HT lookups."""
        if self.cache_stats is None:
            return 0.0
        lookups = self.effective_points_per_iteration * self.workload.grid.num_levels * 8
        return lookups * self.cache_stats.energy_per_access_j

    def _row_seconds(self, row_accesses: float, include_write_back: bool = False) -> float:
        write_back_cycles = self.ROW_WRITE_CYCLES if include_write_back else 0
        cycles_per_access = self.ROW_ACCESS_CYCLES + write_back_cycles
        clock_hz = self.config.dram.organization.clock_mhz * 1e6
        per_bank = row_accesses / self.config.num_active_banks
        per_bank *= self.config.load_imbalance * self.locality.bank_conflict_stall_factor
        per_bank /= self.config.subarray_parallel_speedup
        return per_bank * cycles_per_access / clock_hz

    # ----------------------------------------------------------- step costs
    def _interbank_seconds(
        self, step: str, traffic_bytes_by_category: dict[MovementCategory, float]
    ) -> float:
        bandwidth = self.config.effective_interbank_bandwidth_gbps * 1e9
        # Broadcasts (category 1 duplication) go out once over the shared bus
        # and are snooped by every bank, so they cost one tensor transfer, not
        # (banks - 1) copies; the remaining categories are point-to-point.
        duplication = traffic_bytes_by_category.get(MovementCategory.DUPLICATION, 0.0)
        broadcast_bytes = duplication / max(1, self.config.num_active_banks - 1)
        other_bytes = sum(
            value
            for cat, value in traffic_bytes_by_category.items()
            if cat is not MovementCategory.DUPLICATION
        )
        return (broadcast_bytes + other_bytes) / bandwidth

    def step_cost(self, step: str) -> StepCost:
        """Latency/energy of one aggregated step: "HT", "MLP", "MLP_b" or "HT_b"."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._step_cost(step)
        with tracer.span("accel.step", "accel") as span:
            cost = self._step_cost(step)
            # Modeled nanoseconds as the deterministic duration of the span.
            span.set_cycles(int(cost.seconds * 1e9))
            span.add_args(
                step=step,
                memory_s=cost.memory_seconds,
                compute_s=cost.compute_seconds,
                interbank_s=cost.interbank_seconds,
            )
            get_metrics().histogram("accel.step_seconds").observe(cost.seconds)
            return cost

    def _step_cost(self, step: str) -> StepCost:
        if step not in ("HT", "MLP", "MLP_b", "HT_b"):
            raise ValueError(f"unknown step {step!r}")
        cfg = self.config
        wl = self.workload
        traffic = analyze_plan(cfg.plan, wl, num_banks=cfg.num_active_banks).per_step[step]
        interbank_seconds = self._interbank_seconds(step, traffic)

        grid = wl.grid
        points = self.effective_points_per_iteration
        int_ops_ht = points * grid.num_levels * 8 * 12
        fp_ops_interp = points * grid.num_levels * 8 * grid.features_per_entry * 2
        mlp_flops = self.sample_fraction * (
            wl.step(StepName.MLP_DENSITY).fp_ops + wl.step(StepName.MLP_COLOR).fp_ops
        )

        if step == "HT":
            rows = self._hash_row_accesses_per_iteration()
            memory_seconds = self._row_seconds(rows)
            compute_seconds = self.microarch.compute_seconds(
                fp_ops_interp / cfg.num_active_banks,
                int_ops_ht / cfg.num_active_banks,
                cfg.compute_efficiency,
            )
            dynamic_j = self.microarch.compute_energy_j(fp_ops_interp, int_ops_ht)
            dynamic_j += self._hash_sram_energy_j()
            activations = rows
        elif step == "HT_b":
            rows = self._hash_row_accesses_per_iteration()
            memory_seconds = self._row_seconds(rows, include_write_back=True)
            compute_seconds = self.microarch.compute_seconds(
                fp_ops_interp / cfg.num_active_banks,
                int_ops_ht / cfg.num_active_banks,
                cfg.compute_efficiency,
            )
            dynamic_j = self.microarch.compute_energy_j(fp_ops_interp, int_ops_ht)
            dynamic_j += self._hash_sram_energy_j()
            activations = rows
        elif step == "MLP":
            per_bank_flops = mlp_flops / cfg.num_active_banks
            compute_seconds = self.microarch.compute_seconds(
                per_bank_flops, 0.0, cfg.compute_efficiency
            )
            # Activations stream from the local row buffers.
            bytes_per_bank = (
                self.sample_fraction
                * (wl.encoding_output_bytes + wl.mlp_output_bytes)
                / cfg.num_active_banks
            )
            row_buffer_bytes = cfg.dram.organization.row_buffer_bytes
            memory_seconds = self._row_seconds(
                bytes_per_bank / row_buffer_bytes * cfg.num_active_banks
            )
            activations = bytes_per_bank * cfg.num_active_banks / row_buffer_bytes
            dynamic_j = self.microarch.compute_energy_j(mlp_flops, 0.0)
        elif step == "MLP_b":
            backward_flops = 2.0 * mlp_flops
            per_bank_flops = backward_flops / cfg.num_active_banks
            compute_seconds = self.microarch.compute_seconds(
                per_bank_flops, 0.0, cfg.compute_efficiency
            )
            bytes_per_bank = (
                self.sample_fraction
                * (wl.encoding_output_bytes + 2 * wl.mlp_intermediate_bytes)
                / cfg.num_active_banks
            )
            row_buffer_bytes = cfg.dram.organization.row_buffer_bytes
            memory_seconds = self._row_seconds(
                bytes_per_bank / row_buffer_bytes * cfg.num_active_banks
            )
            activations = bytes_per_bank * cfg.num_active_banks / row_buffer_bytes
            dynamic_j = self.microarch.compute_energy_j(backward_flops, 0.0)
        else:
            raise ValueError(f"unknown step {step!r}")

        busy_seconds = max(memory_seconds, compute_seconds) + interbank_seconds
        dram_energy = self.energy_model.energy(
            activations=int(activations),
            bytes_accessed=int(activations * cfg.dram.organization.row_buffer_bytes),
            bytes_on_io=int(sum(traffic.values())),
            elapsed_seconds=busy_seconds,
        )
        static_j = self.static_power_w() * busy_seconds
        return StepCost(
            name=step,
            memory_seconds=memory_seconds,
            compute_seconds=compute_seconds,
            interbank_seconds=interbank_seconds,
            energy_j=dynamic_j + dram_energy.total_j + static_j,
        )

    # --------------------------------------------------------------- totals
    def iteration_cost(self) -> IterationCost:
        steps = {name: self.step_cost(name) for name in ("HT", "MLP", "MLP_b", "HT_b")}
        return IterationCost(steps=steps)

    def scene_training_seconds(self) -> float:
        """Per-scene training time (Fig. 11(a) numerator)."""
        return self.iteration_cost().seconds * self.batch.iterations_per_scene

    def scene_training_energy_j(self) -> float:
        """Per-scene training energy (Fig. 11(b) numerator)."""
        return self.iteration_cost().energy_j * self.batch.iterations_per_scene

    def static_power_w(self) -> float:
        """Leakage + controller power of all active microarchitectures."""
        per_bank_static_mw = 0.25 * self.microarch.power_mw()  # idle fraction of peak
        return per_bank_static_mw * 1e-3 * self.config.num_active_banks

    def average_power_w(self) -> float:
        cost = self.iteration_cost()
        return cost.energy_j / cost.seconds if cost.seconds else 0.0
