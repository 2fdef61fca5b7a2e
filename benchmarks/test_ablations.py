"""Ablation benchmarks beyond the paper's headline figures.

These sweeps exercise the number of NMP banks, the subarray-parallelism
factor, and the two algorithmic techniques in isolation.
"""

from __future__ import annotations

from repro.accel import AlgorithmLocality, NMPAccelerator, NMPConfig
from repro.core.hashing import MortonLocalityHash, OriginalSpatialHash
from repro.core.streaming import StreamingOrder, row_requests_for_stream
from repro.nerf.encoding import HashGridConfig
from repro.pipeline import SimulationContext
from repro.workloads.traces import TraceConfig


def test_ablation_bank_count_sweep(benchmark):
    """Scene training time vs number of active NMP banks (parallel scaling)."""

    def sweep():
        return {
            banks: NMPAccelerator(NMPConfig(num_active_banks=banks)).scene_training_seconds()
            for banks in (4, 8, 16, 32, 64)
        }

    times = benchmark(sweep)
    print("\nbanks -> s/scene:", {k: round(v, 1) for k, v in times.items()})
    values = list(times.values())
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
    # Diminishing returns: 16 -> 64 banks gains less than 4 -> 16 banks.
    assert times[4] / times[16] > times[16] / times[64]


def test_ablation_subarray_speedup_sweep(benchmark):
    """Scene training time vs the subarray-parallelism overlap factor."""

    def sweep():
        return {
            factor: NMPAccelerator(
                NMPConfig(subarray_parallel_speedup=factor)
            ).scene_training_seconds()
            for factor in (1.0, 1.5, 2.0, 3.0)
        }

    times = benchmark(sweep)
    print("\nsubarray speedup -> s/scene:", {k: round(v, 1) for k, v in times.items()})
    values = list(times.values())
    assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))


def test_ablation_hash_and_order_in_isolation(benchmark):
    """Decompose the Fig. 7(b) gain into hash-only and order-only parts."""
    grid = HashGridConfig(num_levels=8, table_size=2**14, max_resolution=1024)
    trace = TraceConfig(num_rays=48, points_per_ray=48, seed=0)
    level = 5

    def measure():
        ctx = SimulationContext()  # emit the streams afresh in every round
        return tuple(
            row_requests_for_stream(ctx.request_stream(grid, trace, hash_fn, order, level))
            for hash_fn, order in (
                (OriginalSpatialHash(), StreamingOrder.RANDOM),  # baseline
                (MortonLocalityHash(), StreamingOrder.RANDOM),  # hash only
                (OriginalSpatialHash(), StreamingOrder.RAY_FIRST),  # order only
                (MortonLocalityHash(), StreamingOrder.RAY_FIRST),  # combined
            )
        )

    baseline, hash_only, order_only, combined = benchmark(measure)
    print(
        f"\nrow requests: baseline={baseline} hash-only={hash_only} "
        f"order-only={order_only} combined={combined}"
    )
    assert hash_only < baseline
    assert order_only < baseline
    assert combined <= min(hash_only, order_only)


def test_ablation_locality_parameters(benchmark):
    """Accelerator sensitivity to the algorithm's locality statistics."""

    def sweep():
        results = {}
        for requests_per_cube in (1.58, 2.5, 4.02):
            locality = AlgorithmLocality(
                row_requests_per_cube=requests_per_cube,
                cube_sharing_run_length=2.0,
                bank_conflict_stall_factor=1.2,
            )
            results[requests_per_cube] = NMPAccelerator(locality=locality).scene_training_seconds()
        return results

    times = benchmark(sweep)
    print("\nrequests/cube -> s/scene:", {k: round(v, 1) for k, v in times.items()})
    assert times[1.58] < times[2.5] < times[4.02]
