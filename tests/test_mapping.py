"""Tests for the hash-table-to-DRAM mapping scheme (intra/inter-level)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import MortonLocalityHash
from repro.core.mapping import (
    HashTableMapper,
    HashTableMappingConfig,
    IntraLevelPolicy,
    default_level_groups,
)
from repro.core.streaming import StreamingOrder
from repro.nerf.encoding import HashGridConfig
from repro.pipeline import SimulationContext
from repro.workloads.traces import TraceConfig


def test_default_level_groups_paper_clustering():
    groups = default_level_groups(16)
    assert groups[0] == [0, 1, 2, 3, 4]
    assert groups[1] == [5, 6, 7, 8]
    assert groups[2] == [9, 10]
    # Remaining fine levels get their own group.
    assert [11] in groups and [15] in groups
    flattened = sorted(lvl for group in groups for lvl in group)
    assert flattened == list(range(16))
    with pytest.raises(ValueError):
        default_level_groups(0)


def test_default_level_groups_small_tables():
    groups = default_level_groups(6)
    flattened = sorted(lvl for group in groups for lvl in group)
    assert flattened == list(range(6))


def test_mapping_config_validation():
    with pytest.raises(ValueError):
        HashTableMappingConfig(num_banks=0).validate()
    with pytest.raises(ValueError):
        HashTableMappingConfig(row_bytes=0).validate()
    assert HashTableMappingConfig().entries_per_row == 256


def test_bank_assignment_covers_all_levels():
    grid = HashGridConfig(num_levels=16)
    mapper = HashTableMapper(grid)
    banks = {mapper.bank_of_level(lvl) for lvl in range(16)}
    assert all(0 <= b < 16 for b in banks)
    assert len(banks) >= 3  # grouped levels share banks, fine levels spread out
    with pytest.raises(ValueError):
        mapper.bank_of_level(99)


def test_bank_assignment_without_grouping_round_robins():
    grid = HashGridConfig(num_levels=16)
    mapper = HashTableMapper(
        grid, HashTableMappingConfig(use_inter_level_grouping=False, num_banks=4)
    )
    assert [mapper.bank_of_level(lvl) for lvl in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert mapper.level_groups() == [[lvl] for lvl in range(16)]


def test_locate_interleaved_vs_row_major():
    grid = HashGridConfig(num_levels=16)
    indices = np.arange(0, 256 * 8, 256)  # one index per consecutive row
    interleaved = HashTableMapper(
        grid,
        HashTableMappingConfig(
            intra_level_policy=IntraLevelPolicy.SUBARRAY_INTERLEAVED, subarrays_per_bank=8
        ),
    )
    row_major = HashTableMapper(
        grid,
        HashTableMappingConfig(intra_level_policy=IntraLevelPolicy.ROW_MAJOR, subarrays_per_bank=8),
    )
    _, sub_inter, _ = interleaved.locate(15, indices)
    _, sub_major, _ = row_major.locate(15, indices)
    # Interleaving spreads consecutive rows over all subarrays; row-major keeps them together.
    assert len(np.unique(sub_inter)) == 8
    assert len(np.unique(sub_major)) == 1


def test_locate_bank_and_bounds():
    grid = HashGridConfig(num_levels=16)
    mapper = HashTableMapper(grid)
    bank, subarray, row = mapper.locate(12, np.arange(1000))
    assert np.all(bank == mapper.bank_of_level(12))
    assert np.all((subarray >= 0) & (subarray < mapper.config.subarrays_per_bank))
    assert np.all(row >= 0)


@pytest.fixture(scope="module")
def level_indices():
    grid = HashGridConfig(num_levels=16)
    trace = TraceConfig(num_rays=32, points_per_ray=32, seed=2)
    stream = SimulationContext().request_stream(
        grid, trace, MortonLocalityHash(), StreamingOrder.RAY_FIRST, 15
    )
    return grid, stream.indices.ravel()


def test_subarray_parallelism_reduces_conflicts(level_indices):
    """Fig. 9 shape: more subarrays => fewer residual bank conflicts."""
    grid, indices = level_indices
    conflicts = []
    for subarrays in (1, 4, 16, 64):
        mapper = HashTableMapper(grid, HashTableMappingConfig(subarrays_per_bank=subarrays))
        stats = mapper.count_conflicts(15, indices, parallel_points=32)
        conflicts.append(stats.bank_conflicts)
        assert stats.total_requests == indices.size
        assert 0 <= stats.conflict_rate <= 1
    assert conflicts[0] > conflicts[1] > conflicts[2] >= conflicts[3]
    assert conflicts[3] < 0.2 * conflicts[0]


def test_sequential_conflicts_are_significant_fraction(level_indices):
    """Sec. IV-B: a large share of single-subarray conflicts involve sequential rows."""
    grid, indices = level_indices
    mapper = HashTableMapper(grid, HashTableMappingConfig(subarrays_per_bank=1))
    stats = mapper.count_conflicts(15, indices, parallel_points=32)
    assert stats.bank_conflicts > 0
    assert stats.sequential_fraction > 0.15


def test_count_conflicts_validation(level_indices):
    grid, indices = level_indices
    mapper = HashTableMapper(grid)
    with pytest.raises(ValueError):
        mapper.count_conflicts(15, indices, parallel_points=0)
    with pytest.raises(ValueError):
        mapper.count_conflicts_reference(15, indices, parallel_points=0)


def test_count_conflicts_vectorized_matches_loop_oracle(level_indices):
    """The lexsort-segmented counter must equal the retained nested-loop oracle."""
    grid, indices = level_indices
    rng = np.random.default_rng(9)
    random_indices = rng.integers(0, grid.table_size, size=997)  # non-multiple of group size
    for subarrays in (1, 3, 16):
        for policy in IntraLevelPolicy:
            mapper = HashTableMapper(
                grid,
                HashTableMappingConfig(subarrays_per_bank=subarrays, intra_level_policy=policy),
            )
            for level in (2, 9, 15):
                for batch in (indices, random_indices):
                    for parallel_points in (7, 32):
                        fast = mapper.count_conflicts(level, batch, parallel_points)
                        slow = mapper.count_conflicts_reference(level, batch, parallel_points)
                        assert fast == slow

    empty = HashTableMapper(grid).count_conflicts(15, np.array([], dtype=np.int64))
    assert empty.total_requests == 0 and empty.bank_conflicts == 0


def test_row_major_locate_is_injective_for_non_divisible_levels():
    """Regression: the clamped overflow branch used to alias distinct table
    rows of a non-divisible level onto the same (subarray, row) slot."""
    grid = HashGridConfig(num_levels=16)
    # Level 0 is dense: 17**3 = 4913 entries -> 20 rows, not divisible by 16.
    mapper = HashTableMapper(
        grid,
        HashTableMappingConfig(
            intra_level_policy=IntraLevelPolicy.ROW_MAJOR, subarrays_per_bank=16
        ),
    )
    level = 0
    entries_per_row = mapper.config.entries_per_row
    level_rows = -(-grid.level_table_entries(level) // entries_per_row)
    assert level_rows % mapper.config.subarrays_per_bank != 0
    indices = np.arange(level_rows) * entries_per_row  # one index per distinct row
    _, subarray, row = mapper.locate(level, indices)
    assert np.all(subarray < mapper.config.subarrays_per_bank)
    slots = set(zip(subarray.tolist(), row.tolist()))
    assert len(slots) == level_rows  # distinct linear rows -> distinct slots
