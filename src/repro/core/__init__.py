"""Instant-NeRF core contribution: locality-sensitive hashing, ray-first
streaming, hash-table mapping, inter-bank parallelism and the co-designed
system model.

Only the dependency-free hashing/Morton utilities are imported eagerly.  The
higher-level modules (streaming, mapping, parallelism, codesign) depend on
:mod:`repro.nerf`, :mod:`repro.workloads` and :mod:`repro.accel`, which in
turn import the hashing utilities from this package — importing them lazily
(PEP 562) breaks that cycle while keeping ``repro.core.X`` usable.
"""

from __future__ import annotations

from .hashing import (
    DenseGridIndexer,
    HashFunction,
    IndexDistanceStats,
    MortonLocalityHash,
    OriginalSpatialHash,
    average_row_requests_per_cube,
    average_row_requests_per_cube_reference,
    cube_vertices,
    index_distance_breakdown,
)
from .morton import morton_decode_3d, morton_encode_3d, morton_hash, separate_by_two

#: Symbols resolved lazily to avoid circular imports: name -> submodule.
_LAZY_EXPORTS = {
    # streaming
    "LocalityReport": "streaming",
    "StreamingOrder": "streaming",
    "point_order": "streaming",
    # mapping
    "BankConflictStats": "mapping",
    "HashTableMapper": "mapping",
    "HashTableMappingConfig": "mapping",
    "IntraLevelPolicy": "mapping",
    "default_level_groups": "mapping",
    # parallelism
    "InterBankTraffic": "parallelism",
    "MovementCategory": "parallelism",
    "ParallelismKind": "parallelism",
    "ParallelismPlan": "parallelism",
    "StepPlan": "parallelism",
    "all_data_parallel_plan": "parallelism",
    "all_parameter_parallel_plan": "parallelism",
    "analyze_plan": "parallelism",
    "heterogeneous_plan": "parallelism",
    # codesign
    "AlgorithmConfig": "codesign",
    "InstantNeRFSystem": "codesign",
    "SCENE_DIFFICULTY": "codesign",
}


def __getattr__(name: str) -> object:
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(f".{_LAZY_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(list(globals().keys()) + list(_LAZY_EXPORTS.keys()))


__all__ = [
    "DenseGridIndexer",
    "HashFunction",
    "IndexDistanceStats",
    "MortonLocalityHash",
    "OriginalSpatialHash",
    "average_row_requests_per_cube",
    "average_row_requests_per_cube_reference",
    "cube_vertices",
    "index_distance_breakdown",
    "morton_decode_3d",
    "morton_encode_3d",
    "morton_hash",
    "separate_by_two",
    *sorted(_LAZY_EXPORTS.keys()),
]
