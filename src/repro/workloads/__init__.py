"""Workload characterisation of iNGP training: batch geometry, per-step
sizes/op-counts (Table II) and hash-table access-trace generation."""

from .batch import PAPER_BATCH, BatchGeometry
from .embedding import EmbeddingStreamSource, EmbeddingTableLayout, EmbeddingTraceConfig
from .steps import BACKWARD_MLP_STEPS, FORWARD_MLP_STEPS, INGPWorkloadModel, StepName, StepWorkload
from .traces import (
    HashTraceGenerator,
    TraceConfig,
    generate_batch_points,
    level_lookup_indices,
)

__all__ = [
    "PAPER_BATCH",
    "BatchGeometry",
    "BACKWARD_MLP_STEPS",
    "EmbeddingStreamSource",
    "EmbeddingTableLayout",
    "EmbeddingTraceConfig",
    "FORWARD_MLP_STEPS",
    "INGPWorkloadModel",
    "StepName",
    "StepWorkload",
    "HashTraceGenerator",
    "TraceConfig",
    "generate_batch_points",
    "level_lookup_indices",
]
