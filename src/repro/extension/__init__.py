"""Seed-extension substrate: DP aligners and the systolic cycle model."""

from repro.extension.scoring import (
    BWA_MEM_SCORING,
    DARWIN_SCORING,
    ScoringScheme,
)
from repro.extension.alignment import Alignment, Cigar, identity
from repro.extension.smith_waterman import (
    alignment_from_matrices,
    fill_matrices,
    fill_matrices_scalar,
    smith_waterman,
)
from repro.extension.needleman_wunsch import extend, needleman_wunsch
from repro.extension.bitap import (
    best_semi_global_distance,
    bitap_exact_positions,
    bitap_search,
    edit_distance,
    genasm_latency,
    myers_distances,
)
from repro.extension.systolic import (
    BlockSchedule,
    SystolicArray,
    block_schedule,
    gact_tiled_latency,
    matrix_fill_latency,
    optimal_pe_count,
    traceback_latency,
)

__all__ = [
    "BWA_MEM_SCORING", "DARWIN_SCORING", "ScoringScheme",
    "Alignment", "Cigar", "identity",
    "alignment_from_matrices", "fill_matrices", "fill_matrices_scalar",
    "smith_waterman",
    "extend", "needleman_wunsch",
    "best_semi_global_distance", "bitap_exact_positions", "bitap_search",
    "edit_distance", "genasm_latency", "myers_distances",
    "BlockSchedule", "SystolicArray", "block_schedule", "gact_tiled_latency",
    "matrix_fill_latency", "optimal_pe_count", "traceback_latency",
]
