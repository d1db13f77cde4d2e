"""Dynamic-graph APSP: incremental updates with static O(n²) proofs.

The patch engine (:mod:`repro.dynamic.patch`) applies batched edge
mutations to a solved distance matrix — rank-1 min-plus sweeps for
decreases, SSSP affected-region recomputation for increases — through
one schedule per pass, run on a simulated device and compiled to a
symbolic :class:`~repro.verifyplan.ir.PlanIR`. The static proof layer lives in
:mod:`repro.verifyplan.updatebounds` and the ``repro verify-update``
driver in :mod:`repro.dynamic.verify`; :mod:`repro.dynamic.cache`
revalidates content-hash keyed closure caches instead of discarding
them. This package is the only place solved distance matrices and graph
weight arrays may be mutated in place (lint rule RPR011).
"""

from repro.dynamic.cache import DistanceCache
from repro.dynamic.patch import (
    DynamicAPSP,
    EdgeUpdate,
    PatchPass,
    UpdatePlan,
    UpdateResult,
    apply_edge_updates,
    emit_update_ir,
)
from repro.dynamic.verify import DEFAULT_UPDATE_CONFIGS, seed_defect, verify_update

__all__ = [
    "DEFAULT_UPDATE_CONFIGS",
    "DistanceCache",
    "DynamicAPSP",
    "EdgeUpdate",
    "PatchPass",
    "UpdatePlan",
    "UpdateResult",
    "apply_edge_updates",
    "emit_update_ir",
    "seed_defect",
    "verify_update",
]
