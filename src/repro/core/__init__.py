"""The paper's primary contribution: out-of-core GPU APSP.

Three out-of-core implementations (Section III):

* :func:`~repro.core.ooc_fw.ooc_floyd_warshall` — Algorithm 1, the blocked
  Floyd–Warshall streamed block-by-block through device memory;
* :func:`~repro.core.ooc_johnson.ooc_johnson` — Algorithm 2, batched
  multi-source Near-Far SSSP with optional dynamic parallelism;
* :func:`~repro.core.ooc_boundary.ooc_boundary` — Algorithm 3, the
  partition-based boundary algorithm with transfer batching and
  compute/transfer overlap.

Plus the in-core numeric kernels (:mod:`~repro.core.minplus`,
:mod:`~repro.core.blocked_fw`), the block/host-store layer
(:mod:`~repro.core.tiling`), and the :func:`~repro.core.api.solve_apsp`
facade that wires in the Section-IV selector.
"""

from repro.core.api import ALGORITHMS, solve_apsp, solve_apsp_negative
from repro.core.blocked_fw import blocked_floyd_warshall, floyd_warshall, fw_ops
from repro.core.minplus import DIST_DTYPE, minplus, minplus_update
from repro.core.ooc_boundary import (
    BoundaryInfeasibleError,
    BoundaryPlan,
    default_num_components,
    ooc_boundary,
    plan_boundary,
)
from repro.core.multi_gpu import ooc_boundary_multi
from repro.core.ooc_fw import ooc_floyd_warshall, plan_fw_block_size
from repro.core.ooc_johnson import ooc_johnson, plan_batch_size
from repro.core.paths import path_length, reconstruct_path
from repro.core.result import APSPResult
from repro.core.tiling import BlockLayout, HostStore
from repro.core.verify import VerificationReport, verify_result

__all__ = [
    "ALGORITHMS",
    "APSPResult",
    "BlockLayout",
    "BoundaryInfeasibleError",
    "BoundaryPlan",
    "DIST_DTYPE",
    "HostStore",
    "blocked_floyd_warshall",
    "default_num_components",
    "floyd_warshall",
    "fw_ops",
    "minplus",
    "minplus_update",
    "VerificationReport",
    "ooc_boundary",
    "ooc_boundary_multi",
    "ooc_floyd_warshall",
    "ooc_johnson",
    "path_length",
    "plan_batch_size",
    "plan_boundary",
    "plan_fw_block_size",
    "reconstruct_path",
    "solve_apsp",
    "solve_apsp_negative",
    "verify_result",
]
