"""Distributed block-APSP: N nodes × M devices with a modeled fabric.

The paper scales APSP to one out-of-core device; this package models the
next step — a cluster of ``N`` nodes × ``M`` devices over an α–β
interconnect — and, in the spirit of the rest of the repository, ships
the **static verification layer** alongside the simulator:

- :mod:`~repro.cluster.topology` — nodes, links, process grid, and the
  2-D block-cyclic ownership layout;
- :mod:`~repro.cluster.simulate` — the distributed schedule, written
  once over one emitter per rank: :func:`cluster_fw` runs it (real
  numerics + modeled clocks) and :func:`emit_cluster_ir` compiles it to
  one IR per rank, so they agree by construction;
- :mod:`~repro.cluster.verify` — :func:`verify_cluster`, proving the
  schedule race/deadlock-free across nodes, its per-link byte counts
  equal to the closed-form 2-D block-cyclic bounds, and its predicted
  makespan equal to the simulator's.

Entry point: ``python -m repro verify-cluster``.
"""

from repro.cluster.simulate import (
    ClusterResult,
    cluster_fw,
    default_block_size,
    emit_cluster_ir,
)
from repro.cluster.topology import (
    DEFAULT_INTER_LINK,
    DEFAULT_INTRA_LINK,
    BlockCyclicLayout,
    ClusterSpec,
    combine_cost,
    near_square_grid,
    slice_widths,
)
from repro.cluster.verify import verify_cluster

__all__ = [
    "DEFAULT_INTER_LINK",
    "DEFAULT_INTRA_LINK",
    "BlockCyclicLayout",
    "ClusterResult",
    "ClusterSpec",
    "cluster_fw",
    "combine_cost",
    "default_block_size",
    "emit_cluster_ir",
    "near_square_grid",
    "slice_widths",
    "verify_cluster",
]
