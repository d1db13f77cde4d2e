"""``verify_cluster`` — static verification of the distributed schedule.

Compiles the cluster blocked-FW schedule to one
:class:`~repro.verifyplan.ir.PlanIR` per rank and proves it with the
audit every schedule verifier shares
(:func:`repro.verifyplan.verifier.audit_schedule`), without executing
anything:

- **per-rank residency / def-use / redundancy** — the single-device
  analyses (:func:`repro.verifyplan.analyze.audit_ir`) applied to every
  rank's IR, findings named by rank;
- **cross-node happens-before** — the vector-clock model checker
  (:func:`repro.verifyplan.hb.analyze_hb`) over every rank's IR, proving
  every inter-node conflicting access ordered in every interleaving,
  every receive matched (no orphaned sends, no deadlocked collective);
- **communication volume** — exact per-link and per-collective byte
  counts against the closed-form 2-D block-cyclic bounds
  (:mod:`repro.verifyplan.commbounds`), the audit's bounds;
- **timing** — the α–β link-model replay
  (:func:`repro.verifyplan.timing.predict_timing`) yielding the
  predicted makespan and network busy time.

With ``graph`` provided, the dynamic cluster simulator also runs the
same schedule, and two named checks assert the simulated makespan equals
the static prediction exactly and the computed distances equal the
reference Floyd–Warshall solve.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.simulate import cluster_fw, default_block_size, emit_cluster_ir
from repro.cluster.topology import BlockCyclicLayout, ClusterSpec
from repro.verifyplan.commbounds import analyze_comm, cluster_comm_checks
from repro.verifyplan.ir import KernelOp
from repro.verifyplan.verifier import Check, Verification, audit_schedule

__all__ = ["verify_cluster"]


def verify_cluster(
    n: int,
    cluster: ClusterSpec,
    *,
    block_size: int | None = None,
    graph=None,
) -> Verification:
    """Statically verify the distributed blocked-FW schedule.

    ``n`` is the number of vertices; ``cluster`` fixes the node/device
    topology and interconnect model. The one audit, ``"cluster-fw"``,
    carries the grid, the block size and the message totals as its
    parameters. Passing a ``graph`` (with ``graph.num_vertices == n``)
    additionally executes the dynamic simulator and cross-validates its
    makespan and distances against the static timing and a reference
    solve.
    """
    if graph is not None and graph.num_vertices != n:
        raise ValueError(
            f"graph has {graph.num_vertices} vertices, expected n={n}"
        )
    if block_size is None:
        block_size = default_block_size(n, cluster)
    layout = BlockCyclicLayout(n=n, block_size=block_size, grid=cluster.grid)
    irs = emit_cluster_ir(n, cluster, block_size=block_size)
    comm = analyze_comm(irs)
    audit = audit_schedule(
        "cluster-fw", irs, cluster.device,
        parameters={
            "grid": list(cluster.grid),
            "block_size": block_size,
            "num_blocks": layout.num_blocks,
            "num_kernels": sum(
                isinstance(op, KernelOp) and not op.annotate
                for ir in irs for op in ir.ops
            ),
            "num_messages": comm.num_messages,
            "total_bytes": comm.total_bytes,
        },
        bounds=lambda _tally: cluster_comm_checks(cluster, layout, comm),
        link_of=cluster.link_of,
        node_names=cluster.node_names(),
    )
    if graph is not None:
        from repro.core.blocked_fw import floyd_warshall
        from repro.core.minplus import DIST_DTYPE

        result = cluster_fw(graph, cluster, block_size=block_size)
        reference = floyd_warshall(graph.to_dense(dtype=DIST_DTYPE))
        assert audit.timing is not None
        audit.checks = [
            Check("makespan-exact", result.makespan == audit.timing.makespan,
                  "simulated makespan == predicted makespan"),
            Check("distances-exact", bool(np.array_equal(result.dist, reference)),
                  "simulated distances == reference Floyd–Warshall"),
        ]
    return Verification(
        f"cluster verifier [{cluster.name}]: n={n}, {cluster.num_nodes} node(s) "
        f"x {cluster.devices_per_node} device(s)",
        {"n": n, "cluster": cluster.name, "num_nodes": cluster.num_nodes,
         "devices_per_node": cluster.devices_per_node},
        {audit.name: audit},
    )
