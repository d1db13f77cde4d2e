"""``verify_cluster`` — static verification of the distributed schedule.

Compiles the cluster blocked-FW schedule to one
:class:`~repro.verifyplan.ir.PlanIR` per rank and proves, without
executing anything:

- **per-rank residency / def-use / redundancy** — the single-device
  analyses (:func:`repro.verifyplan.analyze.audit_ir`) applied to every
  rank's IR;
- **cross-node happens-before** — the vector-clock model checker
  (:func:`repro.verifyplan.hb.analyze_hb`) over every rank's IR, proving
  every inter-node conflicting access ordered in every interleaving,
  every receive matched (no orphaned sends, no deadlocked collective);
- **communication volume** — exact per-link and per-collective byte
  counts against the closed-form 2-D block-cyclic bounds
  (:mod:`repro.verifyplan.commbounds`);
- **timing** — the α–β link-model replay
  (:func:`repro.verifyplan.timing.predict_timing`) yielding the
  predicted makespan and network busy time.

The happens-before and timing passes are the two calls every
``verify_plan`` audit ends with
(:func:`repro.verifyplan.verifier.check_schedule`).

With ``graph`` provided, the dynamic cluster simulator also runs the
same schedule and the verifier asserts the simulated makespan equals the
static prediction exactly and the computed distances equal the
reference Floyd–Warshall solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.cluster.simulate import cluster_fw, default_block_size, emit_cluster_ir
from repro.cluster.topology import BlockCyclicLayout, ClusterSpec
from repro.verifyplan.analyze import PlanFinding, audit_ir
from repro.verifyplan.commbounds import (
    CommReport,
    analyze_comm,
    cluster_comm_checks,
)
from repro.verifyplan.hb import HBReport
from repro.verifyplan.timing import TimingReport
from repro.verifyplan.verifier import check_schedule

__all__ = ["ClusterVerification", "verify_cluster"]


def _fmt_bytes(b: int | float) -> str:
    if b >= 2**20:
        return f"{b / 2**20:.1f} MiB"
    return f"{b / 2**10:.1f} KiB"


@dataclass
class ClusterVerification:
    """Everything proven about one distributed schedule."""

    n: int
    cluster: str
    num_nodes: int
    devices_per_node: int
    grid: tuple[int, int]
    block_size: int
    num_blocks: int
    capacity: int = 0
    peak_bytes: int = 0
    num_ops: int = 0
    num_kernels: int = 0
    findings: list[PlanFinding] = field(default_factory=list)
    hb: HBReport | None = None
    comm: CommReport | None = None
    timing: TimingReport | None = None
    #: populated only when the dynamic simulator cross-validation ran
    cross_validation: dict | None = None

    @property
    def ok(self) -> bool:
        """Clean per-rank audits, ordered and matched in every
        interleaving, exact communication volumes, and (when run) a
        dynamic run agreeing with the static timing and the reference."""
        return (
            not self.findings
            and (self.hb is None or self.hb.ok)
            and (self.comm is None or self.comm.ok)
            and (
                self.cross_validation is None
                or all(self.cross_validation.values())
            )
        )

    def describe(self) -> str:
        head = (
            f"cluster verifier [{self.cluster}]: n={self.n}, grid "
            f"{self.grid[0]}x{self.grid[1]}, block {self.block_size} "
            f"({self.num_blocks} blocks) — "
            + ("VERIFIED" if self.ok else "FAILED")
        )
        lines = [head]
        lines.append(
            f"  residency: peak {_fmt_bytes(self.peak_bytes)} / "
            f"{_fmt_bytes(self.capacity)} per rank, {self.num_ops} ops, "
            f"{self.num_kernels} kernels, {len(self.findings)} finding(s)"
        )
        lines += [f"    {f.describe()}" for f in self.findings]
        if self.hb is not None:
            lines.append(
                f"  hb: {self.hb.num_streams} stream(s), "
                f"{self.hb.num_waits} wait(s) — "
                + ("ordered and matched in every interleaving"
                   if self.hb.ok else f"{len(self.hb.findings)} finding(s)")
            )
            lines += [f"    {f.describe()}" for f in self.hb.findings]
        if self.comm is not None:
            lines.append("  comm: " + self.comm.describe().replace("\n", "\n  "))
        if self.timing is not None:
            lines.append(
                f"  timing: predicted makespan {self.timing.makespan:.3e} s, "
                f"compute {self.timing.compute_seconds:.3e} s, network "
                f"{self.timing.net_seconds:.3e} s"
            )
        if self.cross_validation is not None:
            failed = [k for k, v in self.cross_validation.items() if not v]
            lines.append(
                "  dynamic cross-validation: "
                + (", ".join(k.replace("_", " ") for k in self.cross_validation)
                   if not failed else "MISMATCH in " + ", ".join(failed))
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "cluster": self.cluster,
            "num_nodes": self.num_nodes,
            "devices_per_node": self.devices_per_node,
            "grid": list(self.grid),
            "block_size": self.block_size,
            "num_blocks": self.num_blocks,
            "ok": self.ok,
            "capacity": self.capacity,
            "peak_bytes": self.peak_bytes,
            "num_ops": self.num_ops,
            "num_kernels": self.num_kernels,
            "findings": [
                {**asdict(f), "block": list(f.block) if f.block else None}
                for f in self.findings
            ],
            "hb": self.hb.to_dict() if self.hb is not None else None,
            "comm": self.comm.to_dict() if self.comm is not None else None,
            "timing": self.timing.to_dict() if self.timing is not None else None,
            "cross_validation": self.cross_validation,
        }


def verify_cluster(
    n: int,
    cluster: ClusterSpec,
    *,
    block_size: int | None = None,
    timing: bool = True,
    graph=None,
) -> ClusterVerification:
    """Statically verify the distributed blocked-FW schedule.

    ``n`` is the number of vertices; ``cluster`` fixes the node/device
    topology and interconnect model. Passing a ``graph`` (with
    ``graph.num_vertices == n``) additionally executes the dynamic
    simulator and cross-validates its makespan and distances against the
    static timing and a reference solve.
    """
    if graph is not None and graph.num_vertices != n:
        raise ValueError(
            f"graph has {graph.num_vertices} vertices, expected n={n}"
        )
    if block_size is None:
        block_size = default_block_size(n, cluster)
    layout = BlockCyclicLayout(n=n, block_size=block_size, grid=cluster.grid)
    irs = emit_cluster_ir(n, cluster, block_size=block_size)

    ver = ClusterVerification(
        n=n,
        cluster=cluster.name,
        num_nodes=cluster.num_nodes,
        devices_per_node=cluster.devices_per_node,
        grid=cluster.grid,
        block_size=block_size,
        num_blocks=layout.num_blocks,
        capacity=cluster.device.memory_bytes,
    )
    from repro.verifyplan.ir import KernelOp

    for ir in irs:
        peak, _tally, findings = audit_ir(ir)
        ver.peak_bytes = max(ver.peak_bytes, peak)
        ver.num_ops += ir.num_ops
        ver.num_kernels += sum(
            isinstance(op, KernelOp) and not op.annotate for op in ir.ops
        )
        prefix = cluster.rank_name(ir.rank)
        for f in findings:
            ver.findings.append(
                PlanFinding(
                    kind=f.kind,
                    buffer=f"{prefix}:{f.buffer}",
                    detail=f.detail,
                    op_index=f.op_index,
                    block=f.block,
                    wasted_bytes=f.wasted_bytes,
                )
            )
    ver.hb, ver.timing = check_schedule(
        irs, cluster.device, timing=timing, link_of=cluster.link_of,
        node_names=cluster.node_names(),
    )
    ver.comm = cluster_comm_checks(cluster, layout, analyze_comm(irs))

    if graph is not None:
        from repro.core.blocked_fw import floyd_warshall
        from repro.core.minplus import DIST_DTYPE
        import numpy as np

        result = cluster_fw(graph, cluster, block_size=block_size)
        reference = floyd_warshall(graph.to_dense(dtype=DIST_DTYPE))
        ver.cross_validation = {
            "makespan_exact": (
                ver.timing is None or result.makespan == ver.timing.makespan
            ),
            "distances_exact": bool(np.array_equal(result.dist, reference)),
        }
    return ver
