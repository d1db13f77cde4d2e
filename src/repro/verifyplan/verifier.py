"""``verify_plan`` — the static plan verifier's public entry point.

For a graph/device pair, compile every algorithm's execution plan to a
symbolic :class:`~repro.verifyplan.ir.PlanIR` (via the drivers'
``emit_*_ir`` functions, which run the schedule each driver executes),
run the liveness / def-use / redundancy analyses, and check the moved
bytes against the paper's closed-form bounds — all in milliseconds,
before anything executes. Feasibility and the derived parameters agree
with :func:`repro.core.planner.explain_plan` by construction (both call
the same planning functions).

The result is a :class:`PlanVerification`: one :class:`PlanAudit` per
algorithm with the proven peak residency, transfer volumes, wasted bytes,
findings, and bound checks. ``python -m repro verify-plan`` prints it
(``--json`` for the machine-readable form) and exits non-zero when any
feasible plan fails verification.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.verifyplan.analyze import PlanFinding, TransferTally, audit_ir
from repro.verifyplan.bounds import (
    DEFAULT_TOLERANCE,
    BoundCheck,
    boundary_bound_checks,
    fw_bound_checks,
    johnson_bound_checks,
    multi_bound_checks,
)
from repro.verifyplan.hb import HBReport, analyze_hb
from repro.verifyplan.ir import PlanIR
from repro.verifyplan.timing import TimingCalibration, TimingReport, predict_timing

__all__ = [
    "ALGORITHM_NAMES",
    "PlanAudit",
    "PlanVerification",
    "check_schedule",
    "verify_plan",
]

#: canonical algorithm keys, in report order
ALGORITHM_NAMES = ("floyd-warshall", "johnson", "boundary", "multi-gpu")

_ALIASES = {"fw": "floyd-warshall", "floyd_warshall": "floyd-warshall"}


def _fmt_bytes(b: int | float) -> str:
    if b >= 2**20:
        return f"{b / 2**20:.1f} MiB"
    return f"{b / 2**10:.1f} KiB"


@dataclass
class PlanAudit:
    """Everything the verifier proved about one algorithm's plan."""

    algorithm: str
    feasible: bool
    reason: str = ""
    parameters: dict = field(default_factory=dict)
    capacity: int = 0
    peak_bytes: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    num_h2d: int = 0
    num_d2h: int = 0
    num_ops: int = 0
    redundant_bytes: int = 0
    findings: list[PlanFinding] = field(default_factory=list)
    bounds: list[BoundCheck] = field(default_factory=list)
    hb: HBReport | None = None
    timing: TimingReport | None = None

    @property
    def verified(self) -> bool:
        """Feasible, no findings, every closed-form bound holds, and the
        happens-before check (race/deadlock/dead-event freedom) is clean."""
        return (
            self.feasible
            and not self.findings
            and all(b.ok for b in self.bounds)
            and (self.hb is None or self.hb.ok)
        )

    def describe(self) -> str:
        if not self.feasible:
            return f"{self.algorithm}: infeasible — {self.reason}"
        status = "VERIFIED" if self.verified else "FAILED"
        head = (
            f"{self.algorithm}: {status} — peak {_fmt_bytes(self.peak_bytes)} / "
            f"{_fmt_bytes(self.capacity)}, h2d {_fmt_bytes(self.bytes_h2d)} "
            f"({self.num_h2d} copies), d2h {_fmt_bytes(self.bytes_d2h)} "
            f"({self.num_d2h} copies), {self.redundant_bytes} redundant B, "
            f"{sum(b.ok for b in self.bounds)}/{len(self.bounds)} bounds ok"
        )
        lines = [head]
        lines += [f"    {f.describe()}" for f in self.findings]
        lines += [f"    {b.describe()}" for b in self.bounds if not b.ok]
        if self.hb is not None:
            hb_head = (
                f"hb: {self.hb.num_streams} stream(s), {self.hb.num_events} "
                f"event(s), {self.hb.num_waits} wait(s) — "
                + ("race/deadlock-free" if self.hb.ok
                   else f"{len(self.hb.findings)} finding(s)")
            )
            lines.append(f"    {hb_head}")
            lines += [f"      {f.describe()}" for f in self.hb.findings]
        if self.timing is not None:
            lines.append(
                f"    timing: predicted makespan {self.timing.makespan:.3e} s, "
                f"compute {self.timing.compute_seconds:.3e} s, overlap "
                f"efficiency {self.timing.overlap_efficiency:.0%}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "feasible": self.feasible,
            "verified": self.verified,
            "reason": self.reason,
            "parameters": dict(self.parameters),
            "capacity": self.capacity,
            "peak_bytes": self.peak_bytes,
            "bytes_h2d": self.bytes_h2d,
            "bytes_d2h": self.bytes_d2h,
            "num_h2d": self.num_h2d,
            "num_d2h": self.num_d2h,
            "num_ops": self.num_ops,
            "redundant_bytes": self.redundant_bytes,
            "findings": [
                {**asdict(f), "block": list(f.block) if f.block else None}
                for f in self.findings
            ],
            "bounds": [asdict(b) | {"ok": b.ok} for b in self.bounds],
            "hb": self.hb.to_dict() if self.hb is not None else None,
            "timing": self.timing.to_dict() if self.timing is not None else None,
        }


@dataclass
class PlanVerification:
    """Audits of every requested algorithm for one graph/device pair."""

    n: int
    m: int
    device: str
    audits: dict[str, PlanAudit] = field(default_factory=dict)

    @property
    def feasible_audits(self) -> list[PlanAudit]:
        return [a for a in self.audits.values() if a.feasible]

    @property
    def ok(self) -> bool:
        """At least one plan is feasible and every feasible plan verifies."""
        feasible = self.feasible_audits
        return bool(feasible) and all(a.verified for a in feasible)

    def describe(self) -> str:
        lines = [
            f"plan verifier [{self.device}]: graph n={self.n}, m={self.m} — "
            + ("all feasible plans verified" if self.ok else "verification FAILED")
        ]
        lines += ["  " + a.describe() for a in self.audits.values()]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "device": self.device,
            "ok": self.ok,
            "audits": {name: a.to_dict() for name, a in self.audits.items()},
        }


def _merge_audit(
    audit: PlanAudit, peak: int, tally: TransferTally, findings: list[PlanFinding]
) -> None:
    audit.peak_bytes = max(audit.peak_bytes, peak)
    audit.bytes_h2d += tally.bytes_h2d
    audit.bytes_d2h += tally.bytes_d2h
    audit.num_h2d += tally.num_h2d
    audit.num_d2h += tally.num_d2h
    audit.redundant_bytes += tally.redundant_bytes
    audit.findings.extend(findings)


def check_schedule(
    irs: list[PlanIR],
    spec,
    *,
    timing: bool,
    calibration: TimingCalibration | None = None,
    link_of=None,
    node_names: dict[int, str] | None = None,
) -> tuple[HBReport, TimingReport | None]:
    """The two whole-schedule checks every audit ends with: the
    happens-before closure of ``irs`` and, with ``timing``, their replay
    (``link_of`` and ``node_names`` as for cluster schedules)."""
    hb = analyze_hb(irs, node_names=node_names)
    if not timing:
        return hb, None
    return hb, predict_timing(irs, spec, link_of=link_of, calibration=calibration)


def _audit_fw(
    graph, spec, overlap: bool, tolerance: float
) -> tuple[PlanAudit, list[PlanIR]]:
    from repro.core.ooc_fw import emit_fw_ir, plan_fw_block_size
    from repro.core.tiling import BlockLayout
    from repro.gpu.errors import OutOfMemoryError

    n = graph.num_vertices
    audit = PlanAudit("floyd-warshall", True, capacity=spec.memory_bytes)
    try:
        b = plan_fw_block_size(n, spec, overlap=overlap)
    except (ValueError, OutOfMemoryError) as exc:  # pragma: no cover - tiny devices
        return PlanAudit("floyd-warshall", False, reason=str(exc)), []
    layout = BlockLayout(n, b)
    nd = layout.num_blocks
    audit.parameters = {"block_size": b, "num_blocks": nd}
    ir = emit_fw_ir(n, spec, block_size=b, overlap=overlap)
    audit.num_ops = ir.num_ops
    _merge_audit(audit, *audit_ir(ir))
    audit.bounds = fw_bound_checks(
        n, nd, audit.bytes_h2d, audit.bytes_d2h, tolerance=tolerance,
        block_sizes=[layout.size(i) for i in range(nd)], overlap=overlap,
    )
    return audit, [ir]


def _audit_johnson(
    graph, spec, overlap: bool, timing: bool
) -> tuple[PlanAudit, list[PlanIR]]:
    from repro.core.ooc_johnson import (
        collect_mssp_workloads,
        emit_johnson_ir,
        plan_batch_size,
    )
    from repro.gpu.errors import OutOfMemoryError

    n, m = graph.num_vertices, graph.num_edges
    audit = PlanAudit("johnson", True, capacity=spec.memory_bytes)
    nbuf = 2 if overlap else 1
    try:
        bat = plan_batch_size(graph, spec, num_row_buffers=nbuf)
    except OutOfMemoryError as exc:
        return PlanAudit("johnson", False, reason=str(exc)), []
    bat = max(1, min(bat, n))
    audit.parameters = {"batch_size": bat, "num_batches": -(-n // bat)}
    # the symbolic timing pass needs the per-batch MSSP workloads (the
    # kernel cost is workload-dependent); skip the CPU-side frontier
    # simulation when timing was not requested
    workloads = (
        collect_mssp_workloads(graph, batch_size=bat) if timing else None
    )
    ir = emit_johnson_ir(
        graph, spec, batch_size=bat, overlap=overlap, workloads=workloads
    )
    audit.num_ops = ir.num_ops
    _merge_audit(audit, *audit_ir(ir))
    audit.bounds = johnson_bound_checks(
        n, m, bat, audit.bytes_h2d, audit.bytes_d2h, audit.num_d2h
    )
    return audit, [ir]


def _audit_boundary(
    graph, spec, overlap: bool, batch_transfers: bool, seed: int
) -> tuple[PlanAudit, list[PlanIR]]:
    from repro.core.ooc_boundary import (
        BoundaryInfeasibleError,
        emit_boundary_ir,
        plan_boundary,
    )

    n = graph.num_vertices
    audit = PlanAudit("boundary", True, capacity=spec.memory_bytes)
    try:
        plan = plan_boundary(
            graph, spec, batch_transfers=batch_transfers, overlap=overlap, seed=seed
        )
    except BoundaryInfeasibleError as exc:
        return PlanAudit("boundary", False, reason=exc.detail), []
    batched = batch_transfers and plan.n_row >= 1
    audit.parameters = {
        "num_components": plan.num_components,
        "num_boundary": plan.num_boundary,
        "max_component": plan.max_component,
        "n_row": plan.n_row,
        "buffers": plan.num_buffers,
        "batched": batched,
    }
    ir = emit_boundary_ir(
        graph, spec, plan=plan, batch_transfers=batch_transfers, overlap=overlap
    )
    audit.num_ops = ir.num_ops
    peak, tally, findings = audit_ir(ir)
    _merge_audit(audit, peak, tally, findings)
    flushes = tally.d2h_by_key.get("host-rows", 0) + tally.d2h_by_key.get("host-block", 0)
    audit.bounds = boundary_bound_checks(
        plan, n, audit.bytes_h2d, audit.bytes_d2h, flushes, batched=batched
    )
    return audit, [ir]


def _audit_multi(
    graph, spec, num_devices: int, seed: int
) -> tuple[PlanAudit, list[PlanIR]]:
    from repro.core.multi_gpu import emit_multi_ir
    from repro.core.ooc_boundary import BoundaryInfeasibleError, plan_boundary

    n = graph.num_vertices
    audit = PlanAudit("multi-gpu", True, capacity=spec.memory_bytes)
    try:
        plan = plan_boundary(graph, spec, seed=seed)
    except BoundaryInfeasibleError as exc:
        return PlanAudit("multi-gpu", False, reason=exc.detail), []
    audit.parameters = {
        "num_devices": num_devices,
        "num_components": plan.num_components,
        "num_boundary": plan.num_boundary,
        "max_component": plan.max_component,
    }
    irs = emit_multi_ir(graph, spec, num_devices, plan=plan)
    for ir in irs:
        audit.num_ops += ir.num_ops
        _merge_audit(audit, *audit_ir(ir))
    audit.bounds = multi_bound_checks(
        plan, n, num_devices, audit.bytes_h2d, audit.bytes_d2h
    )
    return audit, irs


def verify_plan(
    graph,
    spec,
    *,
    algorithms=None,
    seed: int = 0,
    overlap: bool = True,
    batch_transfers: bool = True,
    num_devices: int = 2,
    tolerance: float = DEFAULT_TOLERANCE,
    timing: bool = False,
    calibration: TimingCalibration | None = None,
) -> PlanVerification:
    """Statically verify every algorithm's execution plan for ``graph`` on
    a device with ``spec``.

    ``algorithms`` selects a subset of :data:`ALGORITHM_NAMES` (``"fw"``
    is accepted as an alias); the default verifies all four drivers.
    Infeasible algorithms are reported (with the planner's reason), not
    failed — ``PlanVerification.ok`` requires every *feasible* plan to
    verify and at least one to be feasible.

    Every audit now includes a happens-before check (``PlanAudit.hb``)
    proving the schedule race-, deadlock- and dead-event-free in every
    interleaving; ``PlanAudit.verified`` requires it to be clean. With
    ``timing=True`` the symbolic critical-path pass also runs, attaching
    a :class:`~repro.verifyplan.timing.TimingReport` (predicted makespan,
    per-engine busy time, overlap efficiency, critical path) per
    algorithm; ``calibration`` optionally re-rates the device model from
    measured benchmarks (:meth:`TimingCalibration.from_bench`).
    """
    names = list(algorithms) if algorithms else list(ALGORITHM_NAMES)
    verification = PlanVerification(
        n=graph.num_vertices, m=graph.num_edges, device=spec.name
    )
    for raw in names:
        name = _ALIASES.get(raw, raw)
        if name == "floyd-warshall":
            audit, irs = _audit_fw(graph, spec, overlap, tolerance)
        elif name == "johnson":
            audit, irs = _audit_johnson(graph, spec, overlap, timing)
        elif name == "boundary":
            audit, irs = _audit_boundary(graph, spec, overlap, batch_transfers, seed)
        elif name == "multi-gpu":
            audit, irs = _audit_multi(graph, spec, num_devices, seed)
        else:
            raise ValueError(
                f"unknown algorithm {raw!r}; choose from {ALGORITHM_NAMES}"
            )
        if irs:
            audit.hb, audit.timing = check_schedule(
                irs, spec, timing=timing, calibration=calibration
            )
        verification.audits[name] = audit
    return verification
