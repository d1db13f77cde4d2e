"""The audit record every schedule verifier reports, and ``verify_plan``.

A schedule verifier compiles a schedule to one symbolic
:class:`~repro.verifyplan.ir.PlanIR` per device (or rank), proves it and
reports the proof. :func:`audit_schedule` is that proof, written once:
the liveness / def-use / redundancy analyses of every IR (bytes, copies
and ops summed, peak residency maxed, findings prefixed with the rank),
the command's closed-form transfer bounds over the summed tally, the
happens-before closure and the timing replay. The result is an
:class:`Audit`; a command's :class:`Verification` holds a header, its
audits and its named pass/fail :class:`Check` results. ``verify_plan``
(here), :func:`repro.cluster.verify_cluster` and
:func:`repro.dynamic.verify_update` differ only in how they build IRs
and which closed forms apply.

``verify_plan`` audits every out-of-core driver's plan for a
graph/device pair before anything executes: the derived parameters
(FW's block size ``b`` and block count ``n_d``, Johnson's
``bat = (L − S)/(c·m)`` and its occupancy, the boundary method's
``N_row``), the proven peak residency and transfer volumes against the
paper's closed forms, race/deadlock freedom in every interleaving and
the predicted makespan. ``python -m repro verify-plan`` prints it
(``--json`` for the machine-readable form) and exits non-zero when any
feasible plan fails verification.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

from repro.verifyplan.analyze import TransferTally, audit_ir
from repro.verifyplan.bounds import (
    BoundCheck,
    boundary_traffic,
    fw_traffic,
    johnson_traffic,
    multi_traffic,
    traffic_checks,
)
from repro.verifyplan.hb import HBReport, analyze_hb
from repro.verifyplan.ir import LinkSpec, PlanIR
from repro.verifyplan.timing import TimingReport, predict_timing

__all__ = [
    "ALGORITHM_NAMES",
    "Audit",
    "Check",
    "Verification",
    "audit_schedule",
    "verify_plan",
]

#: canonical algorithm keys, in report order
ALGORITHM_NAMES = ("floyd-warshall", "johnson", "boundary", "multi-gpu")

_ALIASES = {"fw": "floyd-warshall", "floyd_warshall": "floyd-warshall"}

_TALLY_FIELDS = ("bytes_h2d", "bytes_d2h", "num_h2d", "num_d2h", "redundant_bytes")
#: the tally fields summed over a schedule's IRs; the traffic checks also
#: read ``strided_rows``, which the audit does not report
_SUMMED_FIELDS = (*_TALLY_FIELDS, "strided_rows")


def _fmt_bytes(b: int | float) -> str:
    if b >= 2**20:
        return f"{b / 2**20:.1f} MiB"
    return f"{b / 2**10:.1f} KiB"


@dataclass(frozen=True)
class Check:
    """A named pass/fail result no closed form covers: a dynamic
    cross-validation, a differential, a revalidation or a seeded defect."""

    name: str
    passed: bool
    detail: str = ""

    def describe(self) -> str:
        return f"{self.name}: {'ok' if self.passed else 'FAILED'}" + (
            f" — {self.detail}" if self.detail else ""
        )


@dataclass
class Audit:
    """Everything a verifier proved about one schedule."""

    name: str
    parameters: dict = field(default_factory=dict)
    feasible: bool = True
    reason: str = ""
    capacity: int = 0
    peak_bytes: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    num_h2d: int = 0
    num_d2h: int = 0
    num_ops: int = 0
    redundant_bytes: int = 0
    findings: list = field(default_factory=list)
    bounds: list[BoundCheck] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    hb: HBReport | None = None
    timing: TimingReport | None = None

    @property
    def ok(self) -> bool:
        """Feasible, no findings, every closed-form bound and named check
        holds, and the happens-before check is clean."""
        return (
            self.feasible
            and not self.findings
            and all(b.ok for b in self.bounds)
            and all(c.passed for c in self.checks)
            and self.hb is not None
            and self.hb.ok
        )

    def describe(self) -> str:
        if not self.feasible:
            return f"{self.name}: infeasible — {self.reason}"
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        lines = [
            f"{self.name}: {'VERIFIED' if self.ok else 'FAILED'}"
            + (f" — {params}" if params else ""),
            f"  peak {_fmt_bytes(self.peak_bytes)} / {_fmt_bytes(self.capacity)}, "
            f"h2d {_fmt_bytes(self.bytes_h2d)} ({self.num_h2d} copies), "
            f"d2h {_fmt_bytes(self.bytes_d2h)} ({self.num_d2h} copies), "
            f"{self.redundant_bytes} redundant B, {self.num_ops} ops, "
            f"{sum(b.ok for b in self.bounds)}/{len(self.bounds)} bounds ok",
        ]
        lines += [f"    {f.describe()}" for f in self.findings]
        lines += [f"    {b.describe()}" for b in self.bounds if not b.ok]
        if self.hb is not None:
            hb = self.hb
            lines.append(
                f"  hb: {hb.num_ops} clocked ops on {hb.num_streams} stream(s), "
                f"{hb.num_events} event(s), {hb.num_waits} wait(s) — "
                + ("race/deadlock-free in every interleaving" if hb.ok
                   else f"{len(hb.findings)} finding(s)")
            )
            lines += [f"    {f.describe()}" for f in hb.findings]
        if self.timing is not None:
            t = self.timing
            net = f", network {t.net_seconds:.3e}" if t.net_seconds else ""
            lines.append(
                f"  timing: predicted makespan {t.makespan:.3e} s (compute "
                f"{t.compute_seconds:.3e}, h2d {t.h2d_seconds:.3e}, d2h "
                f"{t.d2h_seconds:.3e}{net}; overlap efficiency "
                f"{t.overlap_efficiency:.0%})"
            )
        lines += [f"  {c.describe()}" for c in self.checks]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "feasible": self.feasible,
            "ok": self.ok,
            "reason": self.reason,
            "parameters": dict(self.parameters),
            "capacity": self.capacity,
            "peak_bytes": self.peak_bytes,
            **{f: getattr(self, f) for f in _TALLY_FIELDS},
            "num_ops": self.num_ops,
            "findings": [
                {**asdict(f), "block": list(f.block) if f.block else None}
                for f in self.findings
            ],
            "bounds": [asdict(b) | {"ok": b.ok} for b in self.bounds],
            "checks": [asdict(c) for c in self.checks],
            "hb": self.hb.to_dict() if self.hb is not None else None,
            "timing": self.timing.to_dict() if self.timing is not None else None,
        }


@dataclass
class Verification:
    """One verifier command's result: a header, its audits and its checks."""

    #: the report's first line, before its verdict
    title: str
    #: the facts the audits share (graph, device, topology), as JSON
    header: dict
    audits: dict[str, Audit] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """At least one schedule is feasible, every feasible one verifies
        and every named check passes."""
        feasible = [a for a in self.audits.values() if a.feasible]
        return (
            bool(feasible)
            and all(a.ok for a in feasible)
            and all(c.passed for c in self.checks)
        )

    def describe(self) -> str:
        lines = [f"{self.title} — " + ("VERIFIED" if self.ok else "FAILED")]
        lines += ["  " + a.describe().replace("\n", "\n  ") for a in self.audits.values()]
        lines += [f"  {c.describe()}" for c in self.checks]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            **self.header,
            "ok": self.ok,
            "audits": {name: a.to_dict() for name, a in self.audits.items()},
            "checks": [asdict(c) for c in self.checks],
        }


def audit_schedule(
    name: str,
    irs: Sequence[PlanIR],
    spec,
    *,
    parameters: dict | None = None,
    bounds: Callable[[TransferTally], list[BoundCheck]] | None = None,
    timing: bool = True,
    link_of: Callable[[int, int], LinkSpec] | None = None,
    node_names: dict[int, str] | None = None,
) -> Audit:
    """Prove one schedule, given as one IR per device (or rank).

    ``bounds`` maps the summed transfer tally to the command's closed
    forms. ``timing=False`` skips the replay, for schedules whose kernel
    costs are only known at run time; ``link_of`` and ``node_names`` are
    as for cluster schedules.
    """
    audit = Audit(name, dict(parameters or {}), capacity=spec.memory_bytes)
    tally = TransferTally()
    for ir in irs:
        peak, part, findings = audit_ir(ir)
        audit.peak_bytes = max(audit.peak_bytes, peak)
        audit.num_ops += ir.num_ops
        for key in _SUMMED_FIELDS:
            setattr(tally, key, getattr(tally, key) + getattr(part, key))
        if len(irs) > 1:
            rank = (node_names or {}).get(ir.rank, f"rank{ir.rank}")
            findings = [replace(f, buffer=f"{rank}:{f.buffer}") for f in findings]
        audit.findings += findings
    for key in _TALLY_FIELDS:
        setattr(audit, key, getattr(tally, key))
    if bounds is not None:
        audit.bounds = bounds(tally)
    audit.hb = analyze_hb(irs, node_names=node_names)
    if timing:
        audit.timing = predict_timing(irs, spec, link_of=link_of)
    return audit


def _audit_fw(graph, spec, overlap: bool) -> Audit:
    from repro.core.ooc_fw import emit_fw_ir, plan_fw_block_size
    from repro.core.tiling import BlockLayout
    from repro.gpu.errors import OutOfMemoryError

    n = graph.num_vertices
    try:
        b = plan_fw_block_size(n, spec, overlap=overlap)
    except (ValueError, OutOfMemoryError) as exc:  # pragma: no cover - tiny devices
        return Audit("floyd-warshall", feasible=False, reason=str(exc))
    return audit_schedule(
        "floyd-warshall", [emit_fw_ir(n, spec, block_size=b, overlap=overlap)], spec,
        parameters={"block_size": b, "num_blocks": BlockLayout(n, b).num_blocks},
        bounds=lambda t: traffic_checks(
            "fw", fw_traffic(n, b, overlap=overlap), t,
            "stage terms + the double-buffer row-reuse rule, ragged blocks exact",
        ),
    )


def _audit_johnson(graph, spec, overlap: bool) -> Audit:
    from repro.core.ooc_johnson import (
        collect_mssp_workloads,
        emit_johnson_ir,
        plan_batch_size,
    )
    from repro.gpu.errors import OutOfMemoryError
    from repro.gpu.kernels import mssp_occupancy

    n, m = graph.num_vertices, graph.num_edges
    try:
        bat = plan_batch_size(graph, spec, num_row_buffers=2 if overlap else 1)
    except OutOfMemoryError as exc:
        return Audit("johnson", feasible=False, reason=str(exc))
    bat = max(1, min(bat, n))
    # the timing replay prices each batch's MSSP kernel from its Near-Far
    # workload, so the host runs the frontier once here
    workloads = collect_mssp_workloads(graph, batch_size=bat)
    return audit_schedule(
        "johnson",
        [emit_johnson_ir(graph, spec, batch_size=bat, overlap=overlap, workloads=workloads)],
        spec,
        parameters={
            "batch_size": bat,
            "num_batches": -(-n // bat),
            "occupancy": f"{mssp_occupancy(spec, bat):.0%}",
        },
        bounds=lambda t: traffic_checks(
            "johnson", johnson_traffic(n, m, bat), t,
            "the CSR graph uploads once; one row download per batch of bat sources",
        ),
    )


def _audit_boundary(graph, spec, overlap: bool, seed: int) -> Audit:
    from repro.core.ooc_boundary import (
        BoundaryInfeasibleError,
        emit_boundary_ir,
        plan_boundary,
    )

    try:
        plan = plan_boundary(graph, spec, overlap=overlap, seed=seed)
    except BoundaryInfeasibleError as exc:
        return Audit("boundary", feasible=False, reason=exc.detail)
    return audit_schedule(
        "boundary", [emit_boundary_ir(graph, spec, plan=plan, overlap=overlap)], spec,
        parameters={
            "num_components": plan.num_components,
            "num_boundary": plan.num_boundary,
            "max_component": plan.max_component,
            "n_row": plan.n_row,
            "buffers": plan.num_buffers,
            "batched": plan.runs_batched(),
        },
        bounds=lambda t: traffic_checks(
            "boundary", boundary_traffic(plan), t,
            "components, boundary matrix, C2B/B2C extracts; N_row-batched "
            "drains, or k² strided block copies when no strip fits",
        ),
    )


def _audit_multi(graph, spec, overlap: bool, num_devices: int, seed: int) -> Audit:
    from repro.core.multi_gpu import emit_multi_ir
    from repro.core.ooc_boundary import BoundaryInfeasibleError, plan_boundary

    try:
        plan = plan_boundary(graph, spec, seed=seed)
    except BoundaryInfeasibleError as exc:
        return Audit("multi-gpu", feasible=False, reason=exc.detail)
    return audit_schedule(
        "multi-gpu", emit_multi_ir(graph, spec, num_devices, plan=plan, overlap=overlap),
        spec,
        parameters={
            "num_devices": num_devices,
            "num_components": plan.num_components,
            "num_boundary": plan.num_boundary,
            "max_component": plan.max_component,
        },
        bounds=lambda t: traffic_checks(
            "multi", multi_traffic(plan, num_devices), t,
            "dist2 blocks, the boundary matrix broadcast to every device, "
            "C2B/B2C extracts and one output strip per block-row",
        ),
    )


def verify_plan(
    graph,
    spec,
    *,
    algorithms=None,
    seed: int = 0,
    overlap: bool = True,
    num_devices: int = 2,
) -> Verification:
    """Statically verify every algorithm's execution plan for ``graph`` on
    a device with ``spec``.

    ``algorithms`` selects a subset of :data:`ALGORITHM_NAMES` (``"fw"``
    is accepted as an alias); the default verifies all four drivers, each
    with the ``overlap`` mode given. Infeasible algorithms are reported
    (with the planner's reason), not failed — ``Verification.ok``
    requires every *feasible* plan to verify and at least one to be
    feasible. Each feasible :class:`Audit` carries the plan's derived
    parameters, its proven residency and volumes against the closed
    forms, its happens-before report and its predicted timing.
    """
    n, m = graph.num_vertices, graph.num_edges
    output = n * n * 4  # DIST_DTYPE is float32
    where = "fits in core" if output <= spec.memory_bytes else "out of core"
    verification = Verification(
        f"plan verifier [{spec.name}]: graph n={n}, m={m}, output "
        f"{_fmt_bytes(output)} vs device {_fmt_bytes(spec.memory_bytes)} ({where})",
        {"n": n, "m": m, "device": spec.name, "output_bytes": output,
         "device_bytes": spec.memory_bytes},
    )
    for raw in list(algorithms) if algorithms else list(ALGORITHM_NAMES):
        name = _ALIASES.get(raw, raw)
        if name == "floyd-warshall":
            audit = _audit_fw(graph, spec, overlap)
        elif name == "johnson":
            audit = _audit_johnson(graph, spec, overlap)
        elif name == "boundary":
            audit = _audit_boundary(graph, spec, overlap, seed)
        elif name == "multi-gpu":
            audit = _audit_multi(graph, spec, overlap, num_devices, seed)
        else:
            raise ValueError(
                f"unknown algorithm {raw!r}; choose from {ALGORITHM_NAMES}"
            )
        verification.audits[name] = audit
    return verification
