"""Static plan verifier: prove OOC schedules correct before anything runs.

This package proves the out-of-core schedules correct at *compile
time*, for every interleaving. Each OOC
driver writes its schedule once, as a generator; its ``emit_*_ir``
function runs that generator into a symbolic
:class:`~repro.verifyplan.ir.PlanIR` — allocations, H2D/D2H copies,
kernel def/use sets, and the stream, event-record/wait, and barrier
structure — without touching a device, while the driver runs the same
generator on the device. Five analyses then run over the IR:

- **residency** — peak charged bytes via a liveness walk, proven ≤ the
  :class:`~repro.gpu.device.DeviceSpec` capacity;
- **def-use** — every kernel operand is defined (written or uploaded)
  on-device before it is read, and no buffer is used or freed again
  after its free;
- **redundancy** — uploads of already-resident unmodified blocks and
  repeated downloads of untouched regions, reported as wasted bytes;
- **happens-before** (:mod:`~repro.verifyplan.hb`) — a vector-clock
  model checker (:mod:`repro.gpu.ordering`) proving every
  byte-overlapping conflicting access pair, on device buffers and on
  the host blocks copies name, ordered in *every* legal interleaving,
  every wait satisfiable (deadlock-freedom), and no recorded event dead;
- **timing** (:mod:`~repro.verifyplan.timing`) — a replay of the IR on
  the device's own clock yielding the critical path, predicted
  makespan, and copy/compute overlap efficiency per algorithm.

Finally the tally is checked against the schedule's one traffic record
(:mod:`~repro.verifyplan.bounds`): bytes and copies per direction and
the row segments of strided copies, derived from the plan in closed
form (FW's exact per-block uploads and ``n_d·n²`` downloads, Johnson's
CSR + row-batch totals, the boundary method's ``N_row`` output drains,
the multi-GPU fleet's broadcast of the boundary matrix).
The cost models price the same record. Independent analyses, one contract: the tests in
``tests/test_verifyplan.py`` and ``tests/test_hb_timing.py`` assert
agreement between these static predictions and the dynamic traces and
simulated clocks of real runs.

Every verifier reports through one record
(:mod:`~repro.verifyplan.verifier`): :func:`audit_schedule` runs the
analyses above over a schedule's IRs and checks the command's closed
forms, giving an :class:`Audit`; a command's :class:`Verification`
holds a header, its audits and its named pass/fail :class:`Check`
results, with one ``ok``, ``describe()`` and ``to_dict()``.

The same machinery scales past one host: the distributed schedules of
:mod:`repro.cluster` lower their collectives to point-to-point
:class:`~repro.verifyplan.ir.SendOp`/:class:`~repro.verifyplan.ir.RecvOp`
pairs, :func:`analyze_hb` proves them ordered and matched across nodes
in every interleaving, :mod:`~repro.verifyplan.commbounds` proves the
per-link byte counts equal the closed-form 2-D block-cyclic volumes, and
:func:`predict_timing` replays the fleet under an α–β link model. Both
take the schedule's list of IRs — one per device or rank — and walk it
through one interleaving rule, :func:`~repro.verifyplan.ir.walk_fleet`.

Incremental schedules get the same treatment:
:mod:`~repro.verifyplan.updatebounds` proves the dynamic-graph patch
sweeps of :mod:`repro.dynamic` move ``O(n²)`` bytes (traffic record ==
IR tally of the schedule the pass runs), that the statically-derived
touched-block set covers every block the patch actually changes, and
that the pivot panels are folded before any block kernel reads them.

Entry points: :func:`verify_plan` / ``python -m repro verify-plan``
(each plan's derived parameters, residency and transfer bounds,
happens-before and predicted makespan) / ``python -m repro
verify-cluster`` / ``python -m repro verify-update``.
"""

from repro.verifyplan.analyze import (
    PlanFinding,
    TransferTally,
    analyze_def_use,
    analyze_residency,
    analyze_transfers,
    audit_ir,
)
from repro.verifyplan.bounds import (
    BoundCheck,
    Traffic,
    boundary_traffic,
    fw_traffic,
    johnson_traffic,
    multi_traffic,
    traffic_checks,
)
from repro.verifyplan.commbounds import (
    CommTally,
    analyze_comm,
    cluster_comm_checks,
    expected_comm_volumes,
    expected_link_bytes,
)
from repro.verifyplan.hb import HBFinding, HBReport, analyze_hb
from repro.verifyplan.ir import (
    AllocOp,
    BarrierOp,
    CollectiveOp,
    CopyOp,
    FreeOp,
    IREmitter,
    KernelOp,
    LinkSpec,
    NodeSpec,
    PlanIR,
    RecordOp,
    Rect,
    RecvOp,
    SendOp,
    SymBuffer,
    SymEvent,
    WaitOp,
)
from repro.verifyplan.timing import (
    TimingCalibration,
    TimingReport,
    kernel_duration,
    predict_timing,
)
from repro.verifyplan.updatebounds import (
    SoundnessFinding,
    check_patch_soundness,
    static_touched_blocks,
    update_bound_checks,
    update_traffic,
)
from repro.verifyplan.verifier import (
    ALGORITHM_NAMES,
    Audit,
    Check,
    Verification,
    audit_schedule,
    verify_plan,
)

__all__ = [
    "ALGORITHM_NAMES",
    "AllocOp",
    "Audit",
    "BarrierOp",
    "BoundCheck",
    "Check",
    "CollectiveOp",
    "CommTally",
    "CopyOp",
    "FreeOp",
    "HBFinding",
    "HBReport",
    "IREmitter",
    "KernelOp",
    "LinkSpec",
    "NodeSpec",
    "PlanFinding",
    "PlanIR",
    "RecordOp",
    "Rect",
    "RecvOp",
    "SendOp",
    "SoundnessFinding",
    "SymBuffer",
    "SymEvent",
    "TimingCalibration",
    "TimingReport",
    "Traffic",
    "TransferTally",
    "Verification",
    "WaitOp",
    "analyze_comm",
    "analyze_def_use",
    "analyze_hb",
    "analyze_residency",
    "analyze_transfers",
    "audit_ir",
    "audit_schedule",
    "boundary_traffic",
    "check_patch_soundness",
    "cluster_comm_checks",
    "expected_comm_volumes",
    "expected_link_bytes",
    "fw_traffic",
    "johnson_traffic",
    "kernel_duration",
    "multi_traffic",
    "predict_timing",
    "static_touched_blocks",
    "traffic_checks",
    "update_bound_checks",
    "update_traffic",
    "verify_plan",
]
