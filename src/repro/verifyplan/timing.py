"""Symbolic critical-path timing over the schedule IR.

Where :mod:`repro.verifyplan.hb` proves a schedule *correct*, this module
predicts how *fast* it is — without instantiating a device. It replays the
IRs of one schedule (one :class:`~repro.verifyplan.ir.PlanIR` per device
or rank) on the simulated runtime's own
:class:`~repro.gpu.timeline.Clock`, one per IR, turning each IR op into
the clock call the device makes for it: a kernel is a ``launch``, a copy a
sync or async ``copy``, an event ``record``/``wait`` a stream mark, a
message a ``send``/``recv`` on a link engine, and a fleet barrier a
:func:`~repro.gpu.timeline.fleet_floor`. The IRs interleave through
:func:`~repro.verifyplan.ir.walk_fleet`, the happens-before checker's
rule. Durations come from the :class:`~repro.gpu.device.DeviceSpec`
roofline cost models (:mod:`repro.gpu.kernels`) and the transfer model
(:mod:`repro.gpu.transfer`), so on a faithful emitter the predicted
makespan *is* the run's simulated makespan, bit for bit: the tests pin
both to the same values on the standard configurations.

The replay reports a :class:`~repro.gpu.timeline.TimingReport`:

* the **critical path** — each scheduled op remembers which predecessor
  (stream, host, or engine occupancy) bound its start time; backtracking
  from the makespan-achieving op yields the chain of ops that actually
  determines the runtime, across fleet barriers and messages;
* **overlap efficiency** — where the makespan sits between the fully
  serialised schedule (sum of all durations) and the ideal bound (the
  busiest engine): 1.0 means copies hide perfectly behind compute,
  0.0 means no overlap was won at all;
* per-engine busy seconds, which feed the selector's analytic cost
  estimates (:mod:`repro.select.cost_models`).

:class:`TimingCalibration` optionally rescales the spec's rates from the
measured ``BENCH_kernels.json`` sweep so the same DAG can predict host
wall-clock instead of the simulated device; by default no calibration is
applied and predictions target the simulated device exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.gpu.device import DeviceSpec
from repro.gpu.kernels import launch_seconds
from repro.gpu.timeline import Clock, TimingReport, fleet_floor, timing_report
from repro.gpu.transfer import copy_duration, copy_duration_2d
from repro.verifyplan.ir import (
    CopyOp,
    KernelOp,
    LinkSpec,
    PlanIR,
    RecordOp,
    RecvOp,
    SendOp,
    WaitOp,
    fleet_name,
    walk_fleet,
)

__all__ = [
    "TimingCalibration",
    "TimingReport",
    "kernel_duration",
    "predict_timing",
]


def kernel_duration(op: KernelOp, spec: DeviceSpec) -> float:
    """Modelled duration of one IR kernel launch, from its operand rects.

    An explicit ``cost`` wins (Johnson's data-dependent ``mssp``);
    otherwise :func:`repro.gpu.kernels.launch_seconds` prices it — the
    rule the device and cluster executors charge at run time.
    """
    if op.cost is not None:
        return float(op.cost)
    if not op.writes:
        raise ValueError(f"kernel {op.name!r} declares no writes — cannot price it")
    reads = [(a.buffer, a.rect) for a in op.reads]
    writes = [(a.buffer, a.rect) for a in op.writes]
    return launch_seconds(op.name, spec, reads, writes, lambda a: (a[1].rows, a[1].cols))


def _replay(clock: Clock, events: dict, ir: PlanIR, op, spec: DeviceSpec) -> None:
    """Make the clock call the device makes for one device op of ``ir``.

    ``events`` maps the IR's event ids to their recorded marks; it lives
    as long as the clock. Alloc/free touch no clock, and an ``annotate``
    kernel is host-side work: no clock slot, no launch overhead.
    """
    overhead = spec.kernel_launch_overhead
    if isinstance(op, KernelOp):
        if not op.annotate:
            clock.launch(op.stream, op.name, kernel_duration(op, spec), overhead=overhead)
    elif isinstance(op, CopyOp):
        if op.strided:
            duration = copy_duration_2d(
                spec, op.access.rect.rows,
                op.access.rect.cols * ir.buffers[op.access.buffer].itemsize,
            )
        else:
            duration = copy_duration(spec, op.access.nbytes)
        clock.copy(op.kind, op.stream, op.kind, duration, sync=op.sync, overhead=overhead)
    elif isinstance(op, RecordOp):
        events[op.event] = clock.record(op.stream)
    elif isinstance(op, WaitOp) and op.event in events:
        # an unrecorded event would wait on time 0.0 — a no-op, like
        # waiting a default-constructed Event in the runtime
        clock.wait(op.stream, events[op.event])


def predict_timing(
    irs: Sequence[PlanIR],
    spec: DeviceSpec,
    *,
    link_of: Callable[[int, int], LinkSpec] | None = None,
    calibration: "TimingCalibration | None" = None,
) -> TimingReport:
    """Statically predict the simulated makespan of one schedule.

    ``irs`` holds one IR per device (or cluster rank); each replays on its
    own :class:`~repro.gpu.timeline.Clock`, making the calls the device,
    the multi-GPU driver and the cluster simulator
    (:mod:`repro.cluster.simulate`) make:

    * a :class:`~repro.verifyplan.ir.BarrierOp` floors every clock at the
      fleet-wide elapsed time, as the multi-GPU driver's ``_barrier``
      does;
    * a **send** occupies the directed link ``link_of(src, dst)`` (a
      :class:`~repro.verifyplan.ir.LinkSpec`) as an engine of the sending
      rank for ``α + nbytes/β``; its end is the message's *arrival time*.
      Sends are eager-buffered: the sender continues;
    * a **recv** floors the receiving stream at the FIFO-matched arrival
      and costs nothing itself.

    Every transfer's end time is a fixed function of its predecessors
    (sender clocks + per-link FIFO order), so the replay is
    processing-order independent and matches the simulator's makespan
    **exactly**. A schedule in which no IR can move raises
    :class:`ValueError`; :func:`~repro.verifyplan.hb.analyze_hb` names
    the blocked recvs.
    """
    if calibration is not None:
        spec = calibration.apply(spec)
    clocks = [Clock() for _ in irs]
    events: list[dict] = [{} for _ in irs]

    def visit(i: int, j: int, op, sent):
        ir, clock = irs[i], clocks[i]
        if isinstance(op, SendOp):
            if link_of is None:
                raise ValueError("timing: a schedule with messages needs link_of")
            link = link_of(ir.rank, op.dst)
            return clock.send(
                ir.rank, op.dst, op.stream, f"send:{op.tag}",
                link.duration(op.access.nbytes),
            )
        if isinstance(op, RecvOp):
            clock.recv(op.stream, sent)
        else:
            _replay(clock, events[i], ir, op, spec)
        return None

    def stall(blocked: list[int], pos: list[int]) -> None:
        raise ValueError(
            "timing: schedule deadlocks, no IR can move — run analyze_hb "
            "to name the blocked recvs"
        )

    walk_fleet(irs, visit, barrier=lambda waiting: fleet_floor(clocks), stall=stall)
    return timing_report(irs[0].algorithm, fleet_name(irs), clocks)


@dataclass(frozen=True)
class TimingCalibration:
    """Optional rate overrides for the timing pass.

    ``from_bench`` derives them from the measured sweep checked into the
    repo: the best bit-identical row of ``BENCH_kernels.json``
    (``python -m repro bench-kernels``) replaces the simulated
    ``minplus_rate``, so the DAG predicts host wall-clock off the measured
    kernel. With no calibration the pass targets the simulated device
    exactly.
    """

    minplus_rate: float | None = None

    def apply(self, spec: DeviceSpec) -> DeviceSpec:
        if self.minplus_rate is None:
            return spec
        return dataclasses.replace(spec, minplus_rate=self.minplus_rate)

    @classmethod
    def from_bench(cls, kernels_path: Path | str | None = None) -> "TimingCalibration":
        root = Path(__file__).resolve().parents[3]
        kernels_path = Path(kernels_path) if kernels_path else root / "BENCH_kernels.json"
        best_gops = 0.0
        if kernels_path.exists():
            payload = json.loads(kernels_path.read_text())
            for row in payload.get("rows", []):
                gops = float(row.get("gops", 0.0))
                if row.get("identical", True) and gops > best_gops:
                    best_gops = gops
        if best_gops <= 0.0:
            return cls()
        return cls(minplus_rate=best_gops * 1e9)
