"""Symbolic critical-path timing over the schedule IR.

Where :mod:`repro.verifyplan.hb` proves a schedule *correct*, this module
predicts how *fast* it is — without instantiating a device. It replays a
:class:`~repro.verifyplan.ir.PlanIR` on the simulated runtime's own
:class:`~repro.gpu.timeline.Clock`, turning each IR op into the clock call
the device makes for it: a kernel is a ``launch``, a copy a sync or async
``copy``, an event ``record``/``wait`` a stream mark. Durations come from
the :class:`~repro.gpu.device.DeviceSpec` roofline cost models
(:mod:`repro.gpu.kernels`) and the transfer model
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
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.gpu.device import DeviceSpec
from repro.gpu.kernels import launch_seconds
from repro.gpu.timeline import Clock, TimingReport, fleet_floor, timing_report
from repro.gpu.transfer import copy_duration, copy_duration_2d
from repro.verifyplan.ir import (
    BarrierOp,
    CopyOp,
    KernelOp,
    LinkSpec,
    PlanIR,
    RecordOp,
    RecvOp,
    SendOp,
    WaitOp,
)

__all__ = [
    "TimingCalibration",
    "TimingReport",
    "kernel_duration",
    "predict_cluster_timing",
    "predict_multi_timing",
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
    """Make the clock call the device makes for one op of ``ir``.

    ``events`` maps the IR's event ids to their recorded marks; it lives
    as long as the clock. Alloc/free touch no clock, and an ``annotate``
    kernel is sanitizer-only: no clock slot, no launch overhead.
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
    elif isinstance(op, BarrierOp):
        fleet_floor([clock])


def predict_timing(
    ir: PlanIR,
    spec: DeviceSpec,
    *,
    calibration: "TimingCalibration | None" = None,
) -> TimingReport:
    """Statically predict the simulated makespan of one driver's IR."""
    if calibration is not None:
        spec = calibration.apply(spec)
    clock = Clock()
    events: dict = {}
    for op in ir.ops:
        _replay(clock, events, ir, op, spec)
    return timing_report(ir.algorithm, ir.device, [clock])


def predict_multi_timing(
    irs: list[PlanIR],
    spec: DeviceSpec,
    *,
    calibration: "TimingCalibration | None" = None,
) -> TimingReport:
    """Replay per-device IRs with fleet barriers (``multi_gpu._barrier``).

    Each device replays on its own clock up to its next
    :class:`BarrierOp`; once every device is there, all clocks are floored
    at the fleet-wide elapsed time, exactly as the driver's ``_barrier``
    does.
    """
    if not irs:
        raise ValueError("predict_multi_timing needs at least one device IR")
    if calibration is not None:
        spec = calibration.apply(spec)
    return _replay_fleet(irs, spec, link_of=None)


def predict_cluster_timing(
    irs: list[PlanIR],
    spec: DeviceSpec,
    *,
    link_of,
    calibration: "TimingCalibration | None" = None,
) -> TimingReport:
    """Replay per-rank cluster IRs under the α–β interconnect model.

    ``link_of(src, dst)`` maps a directed rank pair to the
    :class:`~repro.verifyplan.ir.LinkSpec` carrying their traffic. Each
    rank replays on its own :class:`~repro.gpu.timeline.Clock`, making the
    calls the cluster simulator (:mod:`repro.cluster.simulate`) makes, with
    eager-buffered sends:

    * a **send** occupies the directed link as an engine of the sending
      rank for ``α + nbytes/β``; its end is the message's *arrival time*;
    * a **recv** floors the receiving stream at the FIFO-matched arrival
      and costs nothing itself;
    * a :class:`~repro.verifyplan.ir.BarrierOp` is a fleet barrier
      flooring every rank's clock at the fleet-wide elapsed time.

    Every transfer's end time is a fixed function of its predecessors
    (sender clocks + per-link FIFO order), so the replay is
    processing-order independent and matches the simulator's makespan
    **exactly**.
    """
    if not irs:
        raise ValueError("predict_cluster_timing needs at least one rank IR")
    if calibration is not None:
        spec = calibration.apply(spec)
    return _replay_fleet(irs, spec, link_of=link_of)


def _replay_fleet(irs: list[PlanIR], spec: DeviceSpec, *, link_of) -> TimingReport:
    """Schedule per-device (or per-rank) IRs onto one clock each.

    This only schedules the IR — FIFO message matching, barrier
    rendezvous and deadlock detection; the clocks do the timing.
    """
    clocks = [Clock() for _ in irs]
    events: list[dict] = [{} for _ in irs]
    pos = [0] * len(irs)
    #: (src, dst, tag) -> FIFO of send ops, whose ends are the arrivals
    arrivals: dict[tuple[int, int, str], deque] = {}

    def run_rank(i: int) -> bool:
        """Advance rank ``i`` until blocked; True if any op was processed."""
        clock, ir = clocks[i], irs[i]
        moved = False
        while pos[i] < len(ir.ops):
            op = ir.ops[pos[i]]
            if isinstance(op, BarrierOp):
                break
            if isinstance(op, SendOp):
                link: LinkSpec = link_of(ir.rank, op.dst)
                sent = clock.send(
                    ir.rank, op.dst, op.stream, f"send:{op.tag}",
                    link.duration(op.access.nbytes),
                )
                arrivals.setdefault((ir.rank, op.dst, op.tag), deque()).append(sent)
            elif isinstance(op, RecvOp):
                queue = arrivals.get((op.src, ir.rank, op.tag))
                if not queue:
                    break  # sender has not issued the message yet
                clock.recv(op.stream, queue.popleft())
            else:
                _replay(clock, events[i], ir, op, spec)
            pos[i] += 1
            moved = True
        return moved

    while True:
        progressed = False
        for i in range(len(irs)):
            if run_rank(i):
                progressed = True
        if all(pos[i] >= len(ir.ops) for i, ir in enumerate(irs)):
            break
        at_barrier = [
            i for i, ir in enumerate(irs)
            if pos[i] < len(ir.ops) and isinstance(ir.ops[pos[i]], BarrierOp)
        ]
        if at_barrier and all(
            pos[i] >= len(ir.ops) or isinstance(ir.ops[pos[i]], BarrierOp)
            for i, ir in enumerate(irs)
        ):
            fleet_floor(clocks)
            for i in at_barrier:
                pos[i] += 1
            continue
        if not progressed:
            raise ValueError(
                "cluster timing: schedule deadlocks — run analyze_cluster_hb"
            )
    device = f"{irs[0].device.split('#')[0]}×{len(irs)}"
    return timing_report(irs[0].algorithm, device, clocks)


@dataclass(frozen=True)
class TimingCalibration:
    """Optional rate overrides for the timing pass.

    ``from_bench`` derives them from the measured sweeps checked into the
    repo: the **autotuned winner** for this machine's fingerprint in
    ``BENCH_kernels.json`` (``python -m repro tune-kernels``) replaces the
    simulated ``minplus_rate`` (so the DAG predicts host wall-clock off
    the kernel that will actually run); with no tuned entry, the best
    bit-identical sweep row is the fallback. With no calibration the pass
    targets the simulated device exactly.
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
        # the autotuned winner for this machine's fingerprint wins: it is
        # the rate of the kernel config the engine will actually select
        try:
            from repro.bench.kernels import tuned_minplus_gops

            tuned = tuned_minplus_gops(kernels_path)
        except Exception:
            tuned = None
        if tuned:
            return cls(minplus_rate=tuned * 1e9)
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
