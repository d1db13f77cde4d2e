"""Symbolic critical-path timing over the schedule IR.

Where :mod:`repro.verifyplan.hb` proves a schedule *correct*, this module
predicts how *fast* it is — without instantiating a device. It replays a
:class:`~repro.verifyplan.ir.PlanIR` through the exact clock discipline
of the simulated runtime (:mod:`repro.gpu.stream` /
:mod:`repro.gpu.timeline`): one serialising engine per DMA direction
plus one compute engine, per-stream readiness, a host clock that pays
``kernel_launch_overhead`` per enqueue and is floored by synchronous
copies, and event ``record``/``wait`` timestamp propagation. Durations
come from the :class:`~repro.gpu.device.DeviceSpec` roofline cost models
(:mod:`repro.gpu.kernels`) and the transfer model
(:mod:`repro.gpu.transfer`) — so on a faithful emitter the predicted
makespan *equals* the dynamic trace's simulated makespan, and the tests
hold it to within 10% (exactly, for FW) on the standard configurations.

On top of the replay the pass derives:

* the **critical path** — each scheduled op remembers which predecessor
  (stream, host, or engine occupancy) bound its start time; backtracking
  from the makespan-achieving op yields the chain of ops that actually
  determines the runtime;
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
from dataclasses import dataclass, field
from pathlib import Path

from repro.gpu.device import DeviceSpec
from repro.gpu.kernels import launch_seconds
from repro.gpu.transfer import copy_duration, copy_duration_2d
from repro.verifyplan.ir import (
    AllocOp,
    BarrierOp,
    CopyOp,
    FreeOp,
    KernelOp,
    LinkSpec,
    PlanIR,
    RecordOp,
    RecvOp,
    SendOp,
    WaitOp,
)

__all__ = [
    "CriticalSegment",
    "TimingCalibration",
    "TimingReport",
    "kernel_duration",
    "predict_cluster_timing",
    "predict_multi_timing",
    "predict_timing",
]

_ENGINES = ("compute", "h2d", "d2h")


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


@dataclass(frozen=True)
class CriticalSegment:
    """One op on the critical path."""

    name: str
    engine: str
    stream: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _TimedOp:
    index: int
    name: str
    engine: str
    stream: str
    start: float
    end: float
    pred: int  # index into the timed-op list, or -1


class _DeviceState:
    """Replay clocks for one device — the static twin of ``Device``."""

    def __init__(self) -> None:
        self.host_ready = 0.0
        self.host_src = -1
        self.stream_ready: dict[str, float] = {}
        self.stream_src: dict[str, int] = {}
        self.engine_ready: dict[str, float] = {e: 0.0 for e in _ENGINES}
        self.engine_src: dict[str, int] = {e: -1 for e in _ENGINES}
        self.event_time: dict[int, float] = {}
        self.event_src: dict[int, int] = {}
        self.busy: dict[str, float] = {e: 0.0 for e in _ENGINES}
        self.timed: list[_TimedOp] = []

    @property
    def elapsed(self) -> float:
        return max(self.host_ready, max(self.engine_ready.values()))

    def advance_to(self, t: float) -> None:
        """Fleet barrier: floor every clock at ``t`` (timeline.advance_to
        plus the per-stream/host floors ``_barrier`` applies)."""
        if t > self.host_ready:
            self.host_ready = t
            self.host_src = -1
        for engine in _ENGINES:
            if t > self.engine_ready[engine]:
                self.engine_ready[engine] = t
                self.engine_src[engine] = -1
        for stream in self.stream_ready:
            if t > self.stream_ready[stream]:
                self.stream_ready[stream] = t
                self.stream_src[stream] = -1

    def _schedule(self, name: str, engine: str, stream: str,
                  duration: float) -> _TimedOp:
        contributors = (
            (self.stream_ready.get(stream, 0.0), self.stream_src.get(stream, -1)),
            (self.host_ready, self.host_src),
            (self.engine_ready[engine], self.engine_src[engine]),
        )
        start, pred = max(contributors, key=lambda c: c[0])
        end = start + duration
        op = _TimedOp(
            index=len(self.timed), name=name, engine=engine, stream=stream,
            start=start, end=end, pred=pred,
        )
        self.timed.append(op)
        self.stream_ready[stream] = end
        self.stream_src[stream] = op.index
        self.engine_ready[engine] = end
        self.engine_src[engine] = op.index
        self.busy[engine] += duration
        return op

    def replay(self, ir: PlanIR, spec: DeviceSpec) -> None:
        for op in ir.ops:
            if isinstance(op, (AllocOp, FreeOp)):
                continue  # alloc/free touch no runtime clock
            if isinstance(op, BarrierOp):
                self.advance_to(self.elapsed)
            elif isinstance(op, KernelOp):
                if op.annotate:
                    continue  # sanitizer-only: no timeline slot, no overhead
                duration = kernel_duration(op, spec)
                # launch pays the enqueue overhead on the host *before*
                # computing its start bound (Stream.launch)
                self.host_ready += spec.kernel_launch_overhead
                self._schedule(op.name, "compute", op.stream, duration)
            elif isinstance(op, CopyOp):
                buf = ir.buffers[op.access.buffer]
                if op.strided:
                    duration = copy_duration_2d(
                        spec, op.access.rect.rows,
                        op.access.rect.cols * buf.itemsize,
                    )
                else:
                    duration = copy_duration(spec, op.access.nbytes)
                timed = self._schedule(op.kind, op.kind, op.stream, duration)
                if op.sync:
                    if timed.end > self.host_ready:
                        self.host_ready = timed.end
                        self.host_src = timed.index
                else:
                    self.host_ready += spec.kernel_launch_overhead
            elif isinstance(op, RecordOp):
                self.event_time[op.event] = self.stream_ready.get(op.stream, 0.0)
                self.event_src[op.event] = self.stream_src.get(op.stream, -1)
            elif isinstance(op, WaitOp):
                # an unrecorded event carries time 0.0 — a no-op, like
                # waiting a default-constructed Event in the runtime
                t = self.event_time.get(op.event, 0.0)
                if t > self.stream_ready.get(op.stream, 0.0):
                    self.stream_ready[op.stream] = t
                    self.stream_src[op.stream] = self.event_src.get(op.event, -1)

    def critical_path(self) -> list[CriticalSegment]:
        if self.host_ready >= max(self.engine_ready.values()):
            cursor = self.host_src
        else:
            engine = max(self.engine_ready, key=lambda e: self.engine_ready[e])
            cursor = self.engine_src[engine]
        path: list[CriticalSegment] = []
        while cursor >= 0:
            op = self.timed[cursor]
            path.append(CriticalSegment(
                name=op.name, engine=op.engine, stream=op.stream,
                start=op.start, end=op.end,
            ))
            cursor = op.pred
        path.reverse()
        return path


@dataclass
class TimingReport:
    """Predicted schedule timing for one driver on one device (fleet)."""

    algorithm: str
    device: str
    makespan: float
    compute_seconds: float
    h2d_seconds: float
    d2h_seconds: float
    serial_seconds: float
    overlap_efficiency: float
    num_timed_ops: int
    #: busy seconds on the modelled interconnect links (cluster plans only)
    net_seconds: float = 0.0
    critical_path: list[CriticalSegment] = field(default_factory=list)

    @property
    def transfer_seconds(self) -> float:
        return self.h2d_seconds + self.d2h_seconds

    def _critical_top(self, limit: int = 5) -> list[dict]:
        by_kind: dict[tuple[str, str], float] = {}
        for seg in self.critical_path:
            key = (seg.engine, seg.name)
            by_kind[key] = by_kind.get(key, 0.0) + seg.duration
        ranked = sorted(by_kind.items(), key=lambda kv: kv[1], reverse=True)
        return [
            {"engine": engine, "name": name, "seconds": seconds}
            for (engine, name), seconds in ranked[:limit]
        ]

    def describe(self) -> str:
        lines = [
            f"{self.algorithm} on {self.device}: predicted makespan "
            f"{self.makespan:.6f}s over {self.num_timed_ops} timed ops",
            f"  busy: compute {self.compute_seconds:.6f}s, "
            f"h2d {self.h2d_seconds:.6f}s, d2h {self.d2h_seconds:.6f}s"
            + (f", net {self.net_seconds:.6f}s" if self.net_seconds else "")
            + f" (serialised {self.serial_seconds:.6f}s)",
            f"  overlap efficiency {self.overlap_efficiency:.2f}, "
            f"critical path {len(self.critical_path)} op(s)",
        ]
        for entry in self._critical_top(3):
            lines.append(
                f"    critical: {entry['name']}@{entry['engine']} "
                f"{entry['seconds']:.6f}s"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "device": self.device,
            "makespan_seconds": self.makespan,
            "compute_seconds": self.compute_seconds,
            "h2d_seconds": self.h2d_seconds,
            "d2h_seconds": self.d2h_seconds,
            "net_seconds": self.net_seconds,
            "serial_seconds": self.serial_seconds,
            "overlap_efficiency": self.overlap_efficiency,
            "num_timed_ops": self.num_timed_ops,
            "critical_path_length": len(self.critical_path),
            "critical_path_seconds": sum(s.duration for s in self.critical_path),
            "critical_path_top": self._critical_top(),
        }


def _overlap_efficiency(serial: float, max_busy: float, makespan: float) -> float:
    slack = serial - max_busy
    if slack <= 0.0:
        return 1.0
    return min(1.0, max(0.0, (serial - makespan) / slack))


def _report_from_states(
    algorithm: str, device: str, states: list[_DeviceState], makespan: float
) -> TimingReport:
    busy = {e: sum(st.busy[e] for st in states) for e in _ENGINES}
    serial = sum(busy.values())
    max_busy = max(
        max(st.busy[e] for e in _ENGINES) for st in states
    )
    binding = max(states, key=lambda st: st.elapsed)
    return TimingReport(
        algorithm=algorithm,
        device=device,
        makespan=makespan,
        compute_seconds=busy["compute"],
        h2d_seconds=busy["h2d"],
        d2h_seconds=busy["d2h"],
        serial_seconds=serial,
        overlap_efficiency=_overlap_efficiency(serial, max_busy, makespan),
        num_timed_ops=sum(len(st.timed) for st in states),
        critical_path=binding.critical_path(),
    )


def predict_timing(
    ir: PlanIR,
    spec: DeviceSpec,
    *,
    calibration: "TimingCalibration | None" = None,
) -> TimingReport:
    """Statically predict the simulated makespan of one driver's IR."""
    if calibration is not None:
        spec = calibration.apply(spec)
    state = _DeviceState()
    state.replay(ir, spec)
    return _report_from_states(ir.algorithm, ir.device, [state], state.elapsed)


def predict_multi_timing(
    irs: list[PlanIR],
    spec: DeviceSpec,
    *,
    calibration: "TimingCalibration | None" = None,
) -> TimingReport:
    """Replay per-device IRs with fleet barriers (``multi_gpu._barrier``).

    Each device's op list is split at its :class:`BarrierOp`\\ s; after
    every segment all devices' clocks are floored at the fleet-wide
    elapsed time, exactly as the driver's ``_barrier`` does.
    """
    if not irs:
        raise ValueError("predict_multi_timing needs at least one device IR")
    if calibration is not None:
        spec = calibration.apply(spec)

    segmented: list[list[list]] = []
    for ir in irs:
        segments: list[list] = [[]]
        for op in ir.ops:
            if isinstance(op, BarrierOp):
                segments.append([])
            else:
                segments[-1].append(op)
        segmented.append(segments)
    num_segments = max(len(s) for s in segmented)
    for segments in segmented:
        segments.extend([] for _ in range(num_segments - len(segments)))

    states = [_DeviceState() for _ in irs]
    t = 0.0
    for seg_index in range(num_segments):
        for state, ir, segments in zip(states, irs, segmented):
            partial = dataclasses.replace(ir, ops=tuple(segments[seg_index]))
            state.replay(partial, spec)
        t = max(state.elapsed for state in states)
        for state in states:
            state.advance_to(t)
    device = f"{irs[0].device.split('#')[0]}×{len(irs)}"
    return _report_from_states(irs[0].algorithm, device, states, t)


def predict_cluster_timing(
    irs: list[PlanIR],
    spec: DeviceSpec,
    *,
    link_of,
    calibration: "TimingCalibration | None" = None,
) -> TimingReport:
    """Replay per-rank cluster IRs under the α–β interconnect model.

    ``link_of(src, dst)`` maps a directed rank pair to the
    :class:`~repro.verifyplan.ir.LinkSpec` carrying their traffic. The
    replay uses the exact clock discipline of the dynamic cluster
    simulator (:mod:`repro.cluster.simulate`), with eager-buffered sends:

    * a **send** occupies the directed link as an engine of the sending
      rank: ``start = max(stream, host, link_ready)``,
      ``end = start + α + nbytes/β``; the wire time is charged entirely
      on the sender/link side and the message's *arrival time* is ``end``;
    * a **recv** floors the receiving stream's clock at the FIFO-matched
      arrival time and costs nothing itself;
    * a :class:`~repro.verifyplan.ir.BarrierOp` is a fleet barrier
      flooring every rank's clocks at the fleet-wide elapsed time.

    Every transfer's end time is a fixed function of its predecessors
    (sender clocks + per-link FIFO order), so the replay is
    processing-order independent and matches the simulator's makespan
    **exactly** — the scaling curves the two produce are the same curve.
    """
    if not irs:
        raise ValueError("predict_cluster_timing needs at least one rank IR")
    if calibration is not None:
        spec = calibration.apply(spec)
    states = [_DeviceState() for _ in irs]
    pos = [0] * len(irs)
    #: (src, dst, tag) -> FIFO of arrival times
    arrivals: dict[tuple[int, int, str], list[float]] = {}

    def run_rank(i: int) -> bool:
        """Advance rank ``i`` until blocked; True if any op was processed."""
        st, ir = states[i], irs[i]
        moved = False
        while pos[i] < len(ir.ops):
            op = ir.ops[pos[i]]
            if isinstance(op, BarrierOp):
                break
            if isinstance(op, SendOp):
                link: LinkSpec = link_of(ir.rank, op.dst)
                engine = f"net:{ir.rank}->{op.dst}"
                st.engine_ready.setdefault(engine, 0.0)
                st.engine_src.setdefault(engine, -1)
                st.busy.setdefault(engine, 0.0)
                timed = st._schedule(
                    f"send:{op.tag}", engine, op.stream,
                    link.duration(op.access.nbytes),
                )
                arrivals.setdefault((ir.rank, op.dst, op.tag), []).append(
                    timed.end
                )
            elif isinstance(op, RecvOp):
                queue = arrivals.get((op.src, ir.rank, op.tag))
                if not queue:
                    break  # sender has not issued the message yet
                arrival = queue.pop(0)
                if arrival > st.stream_ready.get(op.stream, 0.0):
                    st.stream_ready[op.stream] = arrival
                    st.stream_src[op.stream] = -1
            else:
                partial = dataclasses.replace(ir, ops=(op,))
                st.replay(partial, spec)
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
            t = max(st.elapsed for st in states)
            for st in states:
                st.advance_to(t)
            for i in at_barrier:
                pos[i] += 1
            continue
        if not progressed:
            raise ValueError(
                "cluster timing: schedule deadlocks — run analyze_cluster_hb"
            )

    makespan = max(st.elapsed for st in states)
    busy = {e: sum(st.busy[e] for st in states) for e in _ENGINES}
    net = sum(
        seconds
        for st in states
        for engine, seconds in st.busy.items()
        if engine.startswith("net:")
    )
    serial = busy["compute"] + busy["h2d"] + busy["d2h"] + net
    max_busy = max(
        max(seconds for seconds in st.busy.values()) for st in states
    )
    binding = max(states, key=lambda st: st.elapsed)
    device = f"{irs[0].device.split('#')[0]}×{len(irs)}"
    return TimingReport(
        algorithm=irs[0].algorithm,
        device=device,
        makespan=makespan,
        compute_seconds=busy["compute"],
        h2d_seconds=busy["h2d"],
        d2h_seconds=busy["d2h"],
        serial_seconds=serial,
        overlap_efficiency=_overlap_efficiency(serial, max_busy, makespan),
        num_timed_ops=sum(len(st.timed) for st in states),
        net_seconds=net,
        critical_path=binding.critical_path(),
    )


@dataclass(frozen=True)
class TimingCalibration:
    """Optional rate overrides for the timing pass.

    ``from_bench`` derives them from the measured sweeps checked into the
    repo: the **autotuned winner** for this machine's fingerprint in
    ``BENCH_kernels.json`` (``python -m repro tune-kernels``) replaces the
    simulated ``minplus_rate`` (so the DAG predicts host wall-clock off
    the kernel that will actually run); with no tuned entry, the best
    bit-identical sweep row is the fallback. ``BENCH_transfers.json`` is
    cross-checked to exist as the transfer-volume baseline the DAG's copy
    set must match. With no calibration the pass targets the simulated
    device exactly.
    """

    minplus_rate: float | None = None

    def apply(self, spec: DeviceSpec) -> DeviceSpec:
        if self.minplus_rate is None:
            return spec
        return dataclasses.replace(spec, minplus_rate=self.minplus_rate)

    @classmethod
    def from_bench(
        cls,
        kernels_path: Path | str | None = None,
        transfers_path: Path | str | None = None,
    ) -> "TimingCalibration":
        root = Path(__file__).resolve().parents[3]
        kernels_path = Path(kernels_path) if kernels_path else root / "BENCH_kernels.json"
        if transfers_path is not None and not Path(transfers_path).exists():
            raise FileNotFoundError(transfers_path)
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
