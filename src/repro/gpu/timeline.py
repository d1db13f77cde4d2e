"""The simulated clock: one scheduling rule for runs and replays.

A :class:`Clock` holds the ready times of the host thread, of every stream
and of every *engine* — an independent hardware queue. A device starts with
three, mirroring a real GPU with dual copy engines:

* ``"compute"`` — kernels from all streams serialise here,
* ``"h2d"`` — host-to-device copies,
* ``"d2h"`` — device-to-host copies.

Other engines are created on first use: ``"host"`` carries the retry
backoff after injected transient faults (so fault-free runs never create
it), and a cluster rank's ``"net:a->b"`` engines are its outgoing links.

An op starts when its stream, the host and its engine are all free
(``start = max(stream, host, engine)``), runs for its modelled duration and
advances its stream and its engine. This is the standard greedy list
schedule; with it, compute and copies on different streams genuinely
overlap, which is what the paper's double-buffering optimisation exploits
(Section III-C).

The device (:mod:`repro.gpu.stream`), the static IR replay
(:mod:`repro.verifyplan.timing`) and the cluster model
(:mod:`repro.cluster.simulate`) all drive this one class, so a run and a
replay differ only in how each turns its ops into clock calls. Each op
links the predecessor that bound its start — on ties the stream before
the host, the host before the engine. A barrier floor links the op that
set the fleet time and a recv links its send, so :meth:`Clock.critical_path`
crosses devices and ranks. :func:`timing_report` summarises clocks as one
:class:`TimingReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["Clock", "ClockOp", "TimingReport", "fleet_floor", "timing_report"]

#: the engines every clock starts with, in predecessor tie-break order
ENGINES = ("compute", "h2d", "d2h")
#: the engine (and stream) that retry backoff occupies
HOST = "host"


class ClockOp:
    """One scheduled op (kernel, copy, message or host stall)."""

    __slots__ = ("engine", "stream", "name", "start", "end", "nbytes", "pred")

    def __init__(self, engine: str, stream: str, name: str, start: float,
                 end: float, nbytes: int = 0, pred: "ClockOp | None" = None) -> None:
        self.engine = engine
        self.stream = stream
        self.name = name
        self.start = start
        self.end = end
        self.nbytes = nbytes
        #: the op whose completion bound this op's start (None: time zero)
        self.pred = pred

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ClockOp({self.name!r}@{self.engine}/{self.stream}, "
                f"{self.start:.6g}..{self.end:.6g})")


class Clock:
    """Host, stream and engine ready times plus the trace of scheduled ops.

    With ``record_trace=False`` the clock keeps neither the trace nor the
    predecessor links — a long-lived device would otherwise retain its
    whole history — so :meth:`busy_time` and :meth:`critical_path` see
    nothing; ``busy`` and ``num_ops`` still count every op.
    """

    def __init__(self, *, record_trace: bool = True) -> None:
        self.record_trace = record_trace
        self.reset()

    def reset(self) -> None:
        """Zero every ready time and clear the trace."""
        self.host_ready = 0.0
        self._host_src: ClockOp | None = None
        self._stream: dict[str, float] = {}
        self._stream_src: dict[str, ClockOp | None] = {}
        self._engine: dict[str, float] = dict.fromkeys(ENGINES, 0.0)
        self._engine_src: dict[str, ClockOp | None] = dict.fromkeys(ENGINES)
        #: summed op durations per engine, every engine in creation order
        self.busy: dict[str, float] = dict.fromkeys(ENGINES, 0.0)
        self.ops: list[ClockOp] = []
        self.num_ops = 0

    # ------------------------------------------------------------------
    # ready times
    # ------------------------------------------------------------------
    def stream_ready(self, stream: str) -> float:
        return self._stream.get(stream, 0.0)

    def engine_ready(self, engine: str) -> float:
        return self._engine.get(engine, 0.0)

    @property
    def elapsed(self) -> float:
        """Current time: the host or the last engine to finish."""
        return max(self.host_ready, max(self._engine.values()))

    @property
    def tail(self) -> ClockOp | None:
        """The op that set :attr:`elapsed` (the host's, on a tie)."""
        peak = max(self._engine.values())
        if self.host_ready >= peak:
            return self._host_src
        engine = max(self._engine, key=self._engine.__getitem__)
        return self._engine_src[engine]

    def _raise_host(self, t: float, src: ClockOp | None) -> None:
        if t > self.host_ready:
            self.host_ready, self._host_src = t, src

    def _raise_stream(self, stream: str, t: float, src: ClockOp | None) -> None:
        if t > self._stream.get(stream, 0.0):
            self._stream[stream], self._stream_src[stream] = t, src

    # ------------------------------------------------------------------
    # the rule
    # ------------------------------------------------------------------
    def schedule(self, engine: str, stream: str, duration: float, *,
                 name: str = "", nbytes: int = 0) -> ClockOp:
        """Run one op on ``engine`` once its stream, the host and the
        engine are free; advances the stream and the engine."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        ready = self._engine.get(engine)
        if ready is None:
            ready = self._engine[engine] = 0.0
            self._engine_src[engine] = None
            self.busy[engine] = 0.0
        lane = self._stream.get(stream, 0.0)
        host = self.host_ready
        if lane >= host and lane >= ready:
            start, pred = lane, self._stream_src.get(stream)
        elif host >= ready:
            start, pred = host, self._host_src
        else:
            start, pred = ready, self._engine_src[engine]
        op = ClockOp(engine, stream, name, start, start + duration, nbytes,
                     pred if self.record_trace else None)
        self._stream[stream] = self._engine[engine] = op.end
        self._stream_src[stream] = self._engine_src[engine] = op
        self.busy[engine] += duration
        self.num_ops += 1
        if self.record_trace:
            self.ops.append(op)
        return op

    def launch(self, stream: str, name: str, duration: float, *,
               overhead: float) -> ClockOp:
        """A kernel: the host pays the launch ``overhead`` first, then the
        kernel runs on the compute engine."""
        self.host_ready += overhead
        return self.schedule("compute", stream, duration, name=name)

    def copy(self, engine: str, stream: str, name: str, duration: float, *,
             nbytes: int = 0, sync: bool = True, overhead: float = 0.0) -> ClockOp:
        """A copy: a synchronous one floors the host at its end, an
        asynchronous one charges the host the enqueue ``overhead``."""
        op = self.schedule(engine, stream, duration, name=name, nbytes=nbytes)
        if sync:
            self._raise_host(op.end, op)
        else:
            self.host_ready += overhead
        return op

    def send(self, src: int, dst: int, stream: str, name: str,
             duration: float) -> ClockOp:
        """A message on the directed link engine ``net:src->dst``; its
        ``end`` is the arrival time."""
        return self.schedule(f"net:{src}->{dst}", stream, duration, name=name)

    def recv(self, stream: str, send: ClockOp) -> None:
        """Floor ``stream`` at a message's arrival, linked to its send."""
        self._raise_stream(stream, send.end, send)

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def record(self, stream: str) -> tuple[float, ClockOp | None]:
        """An event mark: the stream's ready time and the op that set it."""
        return self._stream.get(stream, 0.0), self._stream_src.get(stream)

    def wait(self, stream: str, mark: tuple[float, ClockOp | None]) -> None:
        """Make later work on ``stream`` wait for an event ``mark``."""
        self._raise_stream(stream, *mark)

    def sync_stream(self, stream: str) -> float:
        """Block the host until ``stream`` drains; returns the host time."""
        self._raise_host(self._stream.get(stream, 0.0), self._stream_src.get(stream))
        return self.host_ready

    def synchronize(self) -> float:
        """Block the host until every engine drains; returns the host time."""
        self._raise_host(max(self._engine.values()), self.tail)
        return self.host_ready

    def floor(self, t: float, src: ClockOp | None = None) -> None:
        """Barrier floor: no host, stream or engine work starts before
        ``t``; ``src`` is the op that set ``t``."""
        self._raise_host(t, src)
        for ready, srcs in ((self._stream, self._stream_src),
                            (self._engine, self._engine_src)):
            for key, value in ready.items():
                if t > value:
                    ready[key], srcs[key] = t, src

    # ------------------------------------------------------------------
    # run-time fault charges
    # ------------------------------------------------------------------
    def advance_host(self, seconds: float) -> None:
        """Charge the host ``seconds`` (a failed launch's overhead)."""
        self.host_ready += seconds

    def stall_host(self, seconds: float, *, name: str) -> ClockOp:
        """Occupy the host for ``seconds`` on the ``"host"`` engine (retry
        backoff)."""
        op = self.schedule(HOST, HOST, seconds, name=name)
        self._raise_host(op.end, op)
        return op

    # ------------------------------------------------------------------
    # the trace
    # ------------------------------------------------------------------
    def critical_path(self) -> list[ClockOp]:
        """The chain of ops that determines :attr:`elapsed`, earliest first
        (empty without a trace)."""
        path: list[ClockOp] = []
        op = self.tail if self.record_trace else None
        while op is not None:
            path.append(op)
            op = op.pred
        path.reverse()
        return path

    def engine_ops(self, engine: str) -> list[ClockOp]:
        return [op for op in self.ops if op.engine == engine]

    def busy_time(self, engine: str) -> float:
        """Occupied time on ``engine`` summed as end − start over the trace.

        Differs from ``busy[engine]`` (the summed durations) in the last
        bits; the run-time consumers were fitted and pinned on this sum.
        """
        return sum(op.end - op.start for op in self.ops if op.engine == engine)

    def validate(self) -> None:
        """Check scheduling invariants; raises ``AssertionError`` on breach.

        Per-engine ops must be non-overlapping and ordered, and no op may
        have a negative duration. Used by property tests.
        """
        last: dict[str, ClockOp] = {}
        for op in self.ops:
            assert op.end >= op.start, f"negative duration: {op}"
            prev = last.get(op.engine)
            assert prev is None or op.start >= prev.end, (
                f"engine {op.engine} overlap: {prev} then {op}"
            )
            last[op.engine] = op


def fleet_floor(clocks: Iterable[Clock]) -> float:
    """Fleet barrier: floor every clock at the fleet's elapsed time, linked
    to the op that set it; returns that time."""
    clocks = list(clocks)
    binding = max(clocks, key=lambda c: c.elapsed)
    t, src = binding.elapsed, binding.tail
    for clock in clocks:
        clock.floor(t, src)
    return t


@dataclass
class TimingReport:
    """Timing of one schedule on one device (or fleet), run or replayed."""

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
    critical_path: list[ClockOp] = field(default_factory=list)

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
            f"{self.algorithm} on {self.device}: makespan "
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


def timing_report(algorithm: str, device: str, clocks: list[Clock]) -> TimingReport:
    """Summarise the clocks of one device (or fleet) as a :class:`TimingReport`.

    Busy seconds are the summed op durations (``Clock.busy``), the sum the
    replay has always reported and ``BENCH_cluster`` pins. Overlap
    efficiency places the makespan between the fully serialised schedule
    (0.0) and the busiest engine (1.0); the critical path runs back from
    the clock that finishes last. Retry backoff on the ``"host"`` engine
    is a host stall, not device work, and counts in neither.
    """
    busy = {e: sum(c.busy[e] for c in clocks) for e in ENGINES}
    net = sum(
        (seconds for c in clocks for engine, seconds in c.busy.items()
         if engine.startswith("net:")),
        0.0,
    )
    serial = busy["compute"] + busy["h2d"] + busy["d2h"] + net
    max_busy = max(
        seconds for c in clocks for engine, seconds in c.busy.items() if engine != HOST
    )
    binding = max(clocks, key=lambda c: c.elapsed)
    makespan = binding.elapsed
    slack = serial - max_busy
    overlap = 1.0 if slack <= 0.0 else min(1.0, max(0.0, (serial - makespan) / slack))
    return TimingReport(
        algorithm=algorithm,
        device=device,
        makespan=makespan,
        compute_seconds=busy["compute"],
        h2d_seconds=busy["h2d"],
        d2h_seconds=busy["d2h"],
        serial_seconds=serial,
        overlap_efficiency=overlap,
        num_timed_ops=sum(c.num_ops for c in clocks),
        net_seconds=net,
        critical_path=binding.critical_path(),
    )
