"""Happens-before model checker over the symbolic schedule IR.

The dynamic sanitizer (:mod:`repro.sanitize.sanitizer`) certifies the one
interleaving a run happened to take. This module proves the stronger
property *statically*: for a :class:`~repro.verifyplan.ir.PlanIR`, which
carries the driver's own stream/event structure, it computes the
**must-happen-before** relation — the partial order induced only by

* program order within each stream,
* ``record``/``wait`` event edges (the recorded stream's clock snapshot
  joined into the waiting stream), and
* host-clock joins from synchronous copies, frees, and barriers
  (``cudaMemcpy``/``cudaFree`` semantics, identical to the sanitizer),

and checks that **every** pair of byte-overlapping conflicting accesses
on different streams is ordered by it. Because the relation contains no
data- or timing-dependent edges, ordering under it holds in *every*
legal interleaving, not just the traced one: "no defect possible", not
"no defect seen".

Deadlock-freedom falls out structurally: the checker verifies that every
``wait`` names an event recorded **earlier in enqueue order** (a wait on
a never-recorded event is reported as ``unsatisfiable-wait``). Program
order edges also point forward in enqueue order, so the synchronisation
graph is a DAG by construction — acyclic, with every wait satisfiable.

A third pass flags **dead events**: a record no wait ever consumes
orders nothing and is either leftover scaffolding or a dropped-edge bug
in the making. Detection is per record instance; reporting groups the
orphans per ``(stream, event-name)`` site (lint rule RPR007 is the
source-level twin of this check).

The vector-clock machinery deliberately mirrors the sanitizer op for op
(host-clock inheritance at enqueue, snapshot-on-record, join-on-wait) so
the static and dynamic analyses agree on what "ordered" means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.verifyplan.ir import (
    AllocOp,
    BarrierOp,
    CopyOp,
    FreeOp,
    KernelOp,
    PlanIR,
    RecordOp,
    Rect,
    RecvOp,
    SendOp,
    WaitOp,
)

__all__ = [
    "HBFinding",
    "HBReport",
    "analyze_cluster_hb",
    "analyze_hb",
    "merge_hb_reports",
]

#: cap per-buffer conflict findings, like the sanitizer: one bad edge can
#: produce hundreds of textually identical pairs
_MAX_PER_BUFFER = 8

Clock = dict[str, int]


def _join(into: Clock, other: Clock) -> None:
    for key, value in other.items():
        if value > into.get(key, -1):
            into[key] = value


@dataclass(frozen=True)
class _HBOp:
    """One clocked operation (copy or kernel) on a stream."""

    seq: int
    stream: str
    name: str
    index: int
    clock: Clock

    @property
    def label(self) -> str:
        return f"#{self.seq}:{self.name}@{self.stream}"


@dataclass(frozen=True)
class _HBAccess:
    op: _HBOp
    kind: str  # "read" | "write"
    rect: Rect


def _happens_before(a: _HBOp, b: _HBOp) -> bool:
    return b.clock.get(a.stream, -1) >= a.index


@dataclass(frozen=True)
class HBFinding:
    """One ordering defect proven possible in some interleaving."""

    #: ``unordered-conflict`` | ``unsatisfiable-wait`` | ``dead-event``
    kind: str
    buffer: str
    streams: tuple[str, ...]
    first: str
    second: str
    detail: str

    def describe(self) -> str:
        where = f" on {self.buffer}" if self.buffer else ""
        return (
            f"[{self.kind}]{where} streams={'/'.join(self.streams)}: "
            f"{self.first} vs {self.second} — {self.detail}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "buffer": self.buffer,
            "streams": list(self.streams),
            "first": self.first,
            "second": self.second,
            "detail": self.detail,
        }


@dataclass
class HBReport:
    """Result of the happens-before closure over one driver's IR."""

    algorithm: str
    device: str
    num_ops: int = 0
    num_streams: int = 0
    num_events: int = 0
    num_waits: int = 0
    findings: list[HBFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        head = (
            f"{self.algorithm} on {self.device}: {self.num_ops} clocked ops, "
            f"{self.num_streams} stream(s), {self.num_events} event(s), "
            f"{self.num_waits} wait(s)"
        )
        if self.ok:
            return head + " — every conflicting access ordered in all interleavings"
        lines = [head + f" — {len(self.findings)} finding(s):"]
        lines += ["  " + f.describe() for f in self.findings]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "device": self.device,
            "ok": self.ok,
            "num_ops": self.num_ops,
            "num_streams": self.num_streams,
            "num_events": self.num_events,
            "num_waits": self.num_waits,
            "findings": [f.to_dict() for f in self.findings],
        }


def analyze_hb(ir: PlanIR) -> HBReport:
    """Compute the must-happen-before closure of ``ir`` and scan it.

    Returns an :class:`HBReport` whose findings list every cross-stream
    conflicting access pair no synchronisation edge orders (with the
    block rectangles of both sides), every wait on a never-recorded
    event, and every dead record site.
    """
    stream_clock: dict[str, Clock] = {}
    stream_index: dict[str, int] = {}
    host_clock: Clock = {}
    event_clock: dict[int, Clock] = {}
    #: event id -> (stream, name, record label)
    record_sites: dict[int, tuple[str, str, str]] = {}
    waited: set[int] = set()
    accesses: dict[int, list[_HBAccess]] = {}
    findings: list[HBFinding] = []
    seq = 0
    num_waits = 0

    def clock_of(stream: str) -> Clock:
        if stream not in stream_clock:
            stream_clock[stream] = {}
            stream_index[stream] = 0
        return stream_clock[stream]

    def new_op(stream: str, name: str) -> _HBOp:
        nonlocal seq
        clock = clock_of(stream)
        _join(clock, host_clock)
        index = stream_index[stream]
        stream_index[stream] = index + 1
        clock[stream] = index
        op = _HBOp(seq=seq, stream=stream, name=name, index=index, clock=dict(clock))
        seq += 1
        return op

    def touch(op: _HBOp, buffer: int, kind: str, rect: Rect) -> None:
        if not rect.empty:
            accesses.setdefault(buffer, []).append(_HBAccess(op, kind, rect))

    for pos, op in enumerate(ir.ops):
        if isinstance(op, AllocOp):
            accesses.setdefault(op.buffer, [])
        elif isinstance(op, (FreeOp, BarrierOp)):
            # legacy cudaFree / fleet barrier: device-wide sync — all
            # in-flight work joins the host clock (sanitizer on_free)
            for clock in stream_clock.values():
                _join(host_clock, clock)
        elif isinstance(op, CopyOp):
            hb_op = new_op(op.stream, op.kind)
            touch(hb_op, op.access.buffer,
                  "write" if op.kind == "h2d" else "read", op.access.rect)
            if op.sync:
                _join(host_clock, hb_op.clock)
        elif isinstance(op, KernelOp):
            # annotate ops are full sanitizer ops too — they tick the clock
            hb_op = new_op(op.stream, op.name)
            for acc in op.reads:
                touch(hb_op, acc.buffer, "read", acc.rect)
            for acc in op.writes:
                touch(hb_op, acc.buffer, "write", acc.rect)
        elif isinstance(op, SendOp):
            # async network ops order within their stream only; the
            # cross-rank edges live in analyze_cluster_hb
            hb_op = new_op(op.stream, f"send:{op.tag}")
            touch(hb_op, op.access.buffer, "read", op.access.rect)
        elif isinstance(op, RecvOp):
            hb_op = new_op(op.stream, f"recv:{op.tag}")
            touch(hb_op, op.access.buffer, "write", op.access.rect)
        elif isinstance(op, RecordOp):
            event_clock[op.event] = dict(clock_of(op.stream))
            record_sites[op.event] = (
                op.stream, op.name, f"record({op.name})@{op.stream}#op{pos}"
            )
        elif isinstance(op, WaitOp):
            num_waits += 1
            snapshot = event_clock.get(op.event)
            if snapshot is None:
                findings.append(HBFinding(
                    kind="unsatisfiable-wait",
                    buffer="",
                    streams=(op.stream,),
                    first=f"wait(event#{op.event})@{op.stream}#op{pos}",
                    second="<no earlier record>",
                    detail=(
                        "wait names an event no earlier enqueued record "
                        "produces — the waiting stream blocks forever "
                        "(dropped record edge)"
                    ),
                ))
            else:
                waited.add(op.event)
                _join(clock_of(op.stream), snapshot)

    # --- race scan: every cross-stream conflicting overlapping pair must
    # be ordered by the closure -------------------------------------------
    for buf_id, accs in accesses.items():
        buf = ir.buffers[buf_id]
        emitted = 0
        seen: set[tuple] = set()
        for i, first in enumerate(accs):
            if emitted >= _MAX_PER_BUFFER:
                break
            for second in accs[i + 1:]:
                if first.op.stream == second.op.stream:
                    continue
                if first.kind == "read" and second.kind == "read":
                    continue
                if not first.rect.overlaps(second.rect):
                    continue
                if _happens_before(first.op, second.op) or _happens_before(
                    second.op, first.op
                ):
                    continue
                dedup = (
                    first.kind, second.kind,
                    first.op.stream, second.op.stream,
                    first.op.name, second.op.name,
                )
                if dedup in seen:
                    continue
                seen.add(dedup)
                findings.append(HBFinding(
                    kind="unordered-conflict",
                    buffer=buf.name,
                    streams=(first.op.stream, second.op.stream),
                    first=f"{first.op.label} {first.kind}s {buf.name}{first.rect}",
                    second=f"{second.op.label} {second.kind}s {buf.name}{second.rect}",
                    detail=(
                        f"no happens-before path orders these accesses to "
                        f"{buf.name}{first.rect}∩{second.rect} in some "
                        f"interleaving ({first.kind}-{second.kind} conflict)"
                    ),
                ))
                emitted += 1
                if emitted >= _MAX_PER_BUFFER:
                    break

    # --- dead events: records never consumed by any wait ------------------
    # Per-instance check (any unwaited record is an orphan edge), grouped
    # per (stream, name) site for reporting so one elision bug does not
    # drown the report in per-iteration duplicates.
    site_dead: dict[tuple[str, str], list[int]] = {}
    for event_id, (stream, name, _label) in record_sites.items():
        if event_id not in waited:
            site_dead.setdefault((stream, name), []).append(event_id)
    for (stream, name), event_ids in site_dead.items():
        first_label = record_sites[event_ids[0]][2]
        findings.append(HBFinding(
            kind="dead-event",
            buffer="",
            streams=(stream,),
            first=first_label,
            second="<never waited>",
            detail=(
                f"event '{name}' has {len(event_ids)} record(s) on "
                f"{stream} that no wait ever consumes — the edge orders "
                "nothing (orphan record)"
            ),
        ))

    return HBReport(
        algorithm=ir.algorithm,
        device=ir.device,
        num_ops=seq,
        num_streams=len(stream_index),
        num_events=len(record_sites),
        num_waits=num_waits,
        findings=findings,
    )


class _RankState:
    """Per-rank vector-clock cursor for the cross-node HB closure.

    Stream keys are globally namespaced (``r<rank>/<stream>``) so clocks
    from every rank live in one vector-clock space; a recv joining a
    send's snapshot therefore transfers the sender's cross-rank history
    into the receiving stream.
    """

    def __init__(self, ir: PlanIR, seq: list[int]) -> None:
        self.ir = ir
        self.rank = ir.rank
        self.pos = 0
        self._seq = seq
        self.stream_clock: dict[str, Clock] = {}
        self.stream_index: dict[str, int] = {}
        self.host_clock: Clock = {}
        self.event_clock: dict[int, Clock] = {}
        self.record_sites: dict[int, tuple[str, str, str]] = {}
        self.waited: set[int] = set()
        self.num_waits = 0

    @property
    def done(self) -> bool:
        return self.pos >= len(self.ir.ops)

    @property
    def head(self):
        return self.ir.ops[self.pos]

    def sname(self, stream: str) -> str:
        return f"r{self.rank}/{stream}"

    def clock_of(self, stream: str) -> Clock:
        key = self.sname(stream)
        if key not in self.stream_clock:
            self.stream_clock[key] = {}
            self.stream_index[key] = 0
        return self.stream_clock[key]

    def new_op(self, stream: str, name: str) -> _HBOp:
        key = self.sname(stream)
        clock = self.clock_of(stream)
        _join(clock, self.host_clock)
        index = self.stream_index[key]
        self.stream_index[key] = index + 1
        clock[key] = index
        op = _HBOp(
            seq=self._seq[0], stream=key, name=name, index=index,
            clock=dict(clock),
        )
        self._seq[0] += 1
        return op


@dataclass(frozen=True)
class _PendingSend:
    hb: _HBOp
    key: tuple
    rect: Rect
    nbytes: int
    pos: int


def analyze_cluster_hb(
    irs: list[PlanIR], *, node_names: dict[int, str] | None = None
) -> HBReport:
    """Cross-node happens-before closure over one IR per cluster rank.

    Extends :func:`analyze_hb` with the inter-node edges: sends are
    buffered (the sender continues), each recv joins the vector-clock
    snapshot of the FIFO-matched send on its ``(src, dst, tag)`` channel,
    and a :class:`~repro.verifyplan.ir.BarrierOp` is a *fleet* barrier
    joining every rank's clocks. On top of the per-rank race/dead-event/
    unsatisfiable-wait scans this proves, in every interleaving:

    * **every recv matched** — a recv whose channel can never produce is
      ``orphaned-recv`` (mismatched-rank wiring, dropped broadcast);
    * **no orphaned sends** — a buffered message nobody receives is
      ``orphaned-send`` (duplicated collective contribution);
    * **no deadlocked collective** — ranks mutually blocked on recvs (or
      on recvs whose senders sit behind a fleet barrier) are a
      ``circular-wait``;
    * **version integrity** — a matched pair whose logical block keys
      disagree is a ``key-mismatch`` (the bytes arrive, but they are the
      wrong block).

    Findings carry node, link (``src→dst``), and block-rectangle
    attribution via ``node_names`` (rank id → display name).
    """
    names = dict(node_names or {})

    def rname(rank: int) -> str:
        return names.get(rank, f"rank{rank}")

    findings: list[HBFinding] = []
    seq = [0]
    states = [_RankState(ir, seq) for ir in irs]
    by_rank = {st.rank: st for st in states}
    #: (src, dst, tag) -> FIFO of buffered sends
    channels: dict[tuple[int, int, str], list[_PendingSend]] = {}
    accesses: dict[tuple[int, int], list[_HBAccess]] = {}

    def touch(st: _RankState, hb_op: _HBOp, buffer: int, kind: str,
              rect: Rect) -> None:
        if not rect.empty:
            accesses.setdefault((st.rank, buffer), []).append(
                _HBAccess(hb_op, kind, rect)
            )

    def step_local(st: _RankState) -> bool:
        """Process one non-blocking op; False when blocked or done."""
        if st.done:
            return False
        op = st.head
        if isinstance(op, (BarrierOp, RecvOp)):
            return False  # handled by the fleet loop
        if isinstance(op, AllocOp):
            accesses.setdefault((st.rank, op.buffer), [])
        elif isinstance(op, FreeOp):
            for clock in st.stream_clock.values():
                _join(st.host_clock, clock)
        elif isinstance(op, CopyOp):
            hb_op = st.new_op(op.stream, op.kind)
            touch(st, hb_op, op.access.buffer,
                  "write" if op.kind == "h2d" else "read", op.access.rect)
            if op.sync:
                _join(st.host_clock, hb_op.clock)
        elif isinstance(op, KernelOp):
            hb_op = st.new_op(op.stream, op.name)
            for acc in op.reads:
                touch(st, hb_op, acc.buffer, "read", acc.rect)
            for acc in op.writes:
                touch(st, hb_op, acc.buffer, "write", acc.rect)
        elif isinstance(op, SendOp):
            hb_op = st.new_op(op.stream, f"send:{op.tag}")
            touch(st, hb_op, op.access.buffer, "read", op.access.rect)
            channels.setdefault((st.rank, op.dst, op.tag), []).append(
                _PendingSend(
                    hb=hb_op, key=op.key, rect=op.access.rect,
                    nbytes=op.access.nbytes, pos=st.pos,
                )
            )
        elif isinstance(op, RecordOp):
            st.event_clock[op.event] = dict(st.clock_of(op.stream))
            st.record_sites[op.event] = (
                st.sname(op.stream), op.name,
                f"record({op.name})@{st.sname(op.stream)}#op{st.pos}",
            )
        elif isinstance(op, WaitOp):
            st.num_waits += 1
            snapshot = st.event_clock.get(op.event)
            if snapshot is None:
                findings.append(HBFinding(
                    kind="unsatisfiable-wait",
                    buffer="",
                    streams=(st.sname(op.stream),),
                    first=f"wait(event#{op.event})@{st.sname(op.stream)}"
                          f"#op{st.pos}",
                    second="<no earlier record>",
                    detail="wait names an event no earlier enqueued record "
                           "produces (dropped record edge)",
                ))
            else:
                st.waited.add(op.event)
                _join(st.clock_of(op.stream), snapshot)
        # CollectiveOp markers and any other op kinds are clockless
        st.pos += 1
        return True

    def exec_recv(st: _RankState, joined: _PendingSend | None) -> None:
        """Clock the recv at ``st.head`` (joining the matched send)."""
        op = st.head
        if joined is not None:
            _join(st.clock_of(op.stream), joined.hb.clock)
        hb_op = st.new_op(op.stream, f"recv:{op.tag}")
        touch(st, hb_op, op.access.buffer, "write", op.access.rect)
        if joined is not None:
            if joined.key != op.key:
                findings.append(HBFinding(
                    kind="key-mismatch",
                    buffer=str(op.key),
                    streams=(joined.hb.stream, hb_op.stream),
                    first=f"{joined.hb.label} sends block {joined.key}",
                    second=f"{hb_op.label} expects block {op.key}",
                    detail=(
                        f"link {rname(joined_src(op))}→{rname(st.rank)} "
                        f"tag {op.tag!r}: matched message carries "
                        f"{joined.key} but the receiver binds it to "
                        f"{op.key} — wrong block version"
                    ),
                ))
            elif not _happens_before(joined.hb, hb_op):  # pragma: no cover
                findings.append(HBFinding(
                    kind="unordered-conflict",
                    buffer=str(op.key),
                    streams=(joined.hb.stream, hb_op.stream),
                    first=joined.hb.label,
                    second=hb_op.label,
                    detail="matched send does not happen-before its recv",
                ))
        st.pos += 1

    def joined_src(op) -> int:
        return op.src

    # --- fleet progress loop ---------------------------------------------
    while True:
        progressed = False
        for st in states:
            while step_local(st):
                progressed = True
            if not st.done and isinstance(st.head, RecvOp):
                op = st.head
                pending = channels.get((op.src, st.rank, op.tag))
                if pending:
                    exec_recv(st, pending.pop(0))
                    progressed = True
                    while step_local(st):
                        pass
        if all(st.done for st in states):
            break
        at_barrier = [
            st for st in states
            if not st.done and isinstance(st.head, BarrierOp)
        ]
        if at_barrier and all(
            st.done or isinstance(st.head, BarrierOp) for st in states
        ):
            # fleet barrier: everything enqueued so far on any rank
            # happens-before everything after the barrier on every rank
            joined: Clock = {}
            for st in states:
                _join(joined, st.host_clock)
                for clock in st.stream_clock.values():
                    _join(joined, clock)
            for st in at_barrier:
                st.host_clock = dict(joined)
                st.pos += 1
            continue
        if progressed:
            continue
        # --- stall: no rank can advance — classify every blocked recv ----
        blocked = [
            st for st in states if not st.done and isinstance(st.head, RecvOp)
        ]
        for st in blocked:
            op = st.head
            sender = by_rank.get(op.src)
            link = f"{rname(op.src)}→{rname(st.rank)}"
            # a sender that is finished — or parked at a fleet barrier the
            # receiver itself gates — can never produce the message: the
            # recv is orphaned. Only a sender blocked on its *own* recv
            # forms a genuine wait cycle.
            if (
                sender is None
                or sender.done
                or isinstance(sender.head, BarrierOp)
            ):
                findings.append(HBFinding(
                    kind="orphaned-recv",
                    buffer=str(op.key),
                    streams=(st.sname(op.stream),),
                    first=f"recv(tag={op.tag!r})@{st.sname(op.stream)}"
                          f"#op{st.pos}",
                    second="<no matching send>",
                    detail=(
                        f"link {link} block {op.key} "
                        f"{op.access.rect}: {rname(op.src)} enqueues no "
                        f"matching send — mismatched rank or dropped "
                        f"message; {rname(st.rank)} blocks forever"
                    ),
                ))
            else:
                findings.append(HBFinding(
                    kind="circular-wait",
                    buffer=str(op.key),
                    streams=(st.sname(op.stream), sender.sname("default")),
                    first=f"recv(tag={op.tag!r})@{st.sname(op.stream)}"
                          f"#op{st.pos}",
                    second=f"{rname(op.src)} blocked at op#{sender.pos}",
                    detail=(
                        f"link {link} block {op.key}: the matching send "
                        f"sits behind {rname(op.src)}'s own blocked "
                        f"op — deadlocked collective (circular wait)"
                    ),
                ))
        if not blocked:  # pragma: no cover - defensive
            break
        for st in blocked:  # force-advance to surface further findings
            exec_recv(st, None)

    # --- orphaned sends ---------------------------------------------------
    for (src, dst, tag), pending in channels.items():
        for entry in pending:
            findings.append(HBFinding(
                kind="orphaned-send",
                buffer=str(entry.key),
                streams=(entry.hb.stream,),
                first=f"{entry.hb.label} ({entry.nbytes} B)",
                second="<never received>",
                detail=(
                    f"link {rname(src)}→{rname(dst)} tag {tag!r} block "
                    f"{entry.key} {entry.rect}: no recv consumes this "
                    f"message — duplicated contribution or dropped "
                    f"receive edge"
                ),
            ))

    # --- per-rank race scan (global clocks, rank-local buffers) ----------
    for (rank, buf_id), accs in accesses.items():
        buf = by_rank[rank].ir.buffers[buf_id]
        emitted = 0
        seen: set[tuple] = set()
        for i, first in enumerate(accs):
            if emitted >= _MAX_PER_BUFFER:
                break
            for second in accs[i + 1:]:
                if first.op.stream == second.op.stream:
                    continue
                if first.kind == "read" and second.kind == "read":
                    continue
                if not first.rect.overlaps(second.rect):
                    continue
                if _happens_before(first.op, second.op) or _happens_before(
                    second.op, first.op
                ):
                    continue
                dedup = (
                    first.kind, second.kind,
                    first.op.stream, second.op.stream,
                    first.op.name, second.op.name,
                )
                if dedup in seen:
                    continue
                seen.add(dedup)
                findings.append(HBFinding(
                    kind="unordered-conflict",
                    buffer=f"{rname(rank)}:{buf.name}",
                    streams=(first.op.stream, second.op.stream),
                    first=f"{first.op.label} {first.kind}s "
                          f"{buf.name}{first.rect}",
                    second=f"{second.op.label} {second.kind}s "
                           f"{buf.name}{second.rect}",
                    detail=(
                        f"no happens-before path orders these accesses on "
                        f"{rname(rank)} in some interleaving "
                        f"({first.kind}-{second.kind} conflict)"
                    ),
                ))
                emitted += 1
                if emitted >= _MAX_PER_BUFFER:
                    break

    # --- dead events per rank --------------------------------------------
    for st in states:
        site_dead: dict[tuple[str, str], list[int]] = {}
        for event_id, (stream, name, _label) in st.record_sites.items():
            if event_id not in st.waited:
                site_dead.setdefault((stream, name), []).append(event_id)
        for (stream, name), event_ids in site_dead.items():
            findings.append(HBFinding(
                kind="dead-event",
                buffer="",
                streams=(stream,),
                first=st.record_sites[event_ids[0]][2],
                second="<never waited>",
                detail=(
                    f"event '{name}' has {len(event_ids)} record(s) on "
                    f"{stream} that no wait ever consumes (orphan record)"
                ),
            ))

    base = irs[0].device.split("#")[0] if irs else "cluster"
    return HBReport(
        algorithm=irs[0].algorithm if irs else "",
        device=f"{base}×{len(irs)}",
        num_ops=seq[0],
        num_streams=sum(len(st.stream_index) for st in states),
        num_events=sum(len(st.record_sites) for st in states),
        num_waits=sum(st.num_waits for st in states),
        findings=findings,
    )


def merge_hb_reports(reports: list[HBReport]) -> HBReport:
    """Fold per-device reports (multi-GPU) into one fleet report."""
    if not reports:
        return HBReport(algorithm="", device="")
    merged = HBReport(
        algorithm=reports[0].algorithm,
        device=f"{reports[0].device.split('#')[0]}×{len(reports)}",
    )
    for report in reports:
        merged.num_ops += report.num_ops
        merged.num_streams += report.num_streams
        merged.num_events += report.num_events
        merged.num_waits += report.num_waits
        merged.findings.extend(report.findings)
    return merged
