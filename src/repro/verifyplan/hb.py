"""Happens-before model checker over the symbolic schedule IR.

For the IRs of one schedule — one for a single device, one per device
for multi-GPU, one per rank for the cluster — this module computes the
**must-happen-before** relation, the partial order induced only by

* program order within each stream,
* ``record``/``wait`` event edges (the recorded stream's clock snapshot
  joined into the waiting stream),
* host-clock joins from synchronous copies and frees
  (``cudaMemcpy``/``cudaFree`` semantics),
* fleet barriers, which join every IR's clocks (a device-wide join when
  the schedule has one IR), and
* messages: each recv joins the clock of the send it matches FIFO on its
  ``(src, dst, tag)`` channel,

and checks that **every** pair of byte-overlapping conflicting accesses
on different streams is ordered by it. Because the relation contains no
data- or timing-dependent edges, ordering under it holds in *every*
legal interleaving, not just one traced run: "no defect possible", not
"no defect seen". The vector clock, the happens-before test and the race
scan live in :mod:`repro.gpu.ordering`; the IRs walk through
:func:`~repro.verifyplan.ir.walk_fleet`, the timing replay's
interleaving rule.

Accesses are device rectangles and **host blocks**. A copy touches its
device rectangle and the host block its ``key`` names: an ``h2d`` reads
the block, a ``d2h`` writes it. All IRs of one schedule share one host,
and two keys name overlapping host bytes when one is a prefix of the
other (``("A", 1)`` holds ``("A", 1, 2)``), so an async download racing
a later upload of the same block is an ``unordered-conflict`` too.

Deadlock-freedom falls out structurally: the checker verifies that every
``wait`` names an event recorded **earlier in enqueue order** (a wait on
a never-recorded event is reported as ``unsatisfiable-wait``). Program
order edges also point forward in enqueue order, so the synchronisation
graph is a DAG by construction — acyclic, with every wait satisfiable.
Across IRs it also proves every recv matched (``orphaned-recv``), every
send received (``orphaned-send``), no collective deadlocked
(``circular-wait``) and every matched message carrying the block its
receiver expects (``key-mismatch``).

A last pass flags **dead events**: a record no wait ever consumes
orders nothing and is either leftover scaffolding or a dropped-edge bug
in the making. Detection is per record instance; reporting groups the
orphans per ``(stream, event-name)`` site (lint rule RPR007 is the
source-level twin of this check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.gpu.ordering import (
    Access,
    OrderedOp,
    VectorClock,
    VectorTime,
    join,
    scan_races,
)
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
    fleet_name,
    walk_fleet,
)

__all__ = ["HBFinding", "HBReport", "analyze_hb", "keys_overlap"]


def keys_overlap(a: tuple, b: tuple) -> bool:
    """Whether host block keys ``a`` and ``b`` name overlapping host
    bytes: one key is a prefix of the other."""
    n = min(len(a), len(b))
    return a[:n] == b[:n]


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
    """Result of the happens-before closure over one schedule's IRs."""

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


def analyze_hb(
    irs: Sequence[PlanIR], *, node_names: dict[int, str] | None = None
) -> HBReport:
    """Compute the must-happen-before closure of one schedule and scan it.

    ``irs`` holds one IR per device (or rank) of the schedule. Returns an
    :class:`HBReport` whose findings list every cross-stream conflicting
    access pair no synchronisation edge orders (with the block rectangles
    of both sides, or the host block keys of two copies), every wait on
    a never-recorded event, every dead record site and, across IRs,
    every unmatched or deadlocked message. With more than one IR, stream
    keys read ``r<rank>/<stream>`` and buffers ``<node>:<buffer>``, where
    ``node_names`` maps a rank to its display name (``rank<r>`` by
    default).
    """
    names = dict(node_names or {})

    def rname(rank: int) -> str:
        return names.get(rank, f"rank{rank}")

    fleet = len(irs) > 1
    prefix = [f"r{ir.rank}/" if fleet else "" for ir in irs]
    by_rank = {ir.rank: i for i, ir in enumerate(irs)}
    clocks = [VectorClock() for _ in irs]
    # per IR: event id -> snapshot, and event id -> (stream, name, label)
    events: list[dict[int, VectorTime]] = [{} for _ in irs]
    record_sites: list[dict[int, tuple[str, str, str]]] = [{} for _ in irs]
    waited: list[set[int]] = [set() for _ in irs]
    accesses: dict[tuple[int, int], list[Access]] = {}
    # the host side of every copy, shared by all IRs: region = block key
    host: list[Access] = []
    findings: list[HBFinding] = []
    num_waits = 0

    def touch(i: int, op: OrderedOp, access, kind: str) -> None:
        if not access.rect.empty:
            accesses.setdefault((i, access.buffer), []).append(
                Access(op, kind, access.rect)
            )

    def visit(i: int, j: int, op, sent: tuple[OrderedOp, SendOp] | None):
        nonlocal num_waits
        vc = clocks[i]
        stream = prefix[i] + getattr(op, "stream", "")
        if isinstance(op, AllocOp):
            accesses.setdefault((i, op.buffer), [])
        elif isinstance(op, FreeOp):
            vc.sync_device()  # legacy cudaFree: device-wide sync
        elif isinstance(op, CopyOp):
            clocked = vc.op(stream, op.kind)
            h2d = op.kind == "h2d"
            touch(i, clocked, op.access, "write" if h2d else "read")
            if not op.access.rect.empty:
                host.append(Access(clocked, "read" if h2d else "write", op.key))
            if op.sync:
                vc.sync_stream(stream)
        elif isinstance(op, KernelOp):
            # annotate ops occupy no timeline slot but order like any op
            clocked = vc.op(stream, op.name)
            for acc in op.reads:
                touch(i, clocked, acc, "read")
            for acc in op.writes:
                touch(i, clocked, acc, "write")
        elif isinstance(op, SendOp):
            clocked = vc.op(stream, f"send:{op.tag}")
            touch(i, clocked, op.access, "read")
            return clocked, op
        elif isinstance(op, RecvOp):
            if sent is not None:
                vc.wait(stream, sent[0].clock)
            clocked = vc.op(stream, f"recv:{op.tag}")
            touch(i, clocked, op.access, "write")
            if sent is not None and sent[1].key != op.key:
                send_op, send = sent
                findings.append(HBFinding(
                    kind="key-mismatch",
                    buffer=str(op.key),
                    streams=(send_op.stream, clocked.stream),
                    first=f"{send_op.label} sends block {send.key}",
                    second=f"{clocked.label} expects block {op.key}",
                    detail=(
                        f"link {rname(op.src)}→{rname(irs[i].rank)} "
                        f"tag {op.tag!r}: matched message carries "
                        f"{send.key} but the receiver binds it to "
                        f"{op.key} — wrong block version"
                    ),
                ))
        elif isinstance(op, RecordOp):
            events[i][op.event] = vc.record(stream)
            record_sites[i][op.event] = (
                stream, op.name, f"record({op.name})@{stream}#op{j}"
            )
        elif isinstance(op, WaitOp):
            num_waits += 1
            snapshot = events[i].get(op.event)
            if snapshot is None:
                findings.append(HBFinding(
                    kind="unsatisfiable-wait",
                    buffer="",
                    streams=(stream,),
                    first=f"wait(event#{op.event})@{stream}#op{j}",
                    second="<no earlier record>",
                    detail=(
                        "wait names an event no earlier enqueued record "
                        "produces — the waiting stream blocks forever "
                        "(dropped record edge)"
                    ),
                ))
            else:
                waited[i].add(op.event)
                vc.wait(stream, snapshot)
        # CollectiveOp markers are clockless
        return None

    def barrier(waiting: list[int]) -> None:
        # everything enqueued so far on any IR happens-before everything
        # after the barrier on every IR
        joined: VectorTime = {}
        for vc in clocks:
            join(joined, vc.frontier())
        for i in waiting:
            clocks[i].host = dict(joined)

    def stall(blocked: list[int], pos: list[int]) -> None:
        # no IR can move: classify every blocked recv, then force it on
        for i in blocked:
            ir = irs[i]
            op = ir.ops[pos[i]]
            stream = prefix[i] + op.stream
            link = f"{rname(op.src)}→{rname(ir.rank)}"
            sender = by_rank.get(op.src)
            # a sender that is finished — or parked at a fleet barrier the
            # receiver itself gates — can never produce the message: the
            # recv is orphaned. Only a sender blocked on its *own* recv
            # forms a genuine wait cycle.
            if (
                sender is None
                or pos[sender] >= len(irs[sender].ops)
                or isinstance(irs[sender].ops[pos[sender]], BarrierOp)
            ):
                findings.append(HBFinding(
                    kind="orphaned-recv",
                    buffer=str(op.key),
                    streams=(stream,),
                    first=f"recv(tag={op.tag!r})@{stream}#op{pos[i]}",
                    second="<no matching send>",
                    detail=(
                        f"link {link} block {op.key} "
                        f"{op.access.rect}: {rname(op.src)} enqueues no "
                        f"matching send — mismatched rank or dropped "
                        f"message; {rname(ir.rank)} blocks forever"
                    ),
                ))
            else:
                findings.append(HBFinding(
                    kind="circular-wait",
                    buffer=str(op.key),
                    streams=(stream, f"{prefix[sender]}default"),
                    first=f"recv(tag={op.tag!r})@{stream}#op{pos[i]}",
                    second=f"{rname(op.src)} blocked at op#{pos[sender]}",
                    detail=(
                        f"link {link} block {op.key}: the matching send "
                        f"sits behind {rname(op.src)}'s own blocked "
                        f"op — deadlocked collective (circular wait)"
                    ),
                ))

    unmatched = walk_fleet(irs, visit, barrier=barrier, stall=stall)

    for (src, dst, tag), queue in unmatched.items():
        for clocked, send in queue:
            findings.append(HBFinding(
                kind="orphaned-send",
                buffer=str(send.key),
                streams=(clocked.stream,),
                first=f"{clocked.label} ({send.access.nbytes} B)",
                second="<never received>",
                detail=(
                    f"link {rname(src)}→{rname(dst)} tag {tag!r} block "
                    f"{send.key} {send.access.rect}: no recv consumes this "
                    f"message — duplicated contribution or dropped "
                    f"receive edge"
                ),
            ))

    # --- race scan: every cross-stream conflicting overlapping pair must
    # be ordered by the closure -------------------------------------------
    def conflict(pairs: list[tuple[Access, Access]], name: str, where: str) -> None:
        for first, second in pairs:
            findings.append(HBFinding(
                kind="unordered-conflict",
                buffer=where,
                streams=(first.op.stream, second.op.stream),
                first=f"{first.op.label} {first.kind}s {name}{first.region}",
                second=f"{second.op.label} {second.kind}s {name}{second.region}",
                detail=(
                    f"no happens-before path orders these accesses to "
                    f"{where}{first.region}∩{second.region} in some "
                    f"interleaving ({first.kind}-{second.kind} conflict)"
                ),
            ))

    for (i, buf_id), accs in accesses.items():
        buf = irs[i].buffers[buf_id]
        where = f"{rname(irs[i].rank)}:{buf.name}" if fleet else buf.name
        conflict(scan_races(accs, Rect.overlaps), buf.name, where)
    conflict(scan_races(host, keys_overlap), "host", "host")

    # --- dead events: records never consumed by any wait ------------------
    # Per-instance check (any unwaited record is an orphan edge), grouped
    # per (stream, name) site for reporting so one elision bug does not
    # drown the report in per-iteration duplicates.
    for sites, consumed in zip(record_sites, waited):
        site_dead: dict[tuple[str, str], list[int]] = {}
        for event_id, (stream, name, _label) in sites.items():
            if event_id not in consumed:
                site_dead.setdefault((stream, name), []).append(event_id)
        for (stream, name), event_ids in site_dead.items():
            findings.append(HBFinding(
                kind="dead-event",
                buffer="",
                streams=(stream,),
                first=sites[event_ids[0]][2],
                second="<never waited>",
                detail=(
                    f"event '{name}' has {len(event_ids)} record(s) on "
                    f"{stream} that no wait ever consumes — the edge orders "
                    "nothing (orphan record)"
                ),
            ))

    return HBReport(
        algorithm=irs[0].algorithm,
        device=fleet_name(irs),
        num_ops=sum(vc.seq for vc in clocks),
        num_streams=sum(len(vc.streams) for vc in clocks),
        num_events=sum(len(sites) for sites in record_sites),
        num_waits=num_waits,
        findings=findings,
    )
