"""Symbolic schedule IR for the static plan verifier.

A :class:`PlanIR` is the *compiled form* of one out-of-core driver's
execution plan: the linear sequence of device allocations, frees, H2D/D2H
copies, and kernel launches the driver would enqueue — with every operand
reduced to a rectangle of a symbolic buffer. Nothing is executed and no
distance matrix exists; the IR carries only shapes, byte counts, and host
block identities, which is all the analyses in
:mod:`repro.verifyplan.analyze` need.

Each out-of-core driver writes its schedule once, as a generator over
an emitter. ``emit_*_ir`` (``repro.core.ooc_fw.emit_fw_ir`` and friends)
runs it into an :class:`IREmitter`; the driver runs the same generator
into :class:`repro.gpu.executor.DeviceEmitter`, which performs every op
on the simulated device. Dynamic patch passes, the query service's
batches and the cluster model are written the same way, so the IR is,
by construction, the schedule that runs.

Conventions:

* buffers are at most 2-D; 1-D buffers of length ``l`` occupy the
  rectangle ``(0, l, 0, 1)``;
* rectangles are half-open ``[r0, r1) × [c0, c1)`` in *buffer* coordinates
  (so disjoint views of one buffer never alias);
* ``key`` on a copy identifies the host-side block the transfer touches —
  e.g. ``("A", i, k)`` for a distance-matrix block — and is what the
  redundant-transfer analysis tracks residency by. Two keys name
  overlapping host bytes when one is a prefix of the other, and the
  happens-before checker orders host accesses by that rule;
* every enqueued op names its ``stream``; cross-stream ordering is
  expressed with :class:`RecordOp`/:class:`WaitOp` event edges and
  :class:`BarrierOp` device-wide joins, mirroring the runtime's
  ``Stream.record``/``Stream.wait``/``_barrier`` exactly so the
  happens-before checker (:mod:`repro.verifyplan.hb`) and the symbolic
  timing pass (:mod:`repro.verifyplan.timing`) see the schedule the
  device runs;
* distributed schedules (:mod:`repro.cluster`) add one IR per rank
  (``PlanIR.rank``), message ops (:class:`SendOp`/:class:`RecvOp`) over
  modeled :class:`LinkSpec` interconnects between :class:`NodeSpec`
  nodes, and :class:`CollectiveOp` markers recording which lowered
  point-to-point pairs implement each collective. A send *reads* its
  source rectangle and a recv *writes* its destination rectangle, so the
  existing def-use and happens-before analyses see the communication
  exactly as they see copies; the volume proofs live in
  :mod:`repro.verifyplan.commbounds`.

A schedule is a list of IRs: one for a single device, one per device for
multi-GPU, one per rank for the cluster. :func:`walk_fleet` is the one
rule for interleaving them (FIFO message matching, barrier release, stall
detection); the happens-before checker and the timing replay both walk
their IRs through it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "Access",
    "AllocOp",
    "BarrierOp",
    "CollectiveOp",
    "CopyOp",
    "FreeOp",
    "IREmitter",
    "KernelOp",
    "LinkSpec",
    "NodeSpec",
    "PlanIR",
    "RecordOp",
    "Rect",
    "RecvOp",
    "SendOp",
    "SymBuffer",
    "SymEvent",
    "WaitOp",
    "fleet_name",
    "walk_fleet",
]


@dataclass(frozen=True)
class Rect:
    """Half-open rectangle ``[r0, r1) × [c0, c1)`` in buffer coordinates."""

    r0: int
    r1: int
    c0: int
    c1: int

    @property
    def rows(self) -> int:
        return max(0, self.r1 - self.r0)

    @property
    def cols(self) -> int:
        return max(0, self.c1 - self.c0)

    @property
    def area(self) -> int:
        return self.rows * self.cols

    @property
    def empty(self) -> bool:
        return self.area == 0

    def overlaps(self, other: "Rect") -> bool:
        """Non-empty byte intersection (empty rects overlap nothing)."""
        if self.empty or other.empty:
            return False
        return (
            self.r0 < other.r1
            and other.r0 < self.r1
            and self.c0 < other.c1
            and other.c0 < self.c1
        )

    def __str__(self) -> str:
        return f"[{self.r0}:{self.r1}, {self.c0}:{self.c1}]"


@dataclass(frozen=True)
class SymBuffer:
    """One symbolic device allocation."""

    id: int
    name: str
    shape: tuple[int, ...]
    itemsize: int = 4
    #: bytes accounted against device capacity (differs from real bytes for
    #: sparse structures on scaled devices, see ``DeviceSpec.sparse_charge_factor``)
    charged_bytes: int = 0
    #: allocated with a fill value (counts as initialised)
    prefilled: bool = False

    @property
    def full_rect(self) -> Rect:
        if len(self.shape) == 1:
            return Rect(0, int(self.shape[0]), 0, 1)
        return Rect(0, int(self.shape[0]), 0, int(self.shape[1]))


@dataclass(frozen=True)
class Access:
    """A rectangle of one buffer, with its transfer/operand byte count."""

    buffer: int
    rect: Rect
    nbytes: int


@dataclass(frozen=True)
class AllocOp:
    buffer: int


@dataclass(frozen=True)
class FreeOp:
    buffer: int


@dataclass(frozen=True)
class CopyOp:
    """One bus transfer; ``kind`` is ``"h2d"`` or ``"d2h"``.

    ``sync`` mirrors ``copy_h2d`` vs ``copy_h2d_async``: a synchronous
    copy joins the host clock (``cudaMemcpy`` semantics); an async one
    only orders within its stream. ``strided`` marks the 2-D row-strided
    transfer (``copy_d2h_2d``), which pays a per-row overhead in the
    timing model instead of the contiguous bulk rate.
    """

    kind: str
    access: Access
    key: tuple
    stream: str = "default"
    sync: bool = True
    strided: bool = False


@dataclass(frozen=True)
class KernelOp:
    """One kernel launch with declared def/use sets.

    ``annotate`` marks host-side work that models a kernel side effect
    (the ``memset`` clearing an accumulation tile): the device runs its
    numerics and launches nothing, the timing pass skips it, and the
    happens-before pass orders its accesses like any op's. ``cost``
    optionally pins the modelled duration in seconds for kernels whose
    cost is data-dependent (Johnson's ``mssp``); when ``None`` the timing
    pass derives the duration from the declared operand rectangles.
    ``key`` optionally names host data a kernel's numerics take, like a
    copy's ``key`` (``min_diag`` reads the ``dist2`` block, ``mssp`` its
    source range, a patch's ``rank1_patch`` its block); the analyses
    ignore it.
    """

    name: str
    reads: tuple[Access, ...]
    writes: tuple[Access, ...]
    stream: str = "default"
    annotate: bool = False
    cost: float | None = None
    key: tuple | None = None


@dataclass(frozen=True)
class SymEvent:
    """One recorded event instance (a fresh ``Event`` in the runtime)."""

    id: int
    name: str


@dataclass(frozen=True)
class RecordOp:
    """``stream.record(Event(name))`` — snapshots the stream's position."""

    event: int
    name: str
    stream: str


@dataclass(frozen=True)
class WaitOp:
    """``stream.wait(event)`` — joins the event's snapshot into ``stream``."""

    event: int
    stream: str


@dataclass(frozen=True)
class BarrierOp:
    """A fleet barrier: every IR of the schedule joins here (a device-wide
    synchronisation when the schedule has one IR)."""

    label: str


@dataclass(frozen=True)
class NodeSpec:
    """One node of a modeled cluster: an id, a name, and its device count."""

    id: int
    name: str
    num_devices: int = 1


@dataclass(frozen=True)
class LinkSpec:
    """α-β cost model of one interconnect class (distinct from PCIe).

    A transfer of ``b`` bytes costs ``latency + b / bandwidth`` seconds;
    transfers over the same directed (src, dst) pair serialise, mirroring
    one DMA engine per link direction.
    """

    name: str
    latency: float  # α, seconds per message
    bandwidth: float  # β, bytes per second

    def duration(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class SendOp:
    """Rendezvous send of ``access`` to rank ``dst`` on channel ``tag``.

    Reads its source rectangle (the HB/def-use analyses treat it like a
    d2h copy's read). ``collective`` names the collective this message
    lowers from (``"bcast"``/``"allgather"``/``"reduce"``/``"scatter"``,
    or ``""`` for a raw point-to-point message); ``key`` is the logical
    host-block identity for attribution.
    """

    dst: int
    tag: str
    access: Access
    key: tuple
    stream: str = "default"
    collective: str = ""


@dataclass(frozen=True)
class RecvOp:
    """Rendezvous receive from rank ``src`` on channel ``tag``.

    Writes its destination rectangle. Matching is FIFO per
    ``(src, dst, tag)`` channel; the cross-node HB pass joins the matched
    send's vector clock into the receiving stream, so everything ordered
    before the send happens-before everything after the recv.
    """

    src: int
    tag: str
    access: Access
    key: tuple
    stream: str = "default"
    collective: str = ""


@dataclass(frozen=True)
class CollectiveOp:
    """Marker recording one collective's membership on a participant rank.

    Clockless (like ``annotate`` kernels): the data movement lives in the
    lowered :class:`SendOp`/:class:`RecvOp` pairs that follow it. The
    marker ties those messages back to the collective for the
    communication-volume proofs and for defect attribution.
    """

    kind: str  # "bcast" | "allgather" | "reduce" | "scatter"
    tag: str
    root: int
    ranks: tuple[int, ...]


@dataclass(frozen=True)
class PlanIR:
    """The compiled schedule of one driver on one device (or cluster rank)."""

    algorithm: str
    device: str
    capacity: int
    buffers: dict[int, SymBuffer] = field(default_factory=dict)
    ops: tuple = ()
    #: index within a fleet schedule: the device for multi-GPU, the rank
    #: for a cluster (0 for single-device plans)
    rank: int = 0

    @property
    def num_ops(self) -> int:
        return len(self.ops)


class IREmitter:
    """Builder a schedule generator writes its ops into (``emit_*_ir``).

    The operand arguments accept either a :class:`SymBuffer` (meaning its
    full rectangle) or a ``(SymBuffer, Rect)`` pair.
    """

    def __init__(
        self, algorithm: str, device: str, capacity: int, *, rank: int = 0
    ) -> None:
        self.algorithm = algorithm
        self.device = device
        self.capacity = int(capacity)
        self.rank = int(rank)
        self._buffers: dict[int, SymBuffer] = {}
        self._ops: list = []
        self._next_id = 0
        self._next_event = 0

    def alloc(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        *,
        dtype=np.float32,
        charged_bytes: int | None = None,
        prefilled: bool = False,
    ) -> SymBuffer:
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(s) for s in shape)
        itemsize = np.dtype(dtype).itemsize
        nelem = 1
        for s in shape:
            nelem *= s
        charge = nelem * itemsize if charged_bytes is None else int(charged_bytes)
        buf = SymBuffer(
            id=self._next_id, name=name, shape=shape, itemsize=itemsize,
            charged_bytes=charge, prefilled=prefilled,
        )
        self._next_id += 1
        self._buffers[buf.id] = buf
        self._ops.append(AllocOp(buf.id))
        return buf

    def free(self, buf: SymBuffer) -> None:
        self._ops.append(FreeOp(buf.id))

    def _access(self, operand, rect: Rect | None = None) -> Access:
        if isinstance(operand, tuple):
            buf, rect = operand
        else:
            buf = operand
        if rect is None:
            rect = buf.full_rect
        return Access(buf.id, rect, rect.area * buf.itemsize)

    def h2d(
        self,
        buf: SymBuffer,
        rect: Rect | None = None,
        *,
        key: tuple,
        stream: str = "default",
        sync: bool = True,
    ) -> None:
        self._ops.append(
            CopyOp("h2d", self._access(buf, rect), tuple(key), stream=stream, sync=sync)
        )

    def d2h(
        self,
        buf: SymBuffer,
        rect: Rect | None = None,
        *,
        key: tuple,
        stream: str = "default",
        sync: bool = True,
        strided: bool = False,
    ) -> None:
        self._ops.append(
            CopyOp(
                "d2h", self._access(buf, rect), tuple(key),
                stream=stream, sync=sync, strided=strided,
            )
        )

    def kernel(
        self,
        name: str,
        *,
        reads=(),
        writes=(),
        stream: str = "default",
        annotate: bool = False,
        cost: float | None = None,
        key: tuple | None = None,
    ) -> None:
        self._ops.append(
            KernelOp(
                name,
                tuple(self._access(r) for r in reads),
                tuple(self._access(w) for w in writes),
                stream=stream,
                annotate=annotate,
                cost=cost,
                key=key,
            )
        )

    def send(
        self,
        buf: SymBuffer,
        rect: Rect | None = None,
        *,
        dst: int,
        tag: str,
        key: tuple,
        stream: str = "default",
        collective: str = "",
    ) -> None:
        """Mirror a rendezvous send to rank ``dst`` on channel ``tag``."""
        self._ops.append(
            SendOp(
                dst=int(dst), tag=tag, access=self._access(buf, rect),
                key=tuple(key), stream=stream, collective=collective,
            )
        )

    def recv(
        self,
        buf: SymBuffer,
        rect: Rect | None = None,
        *,
        src: int,
        tag: str,
        key: tuple,
        stream: str = "default",
        collective: str = "",
    ) -> None:
        """Mirror a rendezvous receive from rank ``src`` on channel ``tag``."""
        self._ops.append(
            RecvOp(
                src=int(src), tag=tag, access=self._access(buf, rect),
                key=tuple(key), stream=stream, collective=collective,
            )
        )

    def collective(self, kind: str, *, tag: str, root: int, ranks) -> None:
        """Mark this rank's membership in one lowered collective."""
        self._ops.append(
            CollectiveOp(kind=kind, tag=tag, root=int(root),
                         ranks=tuple(int(r) for r in ranks))
        )

    def record(self, name: str, *, stream: str = "default") -> SymEvent:
        """Mirror ``stream.record(Event(name))``; returns the event handle."""
        event = SymEvent(id=self._next_event, name=name)
        self._next_event += 1
        self._ops.append(RecordOp(event=event.id, name=name, stream=stream))
        return event

    def wait(self, event: SymEvent, *, stream: str = "default") -> None:
        """Mirror ``stream.wait(event)``."""
        self._ops.append(WaitOp(event=event.id, stream=stream))

    def barrier(self, label: str) -> None:
        """Mirror a fleet barrier (multi-GPU ``_barrier``, a cluster round's
        end)."""
        self._ops.append(BarrierOp(label))

    def finish(self) -> PlanIR:
        return PlanIR(
            algorithm=self.algorithm,
            device=self.device,
            capacity=self.capacity,
            buffers=dict(self._buffers),
            ops=tuple(self._ops),
            rank=self.rank,
        )


def fleet_name(irs: Sequence[PlanIR]) -> str:
    """The device a report over ``irs`` names: the IR's own for one IR,
    ``<spec>×N`` for a fleet of N."""
    if len(irs) == 1:
        return irs[0].device
    return f"{irs[0].device.split('#')[0]}×{len(irs)}"


def walk_fleet(
    irs: Sequence[PlanIR],
    visit: Callable[[int, int, Any, Any], Any],
    *,
    barrier: Callable[[list[int]], object],
    stall: Callable[[list[int], list[int]], object],
) -> dict[tuple[int, int, str], deque]:
    """Interleave the IRs of one schedule in an order the fleet can run.

    Each IR runs until it blocks: on a :class:`RecvOp` whose channel holds
    no send yet, or on a :class:`BarrierOp`. ``visit(i, j, op, sent)`` is
    called once for every other op ``j`` of ``irs[i]``, in that order.
    Messages match FIFO per ``(src, dst, tag)`` channel: a send's return
    value from ``visit`` is queued, and the recv that matches it gets it
    as ``sent``. Once every unfinished IR is at a barrier,
    ``barrier(waiting)`` is called with their indices and they pass it.
    When no IR can move, ``stall(blocked, pos)`` gets the indices of the
    IRs stopped at a recv and every IR's position; it raises to abort, or
    returns to force each blocked recv through with ``sent=None``.

    Returns the queued sends no recv matched, per channel.
    """
    if not irs:
        raise ValueError("a schedule needs at least one IR")
    pos = [0] * len(irs)
    channels: dict[tuple[int, int, str], deque] = {}

    def run(i: int) -> bool:
        """Advance ``irs[i]`` until it blocks; True if it moved."""
        ir, moved = irs[i], False
        while pos[i] < len(ir.ops):
            op = ir.ops[pos[i]]
            if isinstance(op, BarrierOp):
                break
            if isinstance(op, RecvOp):
                queue = channels.get((op.src, ir.rank, op.tag))
                if not queue:
                    break
                visit(i, pos[i], op, queue.popleft())
            elif isinstance(op, SendOp):
                sent = visit(i, pos[i], op, None)
                channels.setdefault((ir.rank, op.dst, op.tag), deque()).append(sent)
            else:
                visit(i, pos[i], op, None)
            pos[i] += 1
            moved = True
        return moved

    while True:
        progressed = False
        for i in range(len(irs)):
            if run(i):
                progressed = True
        heads = [ir.ops[p] if p < len(ir.ops) else None for ir, p in zip(irs, pos)]
        if all(op is None for op in heads):
            return channels
        if all(op is None or isinstance(op, BarrierOp) for op in heads):
            waiting = [i for i, op in enumerate(heads) if op is not None]
            barrier(waiting)
            for i in waiting:
                pos[i] += 1
        elif not progressed:
            blocked = [i for i, op in enumerate(heads) if isinstance(op, RecvOp)]
            stall(blocked, pos)
            for i in blocked:
                visit(i, pos[i], heads[i], None)
                pos[i] += 1
