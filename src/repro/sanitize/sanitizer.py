"""Happens-before race detection for the simulated GPU runtime.

Real GPU stacks catch missing-synchronisation bugs with
``compute-sanitizer --tool racecheck``; the simulated runtime has all the
information needed to do the same accounting statically. The
:class:`ScheduleSanitizer` observes every operation the runtime performs —
kernel launches (with their declared read/write sets), H2D/D2H copies,
event records and waits, host synchronisation, allocation and free — and
orders them with the happens-before rule of :mod:`repro.gpu.ordering`, the
vector clock the static checker (:func:`repro.verifyplan.hb.analyze_hb`)
uses too. ``DeviceArray.free`` is treated like legacy ``cudaFree``: it
synchronises the whole device before the memory is reused, and any access
enqueued after it is a use-after-free, even across ``Device.reset_clock``.

Two operations on different streams that touch overlapping bytes of one
buffer, at least one writing, with *no* happens-before path either way,
constitute a race — exactly the hazard a missing ``Event`` edge opens up
in the double-buffered drivers.

Byte overlap between numpy views is decided with ``np.shares_memory``
(falling back to the conservative bounds check if the exact problem is too
hard), so disjoint slices of one accumulation buffer do not alias.

Enable with ``Device(sanitize=True)``; collect results with
:meth:`ScheduleSanitizer.report`. See ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Union

import numpy as np

from repro.gpu.ordering import (
    Access,
    OrderedOp,
    VectorClock,
    VectorTime,
    happens_before,
    scan_races,
)
from repro.sanitize.hazards import Hazard, HazardReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.memory import DeviceArray, HostBuffer
    from repro.gpu.stream import Event, Stream

__all__ = ["ScheduleSanitizer"]

#: anything the runtime may hand the sanitizer as a buffer operand
Operand = Union["DeviceArray", "HostBuffer", np.ndarray]

#: cap on exact ``np.shares_memory`` work before falling back to bounds
_SHARE_WORK = 1_000_000


def _as_ndarray(operand: Operand) -> np.ndarray:
    if isinstance(operand, np.ndarray):
        return operand
    # DeviceArray / HostBuffer wrap their storage in .data
    data = getattr(operand, "data", None)
    if not isinstance(data, np.ndarray):
        raise TypeError(f"cannot track operand of type {type(operand).__name__}")
    return data


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _overlaps(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact-where-feasible byte overlap between two views."""
    if a.size == 0 or b.size == 0:
        return False
    if not np.may_share_memory(a, b):
        return False
    try:
        return bool(np.shares_memory(a, b, max_work=_SHARE_WORK))
    except Exception:  # exact solve too hard: stay conservative
        return True


@dataclass
class _BufferInfo:
    """Lifecycle record of one tracked buffer (device or host).

    Buffers are keyed by ``id(root)``; holding ``root`` keeps that id from
    being reused by a later array once a freed buffer is garbage-collected.
    """

    name: str
    device: bool
    root: np.ndarray
    prefilled: bool = False
    #: number of the next op when the buffer was freed (None while live)
    freed_seq: int | None = None
    accesses: list[Access] = field(default_factory=list)


class ScheduleSanitizer:
    """Observes one :class:`~repro.gpu.device.Device`'s schedule and finds
    cross-stream hazards (see module docstring for the model)."""

    def __init__(self, device_name: str = "") -> None:
        self.device_name = device_name
        self._buffers: dict[int, _BufferInfo] = {}
        self._clock = VectorClock()
        self._eager_hazards: list[Hazard] = []

    # ------------------------------------------------------------------
    # Allocation lifecycle (called by DeviceMemory)
    # ------------------------------------------------------------------
    def on_alloc(self, array: "DeviceArray", *, prefilled: bool = False) -> None:
        """Register a fresh device allocation."""
        root = _root(array.data)
        self._buffers[id(root)] = _BufferInfo(
            name=array.name or f"device[{array.data.shape}]",
            device=True,
            root=root,
            prefilled=prefilled,
        )

    def on_free(self, array: "DeviceArray") -> None:
        """Model legacy ``cudaFree``: device-wide sync, then the bytes die."""
        self._clock.sync_device()
        info = self._buffers.get(id(_root(array.data)))
        if info is not None:
            info.freed_seq = self._clock.seq

    # ------------------------------------------------------------------
    # Stream operations (called by Stream)
    # ------------------------------------------------------------------
    def _record_access(self, op: OrderedOp, kind: str, operand: Operand) -> None:
        view = _as_ndarray(operand)
        if view.size == 0:
            return  # touches no bytes (empty boundary sets, zero-size tiles)
        root = _root(view)
        info = self._buffers.get(id(root))
        if info is None:
            # host memory is registered lazily on first sight
            info = _BufferInfo(name=f"host[{root.shape}]", device=False, root=root)
            self._buffers[id(root)] = info
        if info.freed_seq is not None:
            self._eager_hazards.append(
                Hazard(
                    kind="use-after-free",
                    buffer=info.name,
                    streams=(op.stream, op.stream),
                    first_op=f"free@#{info.freed_seq}",
                    second_op=op.label,
                    detail="operation enqueued after the allocation was freed",
                )
            )
            return
        info.accesses.append(Access(op, kind, view))

    def on_kernel(
        self,
        stream: "Stream",
        name: str,
        reads: Iterable[Operand] = (),
        writes: Iterable[Operand] = (),
    ) -> None:
        """Record a kernel launch with its declared access sets."""
        op = self._clock.op(stream.name, name)
        for operand in reads:
            self._record_access(op, "read", operand)
        for operand in writes:
            self._record_access(op, "write", operand)

    def on_copy(
        self,
        stream: "Stream",
        name: str,
        dst: Operand,
        src: Operand,
        *,
        sync: bool,
    ) -> None:
        """Record one copy: ``src`` is read, ``dst`` is written."""
        op = self._clock.op(stream.name, name)
        self._record_access(op, "read", src)
        self._record_access(op, "write", dst)
        if sync:
            self._clock.sync_stream(stream.name)

    def on_record(self, stream: "Stream", event: "Event") -> None:
        """Snapshot the recording stream's clock onto the event."""
        event._clock = self._clock.record(stream.name)

    def on_wait(self, stream: "Stream", event: "Event") -> None:
        """Join the event's snapshot into the waiting stream's clock."""
        snapshot: VectorTime | None = event._clock
        if snapshot:
            self._clock.wait(stream.name, snapshot)

    def on_stream_sync(self, stream: "Stream") -> None:
        """The host blocked on one stream: its work is host-known now."""
        self._clock.sync_stream(stream.name)

    def on_device_sync(self) -> None:
        """The host blocked on the whole device."""
        self._clock.sync_device()

    def reset_schedule(self) -> None:
        """Forget the recorded schedule but keep live allocations; a freed
        buffer stays freed.

        Mirrors :meth:`repro.gpu.device.Device.reset_clock`, which the
        drivers call between calibration and measured runs.
        """
        self._clock.reset()
        self._eager_hazards = []
        for info in self._buffers.values():
            info.accesses = []

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _scan_uninitialized(self, info: _BufferInfo, hazards: list[Hazard]) -> None:
        if not info.device or info.prefilled:
            return
        writes = [a for a in info.accesses if a.kind == "write"]
        for access in info.accesses:
            if access.kind != "read":
                continue
            covered = any(
                happens_before(w.op, access.op) and _overlaps(w.region, access.region)
                for w in writes
                if w.op is not access.op
            )
            if not covered:
                hazards.append(
                    Hazard(
                        kind="uninitialized-read",
                        buffer=info.name,
                        streams=(access.op.stream, access.op.stream),
                        first_op="<no prior write>",
                        second_op=access.op.label,
                        detail="no transfer or kernel write is ordered before this read",
                    )
                )
                return  # one per buffer names the bug

    def report(self) -> HazardReport:
        """Scan the recorded schedule and return the findings."""
        hazards: list[Hazard] = list(self._eager_hazards)
        for info in self._buffers.values():
            for first, second in scan_races(info.accesses, _overlaps):
                hazards.append(
                    Hazard(
                        kind=f"{first.kind}-{second.kind}-race",
                        buffer=info.name,
                        streams=(first.op.stream, second.op.stream),
                        first_op=first.op.label,
                        second_op=second.op.label,
                        detail="no happens-before edge orders these accesses",
                    )
                )
            self._scan_uninitialized(info, hazards)
        hazards.sort(key=lambda h: h.second_op)
        return HazardReport(
            device=self.device_name,
            num_ops=self._clock.seq,
            num_buffers=len(self._buffers),
            hazards=hazards,
        )
