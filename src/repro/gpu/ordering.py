"""The happens-before rule: one vector clock for the static checker.

The happens-before checker (:func:`repro.verifyplan.hb.analyze_hb`)
walks the ops of a schedule IR and decides what the schedule orders with
the :class:`VectorClock` below:

* consecutive operations on one stream are ordered (program order);
* recording an event snapshots the recording stream's clock; waiting on
  it joins that snapshot into the waiting stream's clock (the
  cross-stream edge double buffering relies on);
* a synchronous copy or a stream synchronize joins that stream's clock
  into the **host clock**, a free or a device synchronize joins every
  stream's, and every operation *enqueued* afterwards inherits it
  (``cudaMemcpy``/``cudaFree`` semantics).

Operation ``a`` happens-before ``b`` iff ``b``'s clock holds ``a``'s index
on ``a``'s stream. :func:`scan_races` finds the pairs of accesses to one
buffer that conflict and that no happens-before path orders. What an
access touches is opaque to the scan, so it takes the overlap test as a
parameter: rectangles for device buffers, block keys for host memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

__all__ = [
    "Access",
    "OrderedOp",
    "VectorClock",
    "VectorTime",
    "happens_before",
    "join",
    "scan_races",
]

#: stream key -> index of the latest op on that stream known to happen before
VectorTime = dict[str, int]

#: cap on race findings per buffer: the first few name the bug, the rest
#: are echoes of the same missing edge
MAX_RACES_PER_BUFFER = 8


def join(into: VectorTime, other: VectorTime) -> None:
    """Raise ``into`` to the component-wise maximum of both clocks."""
    for key, index in other.items():
        if into.get(key, -1) < index:
            into[key] = index


@dataclass(frozen=True)
class OrderedOp:
    """One clocked operation: its number, stream, name, index on the
    stream and the vector time it was enqueued at."""

    seq: int
    stream: str
    name: str
    index: int
    clock: VectorTime

    @property
    def label(self) -> str:
        """Short ``#seq:name@stream`` identifier for findings."""
        return f"#{self.seq}:{self.name}@{self.stream}"


def happens_before(a: OrderedOp, b: OrderedOp) -> bool:
    """Whether ``a`` is ordered before ``b`` in every interleaving."""
    return b.clock.get(a.stream, -1) >= a.index


class Access(NamedTuple):
    """One read or write of a buffer region by an :class:`OrderedOp`."""

    op: OrderedOp
    kind: str  # "read" | "write"
    #: what the access touches: a device Rect, or a host block key
    region: Any


def scan_races(
    accesses: Sequence[Access], overlaps: Callable[[Any, Any], bool]
) -> list[tuple[Access, Access]]:
    """The racing pairs among the accesses to one buffer (or to host
    memory), in scan order.

    A pair races when its ops run on different streams, at least one
    writes, neither happens-before the other, and ``overlaps`` says their
    regions share bytes. A pair with the same access kinds, streams and
    op names as an earlier one is an echo and is skipped; the scan stops
    after :data:`MAX_RACES_PER_BUFFER` pairs.
    """
    found: list[tuple[Access, Access]] = []
    seen: set[tuple[str, ...]] = set()
    for i, first in enumerate(accesses):
        for second in accesses[i + 1:]:
            if first.op.stream == second.op.stream:
                continue
            if first.kind == "read" and second.kind == "read":
                continue
            if happens_before(first.op, second.op) or happens_before(
                second.op, first.op
            ):
                continue
            if not overlaps(first.region, second.region):
                continue
            echo = (
                first.kind, second.kind, first.op.stream, second.op.stream,
                first.op.name, second.op.name,
            )
            if echo in seen:
                continue
            seen.add(echo)
            found.append((first, second))
            if len(found) >= MAX_RACES_PER_BUFFER:
                return found
    return found


class VectorClock:
    """Happens-before state of one device: a vector clock per stream, the
    host clock, and the numbering of clocked ops.

    Streams are keyed by name and created on first use; ``streams``
    holds every stream an op, record or wait has named.
    """

    def __init__(self) -> None:
        self.streams: dict[str, VectorTime] = {}
        self.host: VectorTime = {}
        #: number of clocked ops so far (the next op's ``seq``)
        self.seq = 0

    def _stream(self, key: str) -> VectorTime:
        """The clock of stream ``key``, created on first use."""
        clock = self.streams.get(key)
        if clock is None:
            clock = self.streams[key] = {}
        return clock

    def op(self, stream: str, name: str) -> OrderedOp:
        """Clock one op enqueued on ``stream``: it follows the stream's
        previous op and all work the host already knows finished."""
        clock = self._stream(stream)
        join(clock, self.host)
        index = clock.get(stream, -1) + 1
        clock[stream] = index
        op = OrderedOp(self.seq, stream, name, index, dict(clock))
        self.seq += 1
        return op

    def record(self, stream: str) -> VectorTime:
        """An event's snapshot of ``stream``'s clock."""
        return dict(self._stream(stream))

    def wait(self, stream: str, snapshot: VectorTime) -> None:
        """Order later ops on ``stream`` after an event's snapshot."""
        join(self._stream(stream), snapshot)

    def sync_stream(self, stream: str) -> None:
        """The host blocked on ``stream``: its work is host-known now."""
        join(self.host, self._stream(stream))

    def frontier(self) -> VectorTime:
        """Everything enqueued so far: the host clock joined with every
        stream's."""
        out = dict(self.host)
        for clock in self.streams.values():
            join(out, clock)
        return out

    def sync_device(self) -> None:
        """The host blocked on the whole device."""
        self.host = self.frontier()
