"""Static analyses over a :class:`~repro.verifyplan.ir.PlanIR`.

Three independent walks over the linear op sequence:

* :func:`analyze_residency` — interval/liveness analysis of the charged
  allocation bytes, proving peak device residency stays within capacity
  (the static analogue of :class:`~repro.gpu.memory.DeviceMemory`'s
  runtime ``OutOfMemoryError``);
* :func:`analyze_def_use` — every kernel operand and every download must
  be *defined before use*: some earlier upload, fill, or kernel write
  overlaps the read rectangle; and no buffer is read, written or freed
  again after its free (``use-after-free``);
* :func:`analyze_transfers` — tallies bus traffic and flags redundant
  transfers: an upload of a host block that is already resident and
  unmodified on the device, or a download whose source region has not
  changed since the same block was last downloaded. Both are pure wasted
  bytes on the PCIe bus the paper's movement bounds assume are absent.

All three return :class:`PlanFinding` records; :func:`audit_ir` bundles
them with the traffic tally for the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.verifyplan.ir import (
    AllocOp,
    CopyOp,
    FreeOp,
    KernelOp,
    PlanIR,
    Rect,
    RecvOp,
    SendOp,
)

__all__ = [
    "PlanFinding",
    "TransferTally",
    "analyze_def_use",
    "analyze_residency",
    "analyze_transfers",
    "audit_ir",
]


@dataclass(frozen=True)
class PlanFinding:
    """One defect proven from the symbolic schedule.

    ``kind`` is one of ``capacity-exceeded``, ``undefined-read``,
    ``use-after-free``, ``redundant-upload``, ``redundant-download``.
    ``block`` carries the host block key (coordinates) for transfer
    findings.
    """

    kind: str
    buffer: str
    detail: str
    op_index: int
    block: tuple | None = None
    wasted_bytes: int = 0

    def describe(self) -> str:
        loc = f"op #{self.op_index}"
        blk = f" block {self.block}" if self.block is not None else ""
        waste = f" ({self.wasted_bytes} wasted B)" if self.wasted_bytes else ""
        return f"{self.kind}: buffer {self.buffer!r}{blk} at {loc}{waste} — {self.detail}"


@dataclass
class TransferTally:
    """Aggregate bus traffic of one plan."""

    bytes_h2d: int = 0
    bytes_d2h: int = 0
    num_h2d: int = 0
    num_d2h: int = 0
    #: row segments of strided (``cudaMemcpy2D``-style) copies
    strided_rows: int = 0
    redundant_bytes: int = 0


def analyze_residency(ir: PlanIR) -> tuple[int, list[PlanFinding]]:
    """Walk allocs/frees; return (peak charged bytes, capacity findings)."""
    findings: list[PlanFinding] = []
    used = 0
    peak = 0
    live: dict[int, int] = {}  # buffer id -> charged bytes
    for idx, op in enumerate(ir.ops):
        if isinstance(op, AllocOp):
            buf = ir.buffers[op.buffer]
            used += buf.charged_bytes
            live[op.buffer] = buf.charged_bytes
            if used > peak:
                peak = used
            if used > ir.capacity:
                top = sorted(
                    (ir.buffers[b].name, c) for b, c in live.items()
                )
                top.sort(key=lambda t: -t[1])
                held = ", ".join(f"{n}={c}B" for n, c in top[:6])
                findings.append(
                    PlanFinding(
                        kind="capacity-exceeded",
                        buffer=buf.name,
                        detail=(
                            f"residency {used}B exceeds capacity {ir.capacity}B; "
                            f"live set: {held}"
                        ),
                        op_index=idx,
                        wasted_bytes=used - ir.capacity,
                    )
                )
        elif isinstance(op, FreeOp):
            used -= live.pop(op.buffer, 0)
    return peak, findings


def analyze_def_use(ir: PlanIR) -> list[PlanFinding]:
    """Prove every read rectangle overlaps an earlier write to its buffer,
    and no buffer is touched or freed again after its free."""
    findings: list[PlanFinding] = []
    written: dict[int, list[Rect]] = {}
    prefilled: set[int] = set()
    freed: dict[int, int] = {}  # buffer id -> op index of its free

    def use_after_free(buffer: int, what: str, idx: int) -> None:
        findings.append(
            PlanFinding(
                kind="use-after-free",
                buffer=ir.buffers[buffer].name,
                detail=f"{what} after the buffer was freed at op #{freed[buffer]}",
                op_index=idx,
            )
        )

    def record_write(buffer: int, rect: Rect, what: str, idx: int) -> None:
        if buffer in freed:
            use_after_free(buffer, f"{what} writes {rect}", idx)
        else:
            written.setdefault(buffer, []).append(rect)

    def check_read(buffer: int, rect: Rect, what: str, idx: int) -> None:
        if buffer in freed:
            use_after_free(buffer, f"{what} reads {rect}", idx)
            return
        if rect.empty or buffer in prefilled:
            return
        if any(w.overlaps(rect) for w in written.get(buffer, ())):
            return
        buf = ir.buffers[buffer]
        findings.append(
            PlanFinding(
                kind="undefined-read",
                buffer=buf.name,
                detail=f"{what} reads {rect} before any upload, fill, or kernel write",
                op_index=idx,
            )
        )

    for idx, op in enumerate(ir.ops):
        if isinstance(op, AllocOp):
            written[op.buffer] = []
            if ir.buffers[op.buffer].prefilled:
                prefilled.add(op.buffer)
        elif isinstance(op, FreeOp):
            if op.buffer in freed:
                use_after_free(op.buffer, "free", idx)
            else:
                freed[op.buffer] = idx
        elif isinstance(op, CopyOp):
            if op.kind == "h2d":
                record_write(op.access.buffer, op.access.rect, "h2d copy", idx)
            else:
                check_read(op.access.buffer, op.access.rect, "d2h copy", idx)
        elif isinstance(op, KernelOp):
            what = f"kernel {op.name!r}"
            for acc in op.reads:
                check_read(acc.buffer, acc.rect, what, idx)
            for acc in op.writes:
                record_write(acc.buffer, acc.rect, what, idx)
        elif isinstance(op, SendOp):
            # a send ships device bytes to another rank: reading an
            # undefined source region ships garbage (dropped-broadcast
            # defects surface here on the *receiving* rank's later reads
            # and here on a sender that forwards a block it never built)
            check_read(op.access.buffer, op.access.rect,
                       f"send(tag={op.tag!r} -> rank {op.dst})", idx)
        elif isinstance(op, RecvOp):
            record_write(op.access.buffer, op.access.rect,
                         f"recv(tag={op.tag!r} <- rank {op.src})", idx)
    return findings


@dataclass
class _Resident:
    """A host block's clean copy on the device (buffer region + key)."""

    buffer: int
    rect: Rect


def analyze_transfers(ir: PlanIR) -> tuple[TransferTally, list[PlanFinding]]:
    """Tally traffic and flag redundant transfers.

    A host-block *residency map* tracks which device region last matched
    each host block. Kernel writes, frees, and overwriting uploads
    invalidate overlapping entries; an upload whose key is still resident
    and clean is redundant, as is a download whose key was already
    downloaded from an untouched region.
    """
    tally = TransferTally()
    findings: list[PlanFinding] = []
    resident: dict[tuple, _Resident] = {}
    downloaded: dict[tuple, _Resident] = {}

    def invalidate(buffer: int, rect: Rect | None) -> None:
        for table in (resident, downloaded):
            stale = [
                key
                for key, ent in table.items()
                if ent.buffer == buffer
                and (rect is None or ent.rect.overlaps(rect))
            ]
            for key in stale:
                del table[key]

    for idx, op in enumerate(ir.ops):
        if isinstance(op, FreeOp):
            invalidate(op.buffer, None)
        elif isinstance(op, KernelOp):
            for acc in op.writes:
                invalidate(acc.buffer, acc.rect)
        elif isinstance(op, RecvOp):
            # network writes mutate device bytes exactly like kernel
            # writes; they move no PCIe bytes (commbounds tallies them)
            invalidate(op.access.buffer, op.access.rect)
        elif isinstance(op, CopyOp):
            acc = op.access
            name = ir.buffers[acc.buffer].name
            if op.strided:
                tally.strided_rows += acc.rect.rows
            if op.kind == "h2d":
                tally.bytes_h2d += acc.nbytes
                tally.num_h2d += 1
                ent = resident.get(op.key)
                if ent is not None and acc.nbytes > 0:
                    where = ir.buffers[ent.buffer].name
                    tally.redundant_bytes += acc.nbytes
                    findings.append(
                        PlanFinding(
                            kind="redundant-upload",
                            buffer=name,
                            detail=(
                                f"host block {op.key} is already resident and "
                                f"unmodified in {where!r} {ent.rect}"
                            ),
                            op_index=idx,
                            block=op.key,
                            wasted_bytes=acc.nbytes,
                        )
                    )
                invalidate(acc.buffer, acc.rect)  # overwrites other keys' bytes
                if not acc.rect.empty:
                    resident[op.key] = _Resident(acc.buffer, acc.rect)
            else:
                tally.bytes_d2h += acc.nbytes
                tally.num_d2h += 1
                ent = downloaded.get(op.key)
                if ent is not None and acc.nbytes > 0:
                    tally.redundant_bytes += acc.nbytes
                    findings.append(
                        PlanFinding(
                            kind="redundant-download",
                            buffer=name,
                            detail=(
                                f"host block {op.key} was already downloaded and "
                                f"the source region has not changed since"
                            ),
                            op_index=idx,
                            block=op.key,
                            wasted_bytes=acc.nbytes,
                        )
                    )
                if not acc.rect.empty:
                    downloaded[op.key] = _Resident(acc.buffer, acc.rect)
                    # the host copy now equals this device region, so a
                    # re-upload of the same key would move nothing new
                    resident[op.key] = _Resident(acc.buffer, acc.rect)
    return tally, findings


def audit_ir(ir: PlanIR) -> tuple[int, TransferTally, list[PlanFinding]]:
    """Run all three analyses; returns (peak_bytes, tally, findings)."""
    peak, cap_findings = analyze_residency(ir)
    du_findings = analyze_def_use(ir)
    tally, tr_findings = analyze_transfers(ir)
    return peak, tally, [*cap_findings, *du_findings, *tr_findings]
