"""Distributed blocked-FW driver: one schedule, run or compiled per rank.

The distributed schedule is written once, as :func:`_cluster_schedule`
calling one emitter per rank — allocations, kernels, lowered collectives
and barriers, in a global topological order. Two kinds of emitter take
it:

* :func:`cluster_fw` runs it into a :class:`_RankEmitter` per rank: real
  block numerics through the kernel engine, a FIFO mailbox for the
  messages, and one :class:`~repro.gpu.timeline.Clock` per rank under the
  α–β link model, yielding the distance matrix and the simulated makespan;
* :func:`emit_cluster_ir` runs it into one
  :class:`~repro.verifyplan.ir.IREmitter` per rank, whose
  :class:`~repro.verifyplan.ir.PlanIR` the static verifier proves.

So the IR is the schedule that runs.

The schedule itself is the ScaLAPACK-style 2-D block-cyclic blocked
Floyd–Warshall round (:mod:`repro.cluster.topology`), per pivot ``k``:

1. the pivot block's owner closes ``A(k,k)`` (``fw_diag``) and
   **broadcasts** it to the leads in its grid row and grid column;
2. pivot row-panel owners fold the diagonal in (``mp_row``) and
   broadcast ``A(k,j)`` down grid column ``j mod Pc``; column panels
   symmetrically along grid row ``i mod Pr``;
3. every interior block owner updates ``A(i,j)``; with ``M > 1`` devices
   per node the inner dimension is **scattered** in slices to sibling
   ranks, partial products come back as a min-plus **reduce**, and the
   lead folds them in with ``min_combine``.

A fleet barrier ends each round; a terminal **all-gather** replicates
the full matrix on every lead.

Timing: each rank's clock is the device clock, with one engine per
outgoing link. A kernel is a ``launch`` on the rank's single stream for
:func:`repro.gpu.kernels.launch_seconds` of its operands (or its emitted
``cost``); a send occupies the directed link engine ``net:a->b`` for
``α + bytes/β`` and its end is the message's arrival; a recv floors the
receiving stream at the matched arrival; a barrier floors every rank's
clock at the fleet time. :func:`repro.verifyplan.timing.predict_timing`
makes the same clock calls from the IRs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cluster.topology import (
    BlockCyclicLayout,
    ClusterSpec,
    combine_cost,
    slice_widths,
)
from repro.core.minplus import DIST_DTYPE, minplus_update
from repro.gpu.executor import operand_view
from repro.gpu.kernels import extract_cost, launch_seconds
from repro.gpu.timeline import Clock, fleet_floor, timing_report
from repro.graphs.csr import CSRGraph
from repro.verifyplan.ir import IREmitter, PlanIR, Rect

__all__ = ["ClusterResult", "cluster_fw", "default_block_size", "emit_cluster_ir"]


def default_block_size(n: int, cluster: ClusterSpec) -> int:
    """Two block-rows per grid dimension, so every node owns work."""
    rounds = 2 * max(cluster.grid)
    return max(1, -(-n // rounds))


@dataclass
class ClusterResult:
    """Output of one simulated distributed blocked-FW run."""

    dist: np.ndarray
    makespan: float
    compute_seconds: float
    net_seconds: float
    num_rounds: int
    block_size: int


# ---------------------------------------------------------------------------
# the schedule
# ---------------------------------------------------------------------------


def _buffer_name(key: tuple) -> str:
    if key[0] == "A" and len(key) == 3:
        return f"A({key[1]},{key[2]})"
    return ":".join(str(part) for part in key)


def _cluster_schedule(ems, n: int, cluster: ClusterSpec, layout: BlockCyclicLayout) -> dict:
    """The distributed blocked-FW schedule, into ``ems[rank]`` per rank.

    Calls follow a valid global topological order: every recv comes after
    its matching send, every operand after the op producing it; each
    rank's calls are that rank's program order. Owned blocks are
    allocated ``prefilled`` — the initial distribution is assumed done.
    Returns the buffers still live at the end, keyed ``(rank, key)``:
    every owned block and each lead's gathered ``("full",)`` matrix.
    """
    nd = layout.num_blocks
    num_dev = cluster.devices_per_node
    pr, pc = cluster.grid
    sz = layout.size
    lead = cluster.lead_rank
    spec = cluster.device
    bufs: dict[tuple[int, tuple], Any] = {}

    def alloc(rank: int, key: tuple, shape: tuple[int, int], prefilled: bool = False):
        buf = bufs[(rank, key)] = ems[rank].alloc(
            _buffer_name(key), shape, prefilled=prefilled
        )
        return buf

    def free(rank: int, key: tuple) -> None:
        ems[rank].free(bufs.pop((rank, key)))

    def collective(kind: str, tag: str, root: int, ranks: tuple[int, ...]) -> None:
        for rank in ranks:
            ems[rank].collective(kind, tag=tag, root=root, ranks=ranks)

    for node in range(cluster.num_nodes):
        for i, j in layout.owned_blocks(node):
            alloc(lead(node), ("A", i, j), (sz(i), sz(j)), prefilled=True)

    for k in range(nd):
        bk = sz(k)
        owner_kk = layout.owner_node(k, k)
        diag_src = lead(owner_kk)
        okr, okc = cluster.grid_coords(owner_kk)
        scratch: dict[int, list[tuple]] = {}

        def note(rank: int, key: tuple) -> None:
            scratch.setdefault(rank, []).append(key)

        # ---- phase 1: close the pivot block, broadcast to row + column
        pivot = bufs[(diag_src, ("A", k, k))]
        ems[diag_src].kernel("fw_diag", reads=(pivot,), writes=(pivot,))
        diag_nodes = [
            cluster.node_at(okr, g) for g in range(pc)
            if cluster.node_at(okr, g) != owner_kk
        ] + [
            cluster.node_at(g, okc) for g in range(pr)
            if cluster.node_at(g, okc) != owner_kk
        ]
        if diag_nodes:
            collective(
                "broadcast", f"diag:{k}", diag_src,
                (diag_src, *(lead(nd_) for nd_ in diag_nodes)),
            )
            for node in diag_nodes:
                ems[diag_src].send(
                    pivot, dst=lead(node), tag=f"diag:{k}", key=("A", k, k),
                    collective="broadcast-diag",
                )
            for node in diag_nodes:
                buf = alloc(lead(node), ("diag",), (bk, bk))
                note(lead(node), ("diag",))
                ems[lead(node)].recv(
                    buf, src=diag_src, tag=f"diag:{k}", key=("A", k, k),
                    collective="broadcast-diag",
                )

        def diag_of(node: int):
            return bufs[(lead(node), ("A", k, k) if node == owner_kk else ("diag",))]

        # ---- phase 2: pivot row panels — update, broadcast down columns
        for j in range(nd):
            if j == k:
                continue
            owner = layout.owner_node(k, j)
            root = lead(owner)
            ogr, ogc = cluster.grid_coords(owner)
            panel = bufs[(root, ("A", k, j))]
            ems[root].kernel(
                "mp_row", reads=(panel, diag_of(owner), panel), writes=(panel,)
            )
            receivers = [cluster.node_at(g, ogc) for g in range(pr) if g != ogr]
            if receivers:
                collective(
                    "broadcast", f"row:{k}:{j}", root,
                    (root, *(lead(nd_) for nd_ in receivers)),
                )
                for node in receivers:
                    ems[root].send(
                        panel, dst=lead(node), tag=f"row:{k}:{j}", key=("A", k, j),
                        collective="broadcast-row",
                    )
        for j in range(nd):
            if j == k:
                continue
            owner = layout.owner_node(k, j)
            ogr, ogc = cluster.grid_coords(owner)
            for g in range(pr):
                if g == ogr:
                    continue
                rank = lead(cluster.node_at(g, ogc))
                buf = alloc(rank, ("row", j), (bk, sz(j)))
                note(rank, ("row", j))
                ems[rank].recv(
                    buf, src=lead(owner), tag=f"row:{k}:{j}", key=("A", k, j),
                    collective="broadcast-row",
                )

        # ---- phase 2': pivot column panels — update, broadcast along rows
        for i in range(nd):
            if i == k:
                continue
            owner = layout.owner_node(i, k)
            root = lead(owner)
            ogr, ogc = cluster.grid_coords(owner)
            panel = bufs[(root, ("A", i, k))]
            ems[root].kernel(
                "mp_col", reads=(panel, panel, diag_of(owner)), writes=(panel,)
            )
            receivers = [cluster.node_at(ogr, g) for g in range(pc) if g != ogc]
            if receivers:
                collective(
                    "broadcast", f"col:{k}:{i}", root,
                    (root, *(lead(nd_) for nd_ in receivers)),
                )
                for node in receivers:
                    ems[root].send(
                        panel, dst=lead(node), tag=f"col:{k}:{i}", key=("A", i, k),
                        collective="broadcast-col",
                    )
        for i in range(nd):
            if i == k:
                continue
            owner = layout.owner_node(i, k)
            ogr, ogc = cluster.grid_coords(owner)
            for g in range(pc):
                if g == ogc:
                    continue
                rank = lead(cluster.node_at(ogr, g))
                buf = alloc(rank, ("col", i), (sz(i), bk))
                note(rank, ("col", i))
                ems[rank].recv(
                    buf, src=lead(owner), tag=f"col:{k}:{i}", key=("A", i, k),
                    collective="broadcast-col",
                )

        # ---- phase 3: interior updates (scatter / partials / reduce)
        widths = slice_widths(bk, num_dev)
        offs = [sum(widths[:d]) for d in range(num_dev)]
        active = [d for d in range(1, num_dev) if widths[d] > 0]
        for i in range(nd):
            if i == k:
                continue
            for j in range(nd):
                if j == k:
                    continue
                node = layout.owner_node(i, j)
                root = lead(node)
                bi, bj = sz(i), sz(j)
                apanel = bufs[(
                    root, ("A", i, k) if layout.owner_node(i, k) == node else ("col", i)
                )]
                bpanel = bufs[(
                    root, ("A", k, j) if layout.owner_node(k, j) == node else ("row", j)
                )]
                if active:
                    collective(
                        "scatter", f"scat:{k}:{i}:{j}", root,
                        (root, *(root + d for d in active)),
                    )
                    for d in active:
                        w, off = widths[d], offs[d]
                        ems[root].send(
                            apanel, Rect(0, bi, off, off + w), dst=root + d,
                            tag=f"sa:{k}:{i}:{j}:{d}", key=("A", i, k, d),
                            collective="scatter",
                        )
                        ems[root].send(
                            bpanel, Rect(off, off + w, 0, bj), dst=root + d,
                            tag=f"sb:{k}:{i}:{j}:{d}", key=("A", k, j, d),
                            collective="scatter",
                        )
                w0 = widths[0]
                out = bufs[(root, ("A", i, j))]
                ems[root].kernel(
                    "mp_rank",
                    reads=(out, (apanel, Rect(0, bi, 0, w0)), (bpanel, Rect(0, w0, 0, bj))),
                    writes=(out,),
                )
                if active:
                    collective(
                        "reduce", f"red:{k}:{i}:{j}", root,
                        (root, *(root + d for d in active)),
                    )
                for d in active:
                    sib = root + d
                    w = widths[d]
                    sa = alloc(sib, ("sa",), (bi, w))
                    ems[sib].recv(
                        sa, src=root, tag=f"sa:{k}:{i}:{j}:{d}", key=("A", i, k, d),
                        collective="scatter",
                    )
                    sb = alloc(sib, ("sb",), (w, bj))
                    ems[sib].recv(
                        sb, src=root, tag=f"sb:{k}:{i}:{j}:{d}", key=("A", k, j, d),
                        collective="scatter",
                    )
                    sp = alloc(sib, ("sp",), (bi, bj), prefilled=True)
                    ems[sib].kernel("mp_part", reads=(sp, sa, sb), writes=(sp,))
                    ems[sib].send(
                        sp, dst=root, tag=f"red:{k}:{i}:{j}:{d}", key=("A", i, j, d),
                        collective="reduce",
                    )
                    for key in (("sa",), ("sb",), ("sp",)):
                        free(sib, key)
                    part = alloc(root, ("part", d), (bi, bj))
                    ems[root].recv(
                        part, src=sib, tag=f"red:{k}:{i}:{j}:{d}", key=("A", i, j, d),
                        collective="reduce",
                    )
                    ems[root].kernel(
                        "min_combine", reads=(out, part), writes=(out,),
                        cost=combine_cost(spec, bi, bj),
                    )
                    free(root, ("part", d))

        for rank in sorted(scratch):
            for key in scratch[rank]:
                free(rank, key)
        for em in ems:
            em.barrier(f"round-{k}")

    # ---- terminal all-gather: replicate the matrix on every lead
    leads = [lead(node) for node in range(cluster.num_nodes)]
    if len(leads) > 1:
        collective("allgather", "gather", leads[0], tuple(leads))
    for node in range(cluster.num_nodes):
        alloc(lead(node), ("full",), (n, n))
    blocks = layout.blocks

    def block_rect(i: int, j: int) -> Rect:
        return Rect(blocks.start(i), blocks.stop(i), blocks.start(j), blocks.stop(j))

    for node in range(cluster.num_nodes):
        root = lead(node)
        for i, j in layout.owned_blocks(node):
            rect = block_rect(i, j)
            src = bufs[(root, ("A", i, j))]
            ems[root].kernel(
                "pack", reads=(src,), writes=((bufs[(root, ("full",))], rect),),
                cost=extract_cost(spec, rect.rows, rect.cols),
            )
            for other in leads:
                if other != root:
                    ems[root].send(
                        src, dst=other, tag=f"gath:{i}:{j}", key=("A", i, j),
                        collective="allgather",
                    )
    for node in range(cluster.num_nodes):
        root = lead(node)
        for i in range(nd):
            for j in range(nd):
                owner = layout.owner_node(i, j)
                if owner == node:
                    continue
                ems[root].recv(
                    bufs[(root, ("full",))], block_rect(i, j), src=lead(owner),
                    tag=f"gath:{i}:{j}", key=("A", i, j), collective="allgather",
                )
    for em in ems:
        em.barrier("after-allgather")
    return bufs


# ---------------------------------------------------------------------------
# running the schedule
# ---------------------------------------------------------------------------


class _RankEmitter:
    """Runs one rank's share of the schedule on the host.

    Buffers are float32 numpy arrays (owned blocks start from ``initial``,
    keyed by buffer name; other ``prefilled`` buffers from ``inf``).
    Kernels run their block numerics through ``engine`` and launch on the
    rank's clock; sends snapshot their rectangle into the fleet's FIFO
    ``mailbox`` with their link op, recvs pop it; barriers floor every
    clock of the fleet.
    """

    def __init__(self, rank: int, cluster: ClusterSpec, engine, clocks: list[Clock],
                 mailbox: dict, initial: dict[str, np.ndarray]) -> None:
        self.rank = rank
        self.cluster = cluster
        self.engine = engine
        self.clocks = clocks
        self.clock = clocks[rank]
        self.mailbox = mailbox
        self.initial = initial

    def alloc(self, name: str, shape: tuple[int, int], *, prefilled: bool = False) -> np.ndarray:
        if name in self.initial:
            return np.array(self.initial[name], dtype=DIST_DTYPE)
        if prefilled:
            return np.full(shape, np.inf, dtype=DIST_DTYPE)
        return np.empty(shape, dtype=DIST_DTYPE)

    def free(self, buf: np.ndarray) -> None:
        pass

    def kernel(self, name: str, *, reads=(), writes=(), cost: float | None = None) -> None:
        views = [operand_view(r) for r in reads]
        out = operand_view(writes[0])
        if name == "fw_diag":
            self.engine.fw_inplace(out)
        elif name == "min_combine":
            np.minimum(out, views[1], out=out)
        elif name == "pack":
            out[...] = views[0]
        elif name in ("mp_row", "mp_col"):  # out = a ⊗ b, one operand is out
            out[...] = self.engine.minplus(views[1], views[2])
        else:  # mp_rank, mp_part: out ⊕= a ⊗ b
            minplus_update(out, views[1], views[2], engine=self.engine)
        if cost is None:
            cost = launch_seconds(
                name, self.cluster.device, reads, writes, lambda op: operand_view(op).shape
            )
        self.clock.launch(
            "default", name, cost, overhead=self.cluster.device.kernel_launch_overhead
        )

    def send(self, buf: np.ndarray, rect: Rect | None = None, *, dst: int, tag: str,
             key: tuple, collective: str = "") -> None:
        data = operand_view(buf if rect is None else (buf, rect))
        link = self.cluster.link_of(self.rank, dst)
        sent = self.clock.send(
            self.rank, dst, "default", f"send:{tag}", link.duration(data.nbytes)
        )
        self.mailbox[(self.rank, dst, tag)].append((sent, data.copy()))

    def recv(self, buf: np.ndarray, rect: Rect | None = None, *, src: int, tag: str,
             key: tuple, collective: str = "") -> None:
        sent, payload = self.mailbox[(src, self.rank, tag)].popleft()
        self.clock.recv("default", sent)
        operand_view(buf if rect is None else (buf, rect))[...] = payload

    def collective(self, kind: str, *, tag: str, root: int, ranks) -> None:
        pass  # the lowered sends and recvs carry the data and the time

    def barrier(self, label: str) -> None:
        fleet_floor(self.clocks)


def cluster_fw(
    graph: CSRGraph,
    cluster: ClusterSpec,
    *,
    block_size: int | None = None,
) -> ClusterResult:
    """Run distributed blocked FW on the simulated cluster.

    Runs :func:`_cluster_schedule` into one :class:`_RankEmitter` per
    rank: block numerics through the kernel engine (bit-identical to the
    single-device drivers) and the per-rank clocks described in the module
    docstring. Returns the full distance matrix (as gathered on
    lead 0) and the timing.
    """
    from repro.core.engine import default_engine

    n = graph.num_vertices
    if block_size is None:
        block_size = default_block_size(n, cluster)
    layout = BlockCyclicLayout(n=n, block_size=block_size, grid=cluster.grid)
    engine = default_engine()
    dense = graph.to_dense(dtype=DIST_DTYPE)
    blocks = layout.blocks
    clocks = [Clock(record_trace=False) for _ in range(cluster.num_ranks)]
    #: (src, dst, tag) -> FIFO of (send op, payload snapshot)
    mailbox: dict = defaultdict(deque)
    ems = []
    for rank in range(cluster.num_ranks):
        owned = (
            layout.owned_blocks(cluster.node_of(rank)) if cluster.is_lead(rank) else ()
        )
        initial = {
            _buffer_name(("A", i, j)): dense[blocks.slice(i), blocks.slice(j)]
            for i, j in owned
        }
        ems.append(_RankEmitter(rank, cluster, engine, clocks, mailbox, initial))
    bufs = _cluster_schedule(ems, n, cluster, layout)
    timing = timing_report("cluster-fw", cluster.name, clocks)
    return ClusterResult(
        dist=bufs[(cluster.lead_rank(0), ("full",))],
        makespan=timing.makespan,
        compute_seconds=timing.compute_seconds,
        net_seconds=timing.net_seconds,
        num_rounds=layout.num_blocks,
        block_size=block_size,
    )


def emit_cluster_ir(
    n: int,
    cluster: ClusterSpec,
    *,
    block_size: int | None = None,
) -> list[PlanIR]:
    """Compile the distributed schedule to one ``PlanIR`` per rank.

    Runs :func:`_cluster_schedule` — the schedule :func:`cluster_fw`
    executes — into one :class:`~repro.verifyplan.ir.IREmitter` per rank.
    """
    if block_size is None:
        block_size = default_block_size(n, cluster)
    layout = BlockCyclicLayout(n=n, block_size=block_size, grid=cluster.grid)
    spec = cluster.device
    emitters = [
        IREmitter("cluster-fw", f"{spec.name}#{r}", spec.memory_bytes, rank=r)
        for r in range(cluster.num_ranks)
    ]
    _cluster_schedule(emitters, n, cluster, layout)
    return [emitter.finish() for emitter in emitters]
