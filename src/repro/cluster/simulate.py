"""Distributed blocked-FW driver: dynamic cluster simulator + IR mirror.

One **canonical op generator** (:func:`_cluster_ops`) produces the whole
distributed schedule — allocations, kernels, lowered collectives, and
barriers — in a global topological order. Two consumers walk it:

* :func:`cluster_fw` *executes* it: real block numerics through the
  kernel engine, plus a per-rank clock replay under the α–β link model,
  yielding the distance matrix, the full message trace, and the
  simulated makespan;
* :func:`emit_cluster_ir` *mirrors* it: one
  :class:`~repro.verifyplan.ir.PlanIR` per rank for the static verifier.

Because both consume the same op stream, the IR is structurally
identical to the executed schedule by construction.

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

Timing discipline (mirrored exactly by
:func:`repro.verifyplan.timing.predict_cluster_timing`): kernels pay the
device's launch overhead on the rank's host clock and occupy its single
stream; a send occupies the directed link FIFO for ``α + bytes/β`` and
its end time is the message's arrival; a recv floors the receiving
stream at the matched arrival; a barrier floors every clock fleet-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.topology import (
    BlockCyclicLayout,
    ClusterSpec,
    combine_cost,
    slice_widths,
)
from repro.core.minplus import DIST_DTYPE, minplus_update
from repro.gpu.kernels import extract_cost, fw_tile_cost, minplus_cost
from repro.graphs.csr import CSRGraph
from repro.verifyplan.ir import IREmitter, PlanIR, Rect

__all__ = ["ClusterResult", "Message", "cluster_fw", "default_block_size", "emit_cluster_ir"]

_ELEM = 4  # DIST_DTYPE is float32


def default_block_size(n: int, cluster: ClusterSpec) -> int:
    """Two block-rows per grid dimension, so every node owns work."""
    rounds = 2 * max(cluster.grid)
    return max(1, -(-n // rounds))


@dataclass(frozen=True)
class Message:
    """One point-to-point message of the executed schedule."""

    src: int
    dst: int
    tag: str
    key: tuple
    nbytes: int
    collective: str
    link: str


@dataclass
class ClusterResult:
    """Output of one simulated distributed blocked-FW run."""

    dist: np.ndarray
    messages: list[Message]
    #: directed (src_rank, dst_rank) -> total bytes carried
    link_bytes: dict[tuple[int, int], int]
    #: lowered-collective label -> total bytes
    kind_bytes: dict[str, int]
    makespan: float
    compute_seconds: float
    net_seconds: float
    num_rounds: int
    num_kernels: int
    block_size: int

    @property
    def num_messages(self) -> int:
        return len(self.messages)

    @property
    def total_bytes(self) -> int:
        return sum(self.link_bytes.values())


# ---------------------------------------------------------------------------
# canonical op stream
# ---------------------------------------------------------------------------


def _cluster_ops(n: int, cluster: ClusterSpec, layout: BlockCyclicLayout):
    """Yield the distributed schedule as primitive op records (dicts).

    The order is a valid topological order: every recv appears after its
    matching send, every operand after the op producing it. Per-rank
    suborder is each rank's program order — the emitter and the dynamic
    simulator both follow it, which is what makes them structurally
    identical.
    """
    nd = layout.num_blocks
    num_dev = cluster.devices_per_node
    pr, pc = cluster.grid
    sz = layout.size
    lead = cluster.lead_rank

    for node in range(cluster.num_nodes):
        for i, j in layout.owned_blocks(node):
            yield {
                "kind": "alloc", "rank": lead(node), "buf": ("A", i, j),
                "shape": (sz(i), sz(j)), "prefilled": True,
            }

    for k in range(nd):
        bk = sz(k)
        owner_kk = layout.owner_node(k, k)
        diag_src = lead(owner_kk)
        okr, okc = cluster.grid_coords(owner_kk)
        scratch: dict[int, list[tuple]] = {}

        def note(rank: int, buf: tuple) -> None:
            scratch.setdefault(rank, []).append(buf)

        # ---- phase 1: close the pivot block, broadcast to row + column
        yield {"kind": "fw_diag", "rank": diag_src, "out": (("A", k, k), None)}
        diag_nodes = [
            cluster.node_at(okr, g) for g in range(pc)
            if cluster.node_at(okr, g) != owner_kk
        ] + [
            cluster.node_at(g, okc) for g in range(pr)
            if cluster.node_at(g, okc) != owner_kk
        ]
        if diag_nodes:
            yield {
                "kind": "collective", "ckind": "broadcast",
                "tag": f"diag:{k}", "root": diag_src,
                "ranks": (diag_src, *(lead(nd_) for nd_ in diag_nodes)),
            }
            for node in diag_nodes:
                yield {
                    "kind": "send", "src": diag_src, "dst": lead(node),
                    "tag": f"diag:{k}", "key": ("A", k, k),
                    "buf": (("A", k, k), None), "collective": "broadcast-diag",
                }
            for node in diag_nodes:
                yield {
                    "kind": "alloc", "rank": lead(node), "buf": ("diag",),
                    "shape": (bk, bk), "prefilled": False,
                }
                note(lead(node), ("diag",))
                yield {
                    "kind": "recv", "rank": lead(node), "src": diag_src,
                    "tag": f"diag:{k}", "key": ("A", k, k),
                    "buf": (("diag",), None), "collective": "broadcast-diag",
                }

        def diag_ref(node: int):
            return (("A", k, k), None) if node == owner_kk else (("diag",), None)

        # ---- phase 2: pivot row panels — update, broadcast down columns
        for j in range(nd):
            if j == k:
                continue
            owner = layout.owner_node(k, j)
            root = lead(owner)
            ogr, ogc = cluster.grid_coords(owner)
            yield {
                "kind": "mp", "rank": root, "name": "mp_row",
                "out": (("A", k, j), None), "a": diag_ref(owner),
                "b": (("A", k, j), None),
            }
            receivers = [
                cluster.node_at(g, ogc) for g in range(pr) if g != ogr
            ]
            if receivers:
                yield {
                    "kind": "collective", "ckind": "broadcast",
                    "tag": f"row:{k}:{j}", "root": root,
                    "ranks": (root, *(lead(nd_) for nd_ in receivers)),
                }
                for node in receivers:
                    yield {
                        "kind": "send", "src": root, "dst": lead(node),
                        "tag": f"row:{k}:{j}", "key": ("A", k, j),
                        "buf": (("A", k, j), None),
                        "collective": "broadcast-row",
                    }
        for j in range(nd):
            if j == k:
                continue
            owner = layout.owner_node(k, j)
            ogr, ogc = cluster.grid_coords(owner)
            for g in range(pr):
                if g == ogr:
                    continue
                rank = lead(cluster.node_at(g, ogc))
                yield {
                    "kind": "alloc", "rank": rank, "buf": ("row", j),
                    "shape": (bk, sz(j)), "prefilled": False,
                }
                note(rank, ("row", j))
                yield {
                    "kind": "recv", "rank": rank, "src": lead(owner),
                    "tag": f"row:{k}:{j}", "key": ("A", k, j),
                    "buf": (("row", j), None), "collective": "broadcast-row",
                }

        # ---- phase 2': pivot column panels — update, broadcast along rows
        for i in range(nd):
            if i == k:
                continue
            owner = layout.owner_node(i, k)
            root = lead(owner)
            ogr, ogc = cluster.grid_coords(owner)
            yield {
                "kind": "mp", "rank": root, "name": "mp_col",
                "out": (("A", i, k), None), "a": (("A", i, k), None),
                "b": diag_ref(owner),
            }
            receivers = [
                cluster.node_at(ogr, g) for g in range(pc) if g != ogc
            ]
            if receivers:
                yield {
                    "kind": "collective", "ckind": "broadcast",
                    "tag": f"col:{k}:{i}", "root": root,
                    "ranks": (root, *(lead(nd_) for nd_ in receivers)),
                }
                for node in receivers:
                    yield {
                        "kind": "send", "src": root, "dst": lead(node),
                        "tag": f"col:{k}:{i}", "key": ("A", i, k),
                        "buf": (("A", i, k), None),
                        "collective": "broadcast-col",
                    }
        for i in range(nd):
            if i == k:
                continue
            owner = layout.owner_node(i, k)
            ogr, ogc = cluster.grid_coords(owner)
            for g in range(pc):
                if g == ogc:
                    continue
                rank = lead(cluster.node_at(ogr, g))
                yield {
                    "kind": "alloc", "rank": rank, "buf": ("col", i),
                    "shape": (sz(i), bk), "prefilled": False,
                }
                note(rank, ("col", i))
                yield {
                    "kind": "recv", "rank": rank, "src": lead(owner),
                    "tag": f"col:{k}:{i}", "key": ("A", i, k),
                    "buf": (("col", i), None), "collective": "broadcast-col",
                }

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
                akey = (
                    ("A", i, k) if layout.owner_node(i, k) == node
                    else ("col", i)
                )
                bkey = (
                    ("A", k, j) if layout.owner_node(k, j) == node
                    else ("row", j)
                )
                if active:
                    yield {
                        "kind": "collective", "ckind": "scatter",
                        "tag": f"scat:{k}:{i}:{j}", "root": root,
                        "ranks": (root, *(root + d for d in active)),
                    }
                    for d in active:
                        w, off = widths[d], offs[d]
                        yield {
                            "kind": "send", "src": root, "dst": root + d,
                            "tag": f"sa:{k}:{i}:{j}:{d}",
                            "key": ("A", i, k, d),
                            "buf": (akey, (0, bi, off, off + w)),
                            "collective": "scatter",
                        }
                        yield {
                            "kind": "send", "src": root, "dst": root + d,
                            "tag": f"sb:{k}:{i}:{j}:{d}",
                            "key": ("A", k, j, d),
                            "buf": (bkey, (off, off + w, 0, bj)),
                            "collective": "scatter",
                        }
                w0 = widths[0]
                yield {
                    "kind": "mp", "rank": root, "name": "mp_rank",
                    "out": (("A", i, j), None),
                    "a": (akey, (0, bi, 0, w0)),
                    "b": (bkey, (0, w0, 0, bj)),
                }
                if active:
                    yield {
                        "kind": "collective", "ckind": "reduce",
                        "tag": f"red:{k}:{i}:{j}", "root": root,
                        "ranks": (root, *(root + d for d in active)),
                    }
                for d in active:
                    sib = root + d
                    w = widths[d]
                    yield {
                        "kind": "alloc", "rank": sib, "buf": ("sa",),
                        "shape": (bi, w), "prefilled": False,
                    }
                    yield {
                        "kind": "recv", "rank": sib, "src": root,
                        "tag": f"sa:{k}:{i}:{j}:{d}", "key": ("A", i, k, d),
                        "buf": (("sa",), None), "collective": "scatter",
                    }
                    yield {
                        "kind": "alloc", "rank": sib, "buf": ("sb",),
                        "shape": (w, bj), "prefilled": False,
                    }
                    yield {
                        "kind": "recv", "rank": sib, "src": root,
                        "tag": f"sb:{k}:{i}:{j}:{d}", "key": ("A", k, j, d),
                        "buf": (("sb",), None), "collective": "scatter",
                    }
                    yield {
                        "kind": "alloc", "rank": sib, "buf": ("sp",),
                        "shape": (bi, bj), "prefilled": True,
                    }
                    yield {
                        "kind": "mp", "rank": sib, "name": "mp_part",
                        "out": (("sp",), None), "a": (("sa",), None),
                        "b": (("sb",), None),
                    }
                    yield {
                        "kind": "send", "src": sib, "dst": root,
                        "tag": f"red:{k}:{i}:{j}:{d}", "key": ("A", i, j, d),
                        "buf": (("sp",), None), "collective": "reduce",
                    }
                    for buf in (("sa",), ("sb",), ("sp",)):
                        yield {"kind": "free", "rank": sib, "buf": buf}
                    yield {
                        "kind": "alloc", "rank": root, "buf": ("part", d),
                        "shape": (bi, bj), "prefilled": False,
                    }
                    yield {
                        "kind": "recv", "rank": root, "src": sib,
                        "tag": f"red:{k}:{i}:{j}:{d}", "key": ("A", i, j, d),
                        "buf": (("part", d), None), "collective": "reduce",
                    }
                    yield {
                        "kind": "combine", "rank": root,
                        "out": (("A", i, j), None),
                        "part": (("part", d), None),
                    }
                    yield {"kind": "free", "rank": root, "buf": ("part", d)}

        for rank in sorted(scratch):
            for buf in scratch[rank]:
                yield {"kind": "free", "rank": rank, "buf": buf}
        yield {"kind": "barrier", "label": f"round-{k}"}

    # ---- terminal all-gather: replicate the matrix on every lead
    leads = [lead(node) for node in range(cluster.num_nodes)]
    if len(leads) > 1:
        yield {
            "kind": "collective", "ckind": "allgather", "tag": "gather",
            "root": leads[0], "ranks": tuple(leads),
        }
    for node in range(cluster.num_nodes):
        yield {
            "kind": "alloc", "rank": lead(node), "buf": ("full",),
            "shape": (n, n), "prefilled": False,
        }
    blocks = layout.blocks
    for node in range(cluster.num_nodes):
        root = lead(node)
        for i, j in layout.owned_blocks(node):
            out_rect = (
                blocks.start(i), blocks.stop(i),
                blocks.start(j), blocks.stop(j),
            )
            yield {
                "kind": "pack", "rank": root,
                "out": (("full",), out_rect), "src": (("A", i, j), None),
            }
            for other in leads:
                if other != root:
                    yield {
                        "kind": "send", "src": root, "dst": other,
                        "tag": f"gath:{i}:{j}", "key": ("A", i, j),
                        "buf": (("A", i, j), None), "collective": "allgather",
                    }
    for node in range(cluster.num_nodes):
        root = lead(node)
        for i in range(nd):
            for j in range(nd):
                owner = layout.owner_node(i, j)
                if owner == node:
                    continue
                out_rect = (
                    blocks.start(i), blocks.stop(i),
                    blocks.start(j), blocks.stop(j),
                )
                yield {
                    "kind": "recv", "rank": root, "src": lead(owner),
                    "tag": f"gath:{i}:{j}", "key": ("A", i, j),
                    "buf": (("full",), out_rect), "collective": "allgather",
                }
    yield {"kind": "barrier", "label": "after-allgather"}


# ---------------------------------------------------------------------------
# dynamic simulator
# ---------------------------------------------------------------------------


@dataclass
class _RankClock:
    """Per-rank clock state — the dynamic twin of the static replay."""

    host: float = 0.0
    stream: float = 0.0
    compute: float = 0.0
    net: dict[int, float] = field(default_factory=dict)
    busy_compute: float = 0.0
    busy_net: float = 0.0

    @property
    def elapsed(self) -> float:
        peak = max(self.host, self.compute)
        if self.net:
            peak = max(peak, max(self.net.values()))
        return peak

    def kernel(self, overhead: float, duration: float) -> None:
        self.host += overhead
        start = max(self.stream, self.host, self.compute)
        end = start + duration
        self.stream = end
        self.compute = end
        self.busy_compute += duration

    def send(self, dst: int, duration: float) -> float:
        start = max(self.stream, self.host, self.net.get(dst, 0.0))
        end = start + duration
        self.stream = end
        self.net[dst] = end
        self.busy_net += duration
        return end

    def recv(self, arrival: float) -> None:
        if arrival > self.stream:
            self.stream = arrival

    def floor(self, t: float) -> None:
        self.host = max(self.host, t)
        self.stream = max(self.stream, t)
        self.compute = max(self.compute, t)
        for dst in self.net:
            self.net[dst] = max(self.net[dst], t)


def cluster_fw(
    graph: CSRGraph,
    cluster: ClusterSpec,
    *,
    block_size: int | None = None,
) -> ClusterResult:
    """Run distributed blocked FW on the simulated cluster.

    Executes the canonical op stream: block numerics through the kernel
    engine (bit-identical to the single-device drivers) and the per-rank
    α–β clock replay described in the module docstring. Returns the full
    distance matrix (as gathered on lead 0) plus the complete message
    trace and timing.
    """
    from repro.core.engine import default_engine

    n = graph.num_vertices
    if block_size is None:
        block_size = default_block_size(n, cluster)
    layout = BlockCyclicLayout(n=n, block_size=block_size, grid=cluster.grid)
    spec = cluster.device
    engine = default_engine()
    dense = graph.to_dense(dtype=DIST_DTYPE)

    arrays: dict[tuple[int, tuple], np.ndarray] = {}
    clocks = [_RankClock() for _ in range(cluster.num_ranks)]
    #: (src, dst, tag) -> FIFO of (arrival time, payload snapshot)
    arrivals: dict[tuple[int, int, str], list[tuple[float, np.ndarray]]] = {}
    messages: list[Message] = []
    link_bytes: dict[tuple[int, int], int] = {}
    kind_bytes: dict[str, int] = {}
    num_kernels = 0

    def view(rank: int, ref) -> np.ndarray:
        key, rect = ref
        arr = arrays[(rank, key)]
        if rect is None:
            return arr
        r0, r1, c0, c1 = rect
        return arr[r0:r1, c0:c1]

    for op in _cluster_ops(n, cluster, layout):
        kind = op["kind"]
        if kind == "alloc":
            shape = op["shape"]
            if op["buf"][0] == "A" and len(op["buf"]) == 3:
                _, i, j = op["buf"]
                arr = np.ascontiguousarray(
                    dense[layout.blocks.slice(i), layout.blocks.slice(j)]
                )
            elif op["prefilled"]:
                arr = np.full(shape, np.inf, dtype=DIST_DTYPE)
            else:
                arr = np.empty(shape, dtype=DIST_DTYPE)
            arrays[(op["rank"], op["buf"])] = arr
        elif kind == "free":
            del arrays[(op["rank"], op["buf"])]
        elif kind == "fw_diag":
            arr = view(op["rank"], op["out"])
            engine.fw_inplace(arr)
            clocks[op["rank"]].kernel(
                spec.kernel_launch_overhead, fw_tile_cost(spec, arr.shape[0])
            )
            num_kernels += 1
        elif kind == "mp":
            out = view(op["rank"], op["out"])
            a = view(op["rank"], op["a"])
            b = view(op["rank"], op["b"])
            minplus_update(out, a, b, engine=engine)
            clocks[op["rank"]].kernel(
                spec.kernel_launch_overhead,
                minplus_cost(spec, out.shape[0], a.shape[1], out.shape[1]),
            )
            num_kernels += 1
        elif kind == "combine":
            out = view(op["rank"], op["out"])
            part = view(op["rank"], op["part"])
            np.minimum(out, part, out=out)
            clocks[op["rank"]].kernel(
                spec.kernel_launch_overhead,
                combine_cost(spec, out.shape[0], out.shape[1]),
            )
            num_kernels += 1
        elif kind == "pack":
            out = view(op["rank"], op["out"])
            out[...] = view(op["rank"], op["src"])
            clocks[op["rank"]].kernel(
                spec.kernel_launch_overhead,
                extract_cost(spec, out.shape[0], out.shape[1]),
            )
            num_kernels += 1
        elif kind == "send":
            src, dst = op["src"], op["dst"]
            data = view(src, op["buf"])
            nbytes = data.size * _ELEM
            link = cluster.link_of(src, dst)
            arrival = clocks[src].send(dst, link.duration(nbytes))
            arrivals.setdefault((src, dst, op["tag"]), []).append(
                (arrival, data.copy())
            )
            messages.append(Message(
                src=src, dst=dst, tag=op["tag"], key=op["key"],
                nbytes=nbytes, collective=op["collective"], link=link.name,
            ))
            link_bytes[(src, dst)] = link_bytes.get((src, dst), 0) + nbytes
            kind_bytes[op["collective"]] = (
                kind_bytes.get(op["collective"], 0) + nbytes
            )
        elif kind == "recv":
            arrival, payload = arrivals[
                (op["src"], op["rank"], op["tag"])
            ].pop(0)
            clocks[op["rank"]].recv(arrival)
            view(op["rank"], op["buf"])[...] = payload
        elif kind == "barrier":
            t = max(c.elapsed for c in clocks)
            for c in clocks:
                c.floor(t)
        # "collective" markers carry no clock or data effect

    dist = arrays[(cluster.lead_rank(0), ("full",))].copy()
    return ClusterResult(
        dist=dist,
        messages=messages,
        link_bytes=link_bytes,
        kind_bytes=kind_bytes,
        makespan=max(c.elapsed for c in clocks),
        compute_seconds=sum(c.busy_compute for c in clocks),
        net_seconds=sum(c.busy_net for c in clocks),
        num_rounds=layout.num_blocks,
        num_kernels=num_kernels,
        block_size=block_size,
    )


# ---------------------------------------------------------------------------
# static mirror
# ---------------------------------------------------------------------------


def emit_cluster_ir(
    n: int,
    cluster: ClusterSpec,
    *,
    block_size: int | None = None,
) -> list[PlanIR]:
    """Mirror the distributed schedule as one ``PlanIR`` per rank.

    Walks the same canonical op stream :func:`cluster_fw` executes, so
    every kernel launch, lowered collective message, and barrier appears
    in the same per-rank order with the same operand rectangles and byte
    counts. Owned blocks are allocated ``prefilled`` — the initial
    distribution is assumed done, exactly as the simulator seeds them
    from the graph.
    """
    if block_size is None:
        block_size = default_block_size(n, cluster)
    layout = BlockCyclicLayout(n=n, block_size=block_size, grid=cluster.grid)
    spec = cluster.device

    emitters = [
        IREmitter(
            "cluster-fw", f"{spec.name}#{r}", spec.memory_bytes, rank=r
        )
        for r in range(cluster.num_ranks)
    ]
    buffers: dict[tuple[int, tuple], object] = {}

    def bufname(key: tuple) -> str:
        if key[0] == "A" and len(key) == 3:
            return f"A({key[1]},{key[2]})"
        return ":".join(str(part) for part in key)

    def operand(rank: int, ref):
        key, rect = ref
        buf = buffers[(rank, key)]
        if rect is None:
            return buf
        r0, r1, c0, c1 = rect
        return (buf, Rect(r0, r1, c0, c1))

    for op in _cluster_ops(n, cluster, layout):
        kind = op["kind"]
        if kind == "alloc":
            rank = op["rank"]
            buffers[(rank, op["buf"])] = emitters[rank].alloc(
                bufname(op["buf"]), op["shape"], prefilled=op["prefilled"]
            )
        elif kind == "free":
            rank = op["rank"]
            emitters[rank].free(buffers.pop((rank, op["buf"])))
        elif kind == "fw_diag":
            out = operand(op["rank"], op["out"])
            emitters[op["rank"]].kernel(
                "fw_diag", reads=[out], writes=[out]
            )
        elif kind == "mp":
            rank = op["rank"]
            out = operand(rank, op["out"])
            emitters[rank].kernel(
                op["name"],
                reads=[out, operand(rank, op["a"]), operand(rank, op["b"])],
                writes=[out],
            )
        elif kind == "combine":
            rank = op["rank"]
            out = operand(rank, op["out"])
            part = operand(rank, op["part"])
            pbuf = buffers[(rank, op["part"][0])]
            emitters[rank].kernel(
                "min_combine",
                reads=[out, part],
                writes=[out],
                cost=combine_cost(spec, pbuf.shape[0], pbuf.shape[1]),
            )
        elif kind == "pack":
            rank = op["rank"]
            out_key, out_rect = op["out"]
            r0, r1, c0, c1 = out_rect
            emitters[rank].kernel(
                "pack",
                reads=[operand(rank, op["src"])],
                writes=[operand(rank, op["out"])],
                cost=extract_cost(spec, r1 - r0, c1 - c0),
            )
        elif kind == "send":
            src = op["src"]
            key, rect = op["buf"]
            buf = buffers[(src, key)]
            emitters[src].send(
                buf,
                None if rect is None else Rect(*rect),
                dst=op["dst"], tag=op["tag"], key=op["key"],
                collective=op["collective"],
            )
        elif kind == "recv":
            rank = op["rank"]
            key, rect = op["buf"]
            buf = buffers[(rank, key)]
            emitters[rank].recv(
                buf,
                None if rect is None else Rect(*rect),
                src=op["src"], tag=op["tag"], key=op["key"],
                collective=op["collective"],
            )
        elif kind == "collective":
            for rank in op["ranks"]:
                emitters[rank].collective(
                    op["ckind"], tag=op["tag"], root=op["root"],
                    ranks=op["ranks"],
                )
        elif kind == "barrier":
            for emitter in emitters:
                emitter.barrier(op["label"])

    return [emitter.finish() for emitter in emitters]
