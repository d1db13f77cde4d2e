"""Incremental APSP: patch a solved distance matrix under edge updates.

ROADMAP item 3: dynamic workloads (road traffic, network routing) mutate
edge weights continuously, and re-running the full out-of-core solve per
mutation wastes an ``O(n_d · n²)`` bus budget on an ``O(n²)`` change. This
module patches a solved ``dist`` in place:

* **decreases / insertions** — the rank-1 min-plus update
  ``dist = min(dist, dist[:, u] + w + dist[v, :])`` generalised to a
  *batch* of ``k`` simultaneous decreases. A new shortest path may chain
  several decreased edges, so the naive per-edge rank-1 sweep is not
  exact for batches; instead we fold the ``k × k`` transition matrix
  ``T[e, f] = dist[v_e, u_f] + w_f`` to its min-plus closure ``T*``
  (diagonal clamped to 0, allowing any number of decreased-edge hops) and
  apply ``dist = min(dist, (A ⊗ T*) ⊗ B)`` with ``A[:, e] = dist[:, u_e]
  + w_e`` and ``B[e, :] = dist[v_e, :]``. Every term is a real path cost
  in the updated graph (upper-bound validity), and any new-optimal path
  decomposes into old-graph segments separated by decreased-edge hops
  (completeness), so the batched patch is *exact* — and bit-identical to
  a re-solve for the integer-valued weights the generators produce;

* **increases / deletions** — edge ``(u, v)`` with old weight ``w`` lies
  on a shortest path from ``x`` iff ``dist[x, u] + w == dist[x, v]``
  (shortest-path prefix property), so the affected sources are one
  vectorised ``O(n)`` test per edge; only those rows can change and they
  are recomputed exactly on the updated graph, one batched Near-Far
  launch (:func:`repro.sssp.near_far.near_far_batch`) per affected block
  row — its rows equal per-source Dijkstra bit for bit;

* **mixed batches** — increases run first (their SSSP rows are exact for
  the *full* updated graph, decreases included), then the batched
  decrease pass patches the remaining rows; the decrease terms are valid
  upper bounds everywhere so already-exact rows are left untouched.

Each pass is driven by one canonical op generator (:func:`update_ops`)
that both the numeric executor and the static :func:`emit_update_ir`
mirror walk — the same discipline as :mod:`repro.cluster.simulate` and
the out-of-core drivers, so the transfer trace and the symbolic schedule
cannot drift. The static proofs over the emitted ``PlanIR`` live in
:mod:`repro.verifyplan.updatebounds` and :mod:`repro.dynamic.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.blocked_fw import floyd_warshall
from repro.core.engine import DIST_DTYPE, KernelEngine, default_engine
from repro.graphs.csr import CSRGraph
# ``dijkstra`` is unused here but stays bound under this name: the
# benchmark tracer (perfbench/spans.py) rebinds SSSP entry points by name
# in every repro module, and its tests check this binding is restored.
from repro.sssp.dijkstra import dijkstra  # noqa: F401
from repro.sssp.near_far import near_far_batch
from repro.verifyplan.ir import IREmitter, PlanIR, Rect, SymBuffer, SymEvent

__all__ = [
    "DynamicAPSP",
    "EdgeUpdate",
    "PatchPass",
    "TransferRecord",
    "UpdatePlan",
    "UpdateResult",
    "apply_edge_updates",
    "emit_ops_ir",
    "emit_update_ir",
    "trace_tally",
    "update_ops",
]

OpDict = dict[str, Any]

#: per-update decrease batches are capped at ``n // 2`` edges so the patch
#: traffic ``(2n² + 2nk + k²)`` elements stays under the ``4n²`` O(n²)
#: gate in :mod:`repro.verifyplan.updatebounds`; larger batches split into
#: sequential exact chunks (decreases compose).
def _decrease_chunk(n: int) -> int:
    return max(1, n // 2)


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge mutation: set ``(u, v)`` to ``weight`` (``inf`` deletes).

    Inserting a missing edge is just a decrease from the implicit ``inf``;
    deleting a missing edge is a no-op.
    """

    u: int
    v: int
    weight: float

    @classmethod
    def delete(cls, u: int, v: int) -> "EdgeUpdate":
        return cls(u, v, math.inf)


# ---------------------------------------------------------------------------
# graph mutation (CSRGraph is frozen: updates build a new graph)
# ---------------------------------------------------------------------------
def _canonical_changes(
    graph: CSRGraph, updates: Sequence[EdgeUpdate]
) -> dict[tuple[int, int], float]:
    """Validate and dedupe updates to one target weight per edge (last wins)."""
    n = graph.num_vertices
    changes: dict[tuple[int, int], float] = {}
    for upd in updates:
        u, v, w = int(upd.u), int(upd.v), float(upd.weight)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError("self-loop updates carry no APSP information")
        if math.isnan(w) or w < 0:
            raise ValueError(f"edge weight must be >= 0 or inf, got {w}")
        changes[(u, v)] = w
    return changes


def _current_weights(
    graph: CSRGraph, pairs: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], float]:
    """Current weight per pair (``inf`` where the edge does not exist)."""
    out: dict[tuple[int, int], float] = {}
    for u, v in pairs:
        lo, hi = int(graph.indptr[u]), int(graph.indptr[u + 1])
        hit = np.flatnonzero(graph.indices[lo:hi] == v)
        out[(u, v)] = float(graph.weights[lo + hit[0]]) if hit.size else math.inf
    return out


def apply_edge_updates(
    graph: CSRGraph, changes: Mapping[tuple[int, int], float]
) -> CSRGraph:
    """New :class:`CSRGraph` with every ``(u, v) -> weight`` applied
    (``inf`` removes the edge); the input graph is untouched."""
    n = graph.num_vertices
    src, dst, w = graph.edge_array()
    keep = np.ones(len(src), dtype=bool)
    if len(src) and changes:
        key = src * np.int64(n) + dst
        changed = np.array([u * n + v for u, v in changes], dtype=np.int64)
        keep = ~np.isin(key, changed)
    added = [(u, v, wt) for (u, v), wt in sorted(changes.items()) if math.isfinite(wt)]
    new_src = np.concatenate([src[keep], np.array([e[0] for e in added], dtype=np.int64)])
    new_dst = np.concatenate([dst[keep], np.array([e[1] for e in added], dtype=np.int64)])
    new_w = np.concatenate([w[keep], np.array([e[2] for e in added], dtype=np.float64)])
    return CSRGraph.from_edges(
        n, new_src, new_dst, new_w, name=getattr(graph, "name", "")
    )


# ---------------------------------------------------------------------------
# the blocked update plan — shared by executor, emitter, and bounds
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class UpdatePlan:
    """Parameters of one blocked patch sweep.

    ``kind == "decrease"`` sweeps every block of ``dist`` through the
    batched rank-1 kernel; ``kind == "increase"`` uploads the updated CSR
    graph once and writes back only the affected block-rows.
    """

    kind: str
    n: int
    block_size: int
    #: batched-decrease width (number of simultaneously decreased edges)
    k: int = 0
    #: sorted affected source rows (increase pass only)
    affected_rows: tuple[int, ...] = ()
    #: edge count of the *updated* graph (increase pass upload volume)
    graph_m: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("decrease", "increase"):
            raise ValueError(f"unknown update kind {self.kind!r}")
        if self.n < 1 or not (1 <= self.block_size <= self.n):
            raise ValueError("need 1 <= block_size <= n")
        if self.kind == "decrease" and self.k < 1:
            raise ValueError("decrease pass needs k >= 1")
        if self.kind == "increase" and not self.affected_rows:
            raise ValueError("increase pass needs a non-empty affected set")

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:
        b = self.block_size
        return tuple((s, min(s + b, self.n)) for s in range(0, self.n, b))

    @property
    def num_blocks(self) -> int:
        return len(self.spans)

    def affected_in_row(self, i: int) -> tuple[int, ...]:
        r0, r1 = self.spans[i]
        return tuple(r for r in self.affected_rows if r0 <= r < r1)

    @property
    def affected_block_rows(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(self.num_blocks) if self.affected_in_row(i)
        )

    @property
    def csr_bytes(self) -> int:
        """Upload volume of the updated graph (int64 indptr/indices +
        float64 weights)."""
        return 8 * (self.n + 1) + (16 * self.graph_m if self.graph_m else 0)

    def touched_blocks(self) -> frozenset[tuple[int, int]]:
        """The statically planned touched-block over-approximation."""
        if self.kind == "decrease":
            nb = self.num_blocks
            return frozenset((i, j) for i in range(nb) for j in range(nb))
        return frozenset(
            (i, j) for i in self.affected_block_rows for j in range(self.num_blocks)
        )


# ---------------------------------------------------------------------------
# canonical op generator: ONE source of truth for executor and emitter
# ---------------------------------------------------------------------------
def update_ops(plan: UpdatePlan) -> Iterator[OpDict]:
    """Yield the primitive op stream of one patch sweep.

    Both :func:`_execute_ops` (real numerics + transfer trace) and
    :func:`emit_update_ir` (symbolic ``PlanIR``) walk this exact stream,
    so the dynamic trace and the static schedule are structurally
    identical by construction.
    """
    if plan.kind == "decrease":
        yield from _decrease_ops(plan)
    else:
        yield from _increase_ops(plan)


def _decrease_ops(plan: UpdatePlan) -> Iterator[OpDict]:
    n, k, b = plan.n, plan.k, plan.block_size
    spans = plan.spans
    yield {"kind": "alloc", "buf": "colpanel", "shape": (n, k)}
    yield {"kind": "alloc", "buf": "rowpanel", "shape": (k, n)}
    yield {"kind": "alloc", "buf": "kk", "shape": (k, k)}
    yield {"kind": "alloc", "buf": "blk0", "shape": (b, b)}
    yield {"kind": "alloc", "buf": "blk1", "shape": (b, b)}
    yield {"kind": "h2d", "buf": "colpanel", "rect": (0, n, 0, k), "key": ("panel", "col"), "stream": "copy"}
    yield {"kind": "h2d", "buf": "rowpanel", "rect": (0, k, 0, n), "key": ("panel", "row"), "stream": "copy"}
    yield {"kind": "h2d", "buf": "kk", "rect": (0, k, 0, k), "key": ("panel", "kk"), "stream": "copy"}
    yield {"kind": "record", "event": "panels-up", "stream": "copy"}
    yield {"kind": "wait", "event": "panels-up", "stream": "compute"}
    # fold the k×k transition matrix to its closure, then fold it into the
    # column panel: A' = A ⊗ T*. Both run before any block kernel reads
    # the panels — the ordering the stale-pivot-panel soundness rule checks.
    yield {
        "kind": "kernel", "name": "fold_closure", "stream": "compute",
        "reads": [("kk", (0, k, 0, k))], "writes": [("kk", (0, k, 0, k))],
    }
    yield {
        "kind": "kernel", "name": "fold_panel", "stream": "compute",
        "reads": [("colpanel", (0, n, 0, k)), ("kk", (0, k, 0, k))],
        "writes": [("colpanel", (0, n, 0, k))],
    }
    t = 0
    for i, (r0, r1) in enumerate(spans):
        for j, (c0, c1) in enumerate(spans):
            slot = f"blk{t % 2}"
            rect = (0, r1 - r0, 0, c1 - c0)
            yield {"kind": "h2d", "buf": slot, "rect": rect, "key": ("A", i, j), "stream": "copy"}
            yield {"kind": "record", "event": f"up:{i}:{j}", "stream": "copy"}
            yield {"kind": "wait", "event": f"up:{i}:{j}", "stream": "compute"}
            yield {
                "kind": "kernel", "name": "rank1_patch", "block": (i, j), "stream": "compute",
                "reads": [
                    (slot, rect),
                    ("colpanel", (r0, r1, 0, k)),
                    ("rowpanel", (0, k, c0, c1)),
                ],
                "writes": [(slot, rect)],
            }
            yield {"kind": "record", "event": f"done:{i}:{j}", "stream": "compute"}
            yield {"kind": "wait", "event": f"done:{i}:{j}", "stream": "copy"}
            yield {"kind": "d2h", "buf": slot, "rect": rect, "key": ("A", i, j), "stream": "copy"}
            t += 1
    for name in ("blk1", "blk0", "kk", "rowpanel", "colpanel"):
        yield {"kind": "free", "buf": name}


def _increase_ops(plan: UpdatePlan) -> Iterator[OpDict]:
    n, m = plan.n, plan.graph_m
    yield {"kind": "alloc", "buf": "indptr", "shape": (n + 1,)}
    yield {"kind": "h2d", "buf": "indptr", "rect": (0, n + 1, 0, 1), "key": ("csr", "indptr"), "stream": "copy"}
    if m:
        yield {"kind": "alloc", "buf": "indices", "shape": (m,)}
        yield {"kind": "alloc", "buf": "weights", "shape": (m,)}
        yield {"kind": "h2d", "buf": "indices", "rect": (0, m, 0, 1), "key": ("csr", "indices"), "stream": "copy"}
        yield {"kind": "h2d", "buf": "weights", "rect": (0, m, 0, 1), "key": ("csr", "weights"), "stream": "copy"}
    yield {"kind": "record", "event": "csr-up", "stream": "copy"}
    yield {"kind": "wait", "event": "csr-up", "stream": "compute"}
    csr_reads = [("indptr", None)] + ([("indices", None), ("weights", None)] if m else [])
    for i in plan.affected_block_rows:
        rows = plan.affected_in_row(i)
        buf = f"rows{i}"
        yield {"kind": "alloc", "buf": buf, "shape": (len(rows), n)}
        yield {
            "kind": "kernel", "name": "sssp_rows", "block_row": i, "rows": rows,
            "stream": "compute", "reads": list(csr_reads), "writes": [(buf, None)],
        }
        yield {"kind": "record", "event": f"rows-done:{i}", "stream": "compute"}
        yield {"kind": "wait", "event": f"rows-done:{i}", "stream": "copy"}
        yield {"kind": "d2h", "buf": buf, "rect": (0, len(rows), 0, n), "key": ("rows", i), "stream": "copy"}
        yield {"kind": "free", "buf": buf}
    if m:
        yield {"kind": "free", "buf": "weights"}
        yield {"kind": "free", "buf": "indices"}
    yield {"kind": "free", "buf": "indptr"}


# ---------------------------------------------------------------------------
# static mirror: ops -> PlanIR
# ---------------------------------------------------------------------------
def _operand(
    bufs: Mapping[str, SymBuffer], ref: tuple[str, tuple[int, int, int, int] | None]
) -> SymBuffer | tuple[SymBuffer, Rect]:
    name, rect = ref
    buf = bufs[name]
    return buf if rect is None else (buf, Rect(*rect))


def emit_ops_ir(ops: Iterable[OpDict], plan: UpdatePlan, spec: Any) -> PlanIR:
    """Lower an op stream to a :class:`PlanIR` (the static mirror)."""
    emitter = IREmitter(f"dynamic-{plan.kind}", spec.name, spec.memory_bytes)
    bufs: dict[str, SymBuffer] = {}
    events: dict[str, SymEvent] = {}
    for op in ops:
        kind = op["kind"]
        if kind == "alloc":
            bufs[op["buf"]] = emitter.alloc(
                op["buf"], op["shape"], dtype=_buf_dtype(op["buf"])
            )
        elif kind == "free":
            emitter.free(bufs[op["buf"]])
        elif kind == "h2d":
            emitter.h2d(
                bufs[op["buf"]], Rect(*op["rect"]), key=op["key"],
                stream=op["stream"], sync=False,
            )
        elif kind == "d2h":
            emitter.d2h(
                bufs[op["buf"]], Rect(*op["rect"]), key=op["key"],
                stream=op["stream"], sync=False,
            )
        elif kind == "record":
            events[op["event"]] = emitter.record(op["event"], stream=op["stream"])
        elif kind == "wait":
            emitter.wait(events[op["event"]], stream=op["stream"])
        elif kind == "kernel":
            emitter.kernel(
                op["name"],
                reads=[_operand(bufs, r) for r in op["reads"]],
                writes=[_operand(bufs, w) for w in op["writes"]],
                stream=op["stream"],
            )
        else:  # pragma: no cover - generator and emitter share the vocabulary
            raise ValueError(f"unknown op kind {kind!r}")
    return emitter.finish()


def emit_update_ir(plan: UpdatePlan, spec: Any) -> PlanIR:
    """Static block-sweep mirror of one patch pass."""
    return emit_ops_ir(update_ops(plan), plan, spec)


# ---------------------------------------------------------------------------
# dynamic executor: same op stream, real numerics + transfer trace
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TransferRecord:
    """One bus transfer the executor performed (mirrors a ``CopyOp``)."""

    kind: str
    key: tuple
    nbytes: int


def trace_tally(trace: Sequence[TransferRecord]) -> dict[str, Any]:
    """Aggregate a transfer trace into the same shape as the IR tally."""
    h2d_by_key: dict[tuple, int] = {}
    d2h_by_key: dict[tuple, int] = {}
    for rec in trace:
        table = h2d_by_key if rec.kind == "h2d" else d2h_by_key
        table[rec.key] = table.get(rec.key, 0) + rec.nbytes
    return {
        "bytes_h2d": sum(h2d_by_key.values()),
        "bytes_d2h": sum(d2h_by_key.values()),
        "num_h2d": sum(1 for r in trace if r.kind == "h2d"),
        "num_d2h": sum(1 for r in trace if r.kind == "d2h"),
        "h2d_by_key": h2d_by_key,
        "d2h_by_key": d2h_by_key,
    }


def _buf_dtype(name: str) -> Any:
    if name in ("indptr", "indices"):
        return np.int64
    if name == "weights":
        return np.float64
    return DIST_DTYPE


def _rect_view(arr: np.ndarray, rect: tuple[int, int, int, int]) -> np.ndarray:
    r0, r1, c0, c1 = rect
    if arr.ndim == 1:
        return arr[r0:r1]
    return arr[r0:r1, c0:c1]


def _execute_ops(
    ops: Iterable[OpDict],
    plan: UpdatePlan,
    dist: np.ndarray,
    *,
    engine: KernelEngine,
    panels: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    graph: CSRGraph | None = None,
) -> tuple[list[TransferRecord], set[tuple[int, int]], int]:
    """Execute one patch sweep on ``dist`` in place.

    Returns ``(trace, changed_blocks, num_kernels)``; ``changed_blocks``
    is the *measured* set of blocks whose bytes actually changed — the
    dynamic ground truth the static touched-block over-approximation is
    checked against.
    """
    spans = plan.spans
    device: dict[str, np.ndarray] = {}
    trace: list[TransferRecord] = []
    changed: set[tuple[int, int]] = set()
    kernels = 0

    def host_source(key: tuple) -> np.ndarray:
        if key[0] == "panel":
            assert panels is not None
            return {"col": panels[0], "kk": panels[1], "row": panels[2]}[key[1]]
        if key[0] == "A":
            (r0, r1), (c0, c1) = spans[key[1]], spans[key[2]]
            return dist[r0:r1, c0:c1]
        assert key[0] == "csr" and graph is not None
        return {
            "indptr": graph.indptr, "indices": graph.indices, "weights": graph.weights,
        }[key[1]]

    for op in ops:
        kind = op["kind"]
        if kind == "alloc":
            device[op["buf"]] = np.empty(op["shape"], dtype=_buf_dtype(op["buf"]))
        elif kind == "free":
            del device[op["buf"]]
        elif kind in ("record", "wait"):
            continue  # host-side ordering; numerics are sequential here
        elif kind == "h2d":
            view = _rect_view(device[op["buf"]], op["rect"])
            view[...] = host_source(op["key"]).reshape(view.shape)
            trace.append(TransferRecord("h2d", tuple(op["key"]), view.size * view.itemsize))
        elif kind == "d2h":
            view = _rect_view(device[op["buf"]], op["rect"])
            key = tuple(op["key"])
            if key[0] == "A":
                i, j = key[1], key[2]
                (r0, r1), (c0, c1) = spans[i], spans[j]
                target = dist[r0:r1, c0:c1]
                if not np.array_equal(target, view):
                    changed.add((i, j))
                target[...] = view
            else:  # ("rows", i): write back the recomputed block-row
                i = key[1]
                rows = np.asarray(plan.affected_in_row(i), dtype=np.int64)
                old = dist[rows, :]
                for j, (c0, c1) in enumerate(spans):
                    if not np.array_equal(old[:, c0:c1], view[:, c0:c1]):
                        changed.add((i, j))
                dist[rows, :] = view
            trace.append(TransferRecord("d2h", key, view.size * view.itemsize))
        elif kind == "kernel":
            kernels += 1
            name = op["name"]
            if name == "fold_closure":
                kk = device["kk"]
                np.fill_diagonal(kk, np.minimum(np.diagonal(kk), 0.0))
                engine.fw_inplace(kk)
            elif name == "fold_panel":
                device["colpanel"][...] = engine.minplus(device["colpanel"], device["kk"])
            elif name == "rank1_patch":
                i, j = op["block"]
                (r0, r1), (c0, c1) = spans[i], spans[j]
                slot, rect = op["writes"][0]
                view = _rect_view(device[slot], rect)
                blk = np.ascontiguousarray(view)
                engine.update(
                    blk,
                    np.ascontiguousarray(device["colpanel"][r0:r1]),
                    np.ascontiguousarray(device["rowpanel"][:, c0:c1]),
                )
                view[...] = blk
            elif name == "sssp_rows":
                assert graph is not None
                rows, _stats = near_far_batch(graph, np.asarray(op["rows"], dtype=np.int64))
                # float64 -> float32; exact for int weights
                device[op["writes"][0][0]][...] = rows
            else:  # pragma: no cover
                raise ValueError(f"unknown kernel {name!r}")
        else:  # pragma: no cover
            raise ValueError(f"unknown op kind {kind!r}")
    return trace, changed, kernels


# ---------------------------------------------------------------------------
# the user-facing engine
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PatchPass:
    """One executed sweep: its plan, trace, and measured block deltas."""

    plan: UpdatePlan
    trace: tuple[TransferRecord, ...]
    touched_blocks: frozenset[tuple[int, int]]
    changed_blocks: frozenset[tuple[int, int]]
    num_kernels: int


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one :meth:`DynamicAPSP.apply` batch."""

    applied: int
    noops: int
    passes: tuple[PatchPass, ...]
    old_fingerprint: str
    new_fingerprint: str

    @property
    def bytes_moved(self) -> int:
        return sum(rec.nbytes for p in self.passes for rec in p.trace)


class DynamicAPSP:
    """A solved APSP instance that accepts incremental edge updates.

    Holds the current :class:`CSRGraph` and its float32 distance closure;
    :meth:`apply` patches both under a batch of mutations, amortising all
    simultaneous changes into at most one SSSP pass plus one blocked
    rank-1 sweep. All in-place mutation of solved state lives *here* —
    everywhere else it is a stale-cache hazard (lint rule RPR011).
    """

    def __init__(
        self,
        graph: CSRGraph,
        dist: np.ndarray | None = None,
        *,
        engine: KernelEngine | None = None,
        block_size: int | None = None,
    ) -> None:
        self._engine = engine if engine is not None else default_engine()
        n = graph.num_vertices
        if dist is None:
            dist = floyd_warshall(graph.to_dense(DIST_DTYPE), engine=self._engine)
        dist = np.ascontiguousarray(dist, dtype=DIST_DTYPE)
        if dist.shape != (n, n):
            raise ValueError(f"dist shape {dist.shape} does not match n={n}")
        self.graph = graph
        self.dist = dist
        self.block_size = int(block_size) if block_size else n
        if not 1 <= self.block_size <= n:
            raise ValueError(f"need 1 <= block_size <= {n}")

    # -- convenience wrappers ------------------------------------------------
    def decrease_edge(self, u: int, v: int, weight: float) -> UpdateResult:
        return self.apply([EdgeUpdate(u, v, weight)])

    def increase_edge(self, u: int, v: int, weight: float) -> UpdateResult:
        return self.apply([EdgeUpdate(u, v, weight)])

    def delete_edge(self, u: int, v: int) -> UpdateResult:
        return self.apply([EdgeUpdate.delete(u, v)])

    # -- the batched update --------------------------------------------------
    def apply(self, updates: Sequence[EdgeUpdate]) -> UpdateResult:
        """Apply a batch of edge updates; exact (and bit-identical to a
        full re-solve for integer weights below 2²⁴)."""
        from repro.faults.checkpoint import graph_fingerprint

        n = self.graph.num_vertices
        changes = _canonical_changes(self.graph, updates)
        current = _current_weights(self.graph, changes)
        decreases = {p: w for p, w in changes.items() if w < current[p]}
        increases = {p: w for p, w in changes.items() if w > current[p]}
        old_fp = graph_fingerprint(self.graph)
        if not decreases and not increases:
            return UpdateResult(0, len(changes), (), old_fp, old_fp)
        new_graph = apply_edge_updates(self.graph, changes)
        passes: list[PatchPass] = []
        if increases:
            rows = self._affected_sources(increases, current)
            if rows.size:
                plan = UpdatePlan(
                    kind="increase", n=n, block_size=self.block_size,
                    affected_rows=tuple(int(r) for r in rows),
                    graph_m=new_graph.num_edges,
                )
                passes.append(self._run(plan, graph=new_graph))
        if decreases:
            pairs = sorted(decreases)
            chunk = _decrease_chunk(n)
            for off in range(0, len(pairs), chunk):
                part = pairs[off : off + chunk]
                plan = UpdatePlan(
                    kind="decrease", n=n, block_size=self.block_size, k=len(part)
                )
                passes.append(
                    self._run(plan, panels=self._decrease_panels(part, decreases))
                )
        self.graph = new_graph
        return UpdateResult(
            applied=len(decreases) + len(increases),
            noops=len(changes) - len(decreases) - len(increases),
            passes=tuple(passes),
            old_fingerprint=old_fp,
            new_fingerprint=graph_fingerprint(new_graph),
        )

    def _affected_sources(
        self,
        increases: Mapping[tuple[int, int], float],
        current: Mapping[tuple[int, int], float],
    ) -> np.ndarray:
        """Sources whose rows can change under the increases: ``x`` with
        ``dist[x, u] + w_old == dist[x, v]`` for some increased edge —
        the shortest-path prefix property, one vectorised test per edge."""
        mask = np.zeros(self.graph.num_vertices, dtype=bool)
        for (u, v), _w_new in increases.items():
            w_old = DIST_DTYPE(current[(u, v)])
            col = self.dist[:, u]
            mask |= np.isfinite(col) & (col + w_old == self.dist[:, v])
        return np.flatnonzero(mask)

    def _decrease_panels(
        self,
        pairs: Sequence[tuple[int, int]],
        weights: Mapping[tuple[int, int], float],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Host panels of the batched decrease: ``A[:, e] = dist[:, u_e] +
        w_e``, ``T[e, f] = dist[v_e, u_f] + w_f``, ``B[e, :] = dist[v_e, :]``."""
        U = np.array([u for u, _ in pairs], dtype=np.int64)
        V = np.array([v for _, v in pairs], dtype=np.int64)
        w = np.array([weights[p] for p in pairs], dtype=DIST_DTYPE)
        col = np.ascontiguousarray(self.dist[:, U] + w[None, :])
        kk = np.ascontiguousarray(self.dist[np.ix_(V, U)] + w[None, :])
        row = np.ascontiguousarray(self.dist[V, :])
        return col, kk, row

    def _run(
        self,
        plan: UpdatePlan,
        *,
        panels: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        graph: CSRGraph | None = None,
    ) -> PatchPass:
        trace, changed, kernels = _execute_ops(
            update_ops(plan), plan, self.dist,
            engine=self._engine, panels=panels, graph=graph,
        )
        return PatchPass(
            plan=plan,
            trace=tuple(trace),
            touched_blocks=plan.touched_blocks(),
            changed_blocks=frozenset(changed),
            num_kernels=kernels,
        )
