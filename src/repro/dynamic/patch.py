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

Each pass's schedule is written once (:func:`_update_schedule`) as calls
on an emitter, as the out-of-core drivers write theirs: a pass runs it on
a fault-free simulated :class:`~repro.gpu.device.Device` through
:class:`~repro.gpu.executor.DeviceEmitter` (so it has simulated seconds),
and :func:`emit_update_ir` compiles it to the ``PlanIR`` whose static
proofs live in :mod:`repro.verifyplan.updatebounds` and
:mod:`repro.dynamic.verify`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.blocked_fw import floyd_warshall
from repro.core.engine import DIST_DTYPE, KernelEngine, default_engine
from repro.core.ooc_fw import transfer_stats
from repro.core.ooc_johnson import mssp_numerics
from repro.gpu.device import Device, DeviceSpec
from repro.gpu.errors import OutOfMemoryError
from repro.gpu.executor import DeviceEmitter, Numerics
from repro.graphs.csr import CSRGraph
# ``dijkstra`` is unused here but stays bound under this name: the
# benchmark tracer (perfbench/spans.py) rebinds SSSP entry points by name
# in every repro module, and its tests check this binding is restored.
from repro.sssp.dijkstra import dijkstra  # noqa: F401
from repro.verifyplan.ir import IREmitter, PlanIR, Rect

__all__ = [
    "DynamicAPSP",
    "EdgeUpdate",
    "PatchPass",
    "UpdatePlan",
    "UpdateResult",
    "apply_edge_updates",
    "emit_update_ir",
]

#: per-update decrease batches are capped at ``n // 2`` edges so the patch
#: traffic ``(2n² + 2nk + k²)`` elements stays under the ``4n²`` O(n²)
#: gate in :mod:`repro.verifyplan.updatebounds`; larger batches split into
#: sequential exact chunks (decreases compose).
def _decrease_chunk(n: int) -> int:
    return max(1, n // 2)


_ITEM = np.dtype(DIST_DTYPE).itemsize


def _decrease_geometry(n: int, k: int, b: int, memory_bytes: int) -> tuple[int, int]:
    """Batch width and block edge, at most ``k`` and ``b``, whose decrease
    pass fits the device: ``2nk + k²`` panel elements plus two ``b × b``
    slots. The requested pair is kept when it fits; otherwise the panels
    get at most half the device and the slots the rest."""
    budget = memory_bytes // _ITEM
    if 2 * n * k + k * k + 2 * b * b > budget:
        k = min(k, max(1, math.isqrt(n * n + budget // 2) - n))
        b = min(b, math.isqrt(max(0, budget - 2 * n * k - k * k) // 2))
    if b < 1:
        raise OutOfMemoryError((2 * n + 3) * _ITEM, memory_bytes, memory_bytes)
    return k, b


def _fit_increase(plan: UpdatePlan, memory_bytes: int) -> UpdatePlan:
    """``plan`` with its block edge cut, if need be, so one block row of
    distance rows fits on the device beside the updated CSR graph."""
    fit = (memory_bytes - plan.csr_bytes) // (plan.n * _ITEM)
    if fit < 1:
        raise OutOfMemoryError(plan.csr_bytes + plan.n * _ITEM, memory_bytes, memory_bytes)
    return replace(plan, block_size=min(plan.block_size, fit))


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
# the blocked update plan — shared by the schedule and the bounds
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
# the schedule: run on the device, or compiled to IR
# ---------------------------------------------------------------------------
def _update_schedule(em, plan: UpdatePlan) -> None:
    """One patch sweep, through the emitter ``em``.

    Copies run async on a ``copy`` stream and kernels on a ``compute``
    stream, ordered by event edges. Decrease: upload the three panels,
    fold ``T`` to its closure and into the column panel, then per block
    upload, ``rank1_patch`` (keyed ``("block", i, j)``) and write back
    through two alternating slots. Increase: upload the updated CSR
    graph, then per affected block row one ``sssp_rows`` launch (keyed
    ``("sources", i)``) into a row buffer and its writeback
    ``("rows", i)``.
    """
    if plan.kind == "decrease":
        _decrease_schedule(em, plan)
    else:
        _increase_schedule(em, plan)


def _decrease_schedule(em, plan: UpdatePlan) -> None:
    n, k, b = plan.n, plan.k, plan.block_size
    colpanel = em.alloc("colpanel", (n, k))
    rowpanel = em.alloc("rowpanel", (k, n))
    kk = em.alloc("kk", (k, k))
    slots = (em.alloc("blk0", (b, b)), em.alloc("blk1", (b, b)))
    em.h2d(colpanel, key=("panel", "col"), stream="copy", sync=False)
    em.h2d(rowpanel, key=("panel", "row"), stream="copy", sync=False)
    em.h2d(kk, key=("panel", "kk"), stream="copy", sync=False)
    em.wait(em.record("panels-up", stream="copy"), stream="compute")
    # fold the k×k transition matrix to its closure, then fold it into the
    # column panel: A' = A ⊗ T*. Both run before any block kernel reads
    # the panels — the ordering the stale-pivot-panel soundness rule checks.
    em.kernel("fold_closure", reads=(kk,), writes=(kk,), stream="compute")
    em.kernel("fold_panel", reads=(colpanel, kk), writes=(colpanel,), stream="compute")
    t = 0
    for i, (r0, r1) in enumerate(plan.spans):
        for j, (c0, c1) in enumerate(plan.spans):
            slot = slots[t % 2]
            rect = Rect(0, r1 - r0, 0, c1 - c0)
            em.h2d(slot, rect, key=("A", i, j), stream="copy", sync=False)
            em.wait(em.record(f"up:{i}:{j}", stream="copy"), stream="compute")
            panels = ((colpanel, Rect(r0, r1, 0, k)), (rowpanel, Rect(0, k, c0, c1)))
            em.kernel(
                "rank1_patch", reads=((slot, rect), *panels), writes=((slot, rect),),
                stream="compute", key=("block", i, j),
            )
            em.wait(em.record(f"done:{i}:{j}", stream="compute"), stream="copy")
            em.d2h(slot, rect, key=("A", i, j), stream="copy", sync=False)
            t += 1
    for buf in (slots[1], slots[0], kk, rowpanel, colpanel):
        em.free(buf)


def _increase_schedule(em, plan: UpdatePlan) -> None:
    n, m = plan.n, plan.graph_m
    csr = [em.alloc("indptr", (n + 1,), dtype=np.int64)]
    em.h2d(csr[0], key=("csr", "indptr"), stream="copy", sync=False)
    if m:
        csr.append(em.alloc("indices", (m,), dtype=np.int64))
        csr.append(em.alloc("weights", (m,), dtype=np.float64))
        em.h2d(csr[1], key=("csr", "indices"), stream="copy", sync=False)
        em.h2d(csr[2], key=("csr", "weights"), stream="copy", sync=False)
    em.wait(em.record("csr-up", stream="copy"), stream="compute")
    for i in plan.affected_block_rows:
        rows = em.alloc(f"rows{i}", (len(plan.affected_in_row(i)), n))
        em.kernel("sssp_rows", reads=csr, writes=(rows,), stream="compute", key=("sources", i))
        em.wait(em.record(f"rows-done:{i}", stream="compute"), stream="copy")
        em.d2h(rows, key=("rows", i), stream="copy", sync=False)
        em.free(rows)
    for buf in reversed(csr):
        em.free(buf)


def emit_update_ir(plan: UpdatePlan, spec: Any) -> PlanIR:
    """Compile one patch pass's schedule to a :class:`PlanIR`."""
    em = IREmitter(f"dynamic-{plan.kind}", spec.name, spec.memory_bytes)
    _update_schedule(em, plan)
    return em.finish()


class _PassHost:
    """Host side of one patch pass: the array each host key names, the
    kernels' numerics, and the blocks the pass changed.

    Affected rows are not contiguous in ``dist``, so the increase pass
    writes back into a staging array (block row ``i``'s rows are one
    contiguous slice of it) that :meth:`scatter` moves into ``dist``.
    """

    def __init__(self, plan: UpdatePlan, dist: np.ndarray, engine: KernelEngine,
                 spec: DeviceSpec, *, panels=None, graph: CSRGraph | None = None) -> None:
        self.plan = plan
        self.dist = dist
        self.engine = engine
        self.spec = spec
        self.panels = dict(zip(("col", "kk", "row"), panels or ()))
        self.graph = graph
        self.staging = np.empty((len(plan.affected_rows), plan.n), dtype=DIST_DTYPE)
        self.changed: set[tuple[int, int]] = set()

    def _row_slice(self, i: int) -> slice:
        r0, r1 = self.plan.spans[i]
        rows = self.plan.affected_rows
        return slice(bisect_left(rows, r0), bisect_left(rows, r1))

    def __call__(self, key: tuple) -> Any:
        head = key[0]
        if head == "A":
            (r0, r1), (c0, c1) = self.plan.spans[key[1]], self.plan.spans[key[2]]
            return self.dist[r0:r1, c0:c1]
        if head == "panel":
            return self.panels[key[1]]
        if head == "csr":
            return getattr(self.graph, key[1])
        if head == "block":
            return key[1:]
        if head == "sources":
            return np.asarray(self.plan.affected_rows[self._row_slice(key[1])], dtype=np.int64)
        return self.staging[self._row_slice(key[1])]  # ("rows", i)

    def kernels(self) -> dict[str, Numerics]:
        return {
            "fold_closure": self._fold_closure,
            "fold_panel": self._fold_panel,
            "rank1_patch": self._rank1_patch,
            "sssp_rows": self._sssp_rows,
        }

    def _fold_closure(self, reads, writes, _) -> None:  # T* = closure(min(T, I))
        kk = writes[0]
        np.fill_diagonal(kk, np.minimum(np.diagonal(kk), 0.0))
        self.engine.fw_inplace(kk)

    def _fold_panel(self, reads, writes, _) -> None:  # A' = A ⊗ T*
        writes[0][...] = self.engine.minplus(reads[0], reads[1])

    def _rank1_patch(self, reads, writes, block) -> None:  # D(i,j) ⊕= A'(i) ⊗ B(j)
        view = writes[0]
        patched = np.ascontiguousarray(view)
        self.engine.update(
            patched, np.ascontiguousarray(reads[1]), np.ascontiguousarray(reads[2])
        )
        view[...] = patched
        # the host block still holds the unpatched values until writeback
        if not np.array_equal(patched, self(("A", *block))):
            self.changed.add(block)

    def _sssp_rows(self, reads, writes, sources) -> float:
        # one Near-Far launch per affected block row, its grid the rows
        mssp = mssp_numerics(self.graph, self.spec, bat=len(sources))
        return mssp(reads, writes, sources)

    def scatter(self) -> None:
        """Move the staged affected rows into ``dist``, noting each block
        whose bytes change."""
        rows = np.asarray(self.plan.affected_rows, dtype=np.int64)
        old = self.dist[rows]
        for i in self.plan.affected_block_rows:
            part = self._row_slice(i)
            for j, (c0, c1) in enumerate(self.plan.spans):
                if not np.array_equal(old[part, c0:c1], self.staging[part, c0:c1]):
                    self.changed.add((i, j))
        self.dist[rows] = self.staging


def _decrease_panels(
    dist: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    weights: Mapping[tuple[int, int], float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Host panels of the batched decrease: ``A[:, e] = dist[:, u_e] +
    w_e``, ``T[e, f] = dist[v_e, u_f] + w_f``, ``B[e, :] = dist[v_e, :]``."""
    U = np.array([u for u, _ in pairs], dtype=np.int64)
    V = np.array([v for _, v in pairs], dtype=np.int64)
    w = np.array([weights[p] for p in pairs], dtype=DIST_DTYPE)
    col = np.ascontiguousarray(dist[:, U] + w[None, :])
    kk = np.ascontiguousarray(dist[np.ix_(V, U)] + w[None, :])
    row = np.ascontiguousarray(dist[V, :])
    return col, kk, row


# ---------------------------------------------------------------------------
# the user-facing engine
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PatchPass:
    """One executed sweep: its plan, the blocks whose bytes it changed,
    the bytes it moved over the bus, and its simulated seconds."""

    plan: UpdatePlan
    changed_blocks: frozenset[tuple[int, int]]
    bytes_moved: int
    simulated_seconds: float


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
        return sum(p.bytes_moved for p in self.passes)

    @property
    def simulated_seconds(self) -> float:
        """Simulated device seconds of every pass, run back to back."""
        return sum(p.simulated_seconds for p in self.passes)


class DynamicAPSP:
    """A solved APSP instance that accepts incremental edge updates.

    Holds the current :class:`CSRGraph` and its float32 distance closure;
    :meth:`apply` patches both under a batch of mutations, amortising all
    simultaneous changes into at most one SSSP pass plus one blocked
    rank-1 sweep. Each pass runs on a fresh, fault-free ``Device(spec)``,
    its block edge (at most ``block_size``, default ``n``) and decrease
    batch width cut, where need be, to fit the device. All in-place
    mutation of solved state lives *here* — everywhere else it is a
    stale-cache hazard (lint rule RPR011).
    """

    def __init__(
        self,
        graph: CSRGraph,
        dist: np.ndarray | None = None,
        *,
        spec: DeviceSpec,
        engine: KernelEngine | None = None,
        block_size: int | None = None,
    ) -> None:
        self.spec = spec
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
        # every pass is planned to fit the device before any runs, and the
        # passes patch a copy: self.dist and self.graph move together or
        # not at all
        memory = self.spec.memory_bytes
        increase: UpdatePlan | None = None
        if increases:
            rows = self._affected_sources(increases, current)
            if rows.size:
                increase = _fit_increase(UpdatePlan(
                    kind="increase", n=n, block_size=self.block_size,
                    affected_rows=tuple(int(r) for r in rows),
                    graph_m=new_graph.num_edges,
                ), memory)
        chunks: list[list[tuple[int, int]]] = []
        if decreases:
            pairs = sorted(decreases)
            k, b = _decrease_geometry(
                n, min(_decrease_chunk(n), len(pairs)), self.block_size, memory
            )
            chunks = [pairs[off : off + k] for off in range(0, len(pairs), k)]
        dist = self.dist.copy()
        passes: list[PatchPass] = []
        if increase is not None:
            passes.append(self._run(increase, dist, graph=new_graph))
        for part in chunks:
            plan = UpdatePlan(kind="decrease", n=n, block_size=b, k=len(part))
            passes.append(
                self._run(plan, dist, panels=_decrease_panels(dist, part, decreases))
            )
        self.graph, self.dist = new_graph, dist
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

    def _run(
        self,
        plan: UpdatePlan,
        dist: np.ndarray,
        *,
        panels: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        graph: CSRGraph | None = None,
    ) -> PatchPass:
        device = Device(self.spec)
        host = _PassHost(plan, dist, self._engine, self.spec, panels=panels, graph=graph)
        _update_schedule(DeviceEmitter(device, host=host, kernels=host.kernels()), plan)
        if plan.kind == "increase":
            host.scatter()
        stats = transfer_stats(device)
        return PatchPass(
            plan=plan,
            changed_blocks=frozenset(host.changed),
            bytes_moved=stats["bytes_h2d"] + stats["bytes_d2h"],
            simulated_seconds=device.synchronize(),
        )
