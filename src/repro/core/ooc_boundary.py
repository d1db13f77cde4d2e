"""Out-of-core boundary algorithm (paper Algorithm 3, after Djidjev et al.).

Four steps:

1. **partition** the graph into ``k`` components with the multilevel k-way
   partitioner (METIS stand-in); vertices are *permuted* so each component
   is contiguous and its boundary vertices come first (paper Figure 1a);
2. **dist2** — solve APSP independently inside each component: upload the
   component's dense block ``A(i,i)``, close it with FW on the device,
   download;
3. **dist3** — build the boundary graph ``bound``: nodes are all boundary
   vertices, entries are cross-component edge weights plus *virtual edges*
   ``dist2(b, b')`` between same-component boundary pairs; close it with FW
   on the device (it stays resident);
4. **dist4** — every off-diagonal block is two successive min-plus products
   (paper Eq. 1, Fig 1b):
   ``A(i,j) = C2B[i] ⊗ bound(i,j) ⊗ B2C[j]`` where ``C2B[i] = A(i,i)[:, :bᵢ]``
   (component→boundary distances) and ``B2C[j] = A(j,j)[:bⱼ, :]``; diagonal
   blocks take the elementwise min with ``dist2``.

Two optimisations from Section III-C, both togglable for the Fig 8
ablation:

* ``batch_transfers`` — instead of ``k²`` small D2H copies (one per block,
  latency-bound), results accumulate in a device buffer holding ``N_row``
  block-rows (``N_row = S_rem / (N_max · n · W)``) and transfer in one
  bandwidth-bound copy;
* ``overlap`` — double buffering: two accumulation buffers on two streams,
  so the transfer of one buffer overlaps the products filling the other.

The schedule is written once (:func:`_boundary_schedule`): the driver runs
it on the device and :func:`emit_boundary_ir` compiles it for the static
verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.minplus import DIST_DTYPE, minplus_update
from repro.core.result import APSPResult
from repro.core.tiling import HostStore
from repro.faults.checkpoint import CheckpointError, open_checkpoint
from repro.gpu.device import Device, DeviceSpec
from repro.gpu.errors import OutOfMemoryError
from repro.gpu.executor import DeviceEmitter, Numerics
from repro.partition.kway import partition_kway
from repro.partition.separator import boundary_nodes
from repro.verifyplan.ir import IREmitter, Rect

__all__ = [
    "BoundaryInfeasibleError",
    "BoundaryPlan",
    "default_num_components",
    "emit_boundary_ir",
    "ooc_boundary",
    "plan_boundary",
]

_ELEM = np.dtype(DIST_DTYPE).itemsize


class BoundaryInfeasibleError(OutOfMemoryError):
    """No component count makes the boundary algorithm's working set fit.

    Raised for graphs whose separator is so large that the boundary matrix
    cannot reside on the device at any balanced ``k`` — the paper's "the
    maximal number of components allowed ... is small" failure mode that
    pushes such graphs to Johnson's algorithm.
    """

    def __init__(self, requested: int, free: int, capacity: int, detail: str) -> None:
        super().__init__(requested, free, capacity)
        self.detail = detail

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"boundary algorithm infeasible: {self.detail}"


def default_num_components(n: int) -> int:
    """The paper's best-performing component count ``k = √n / 4`` (§V-F)."""
    return max(2, int(round(np.sqrt(n) / 4.0)))


@dataclass(frozen=True)
class BoundaryPlan:
    """A feasible execution plan for the boundary algorithm."""

    labels: np.ndarray  # component id per original vertex
    perm: np.ndarray  # internal id of original vertex
    inv_perm: np.ndarray  # original id of internal vertex
    comp_start: np.ndarray  # internal start offset per component (k+1,)
    comp_boundary: np.ndarray  # number of boundary vertices per component
    num_components: int
    num_boundary: int
    n_row: int  # block-rows accumulated per batched transfer
    num_buffers: int  # output accumulation buffers (2 = double-buffered)

    @property
    def max_component(self) -> int:
        return int(np.diff(self.comp_start).max())

    def runs_batched(self, batch_transfers: bool = True) -> bool:
        """Whether step 4 drains ``N_row``-batched strips. A plan with no
        room for even one strip (``n_row == 0``, seen on the smaller-memory
        K80 at reduced scale) degrades to per-block strided copies."""
        return batch_transfers and self.n_row >= 1

    @cached_property
    def boundary_offsets(self) -> np.ndarray:
        """Row of each component's first boundary vertex in the boundary
        matrix (boundary vertices are the first ``b_i`` internal ids of
        each component), plus the total at the end."""
        offsets = np.zeros(self.num_components + 1, dtype=np.int64)
        np.cumsum(self.comp_boundary, out=offsets[1:])
        return offsets


def _build_permutation(
    graph, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Order vertices component-major, boundary-first inside each component."""
    n = graph.num_vertices
    bnd = boundary_nodes(graph, labels)
    is_bnd = np.zeros(n, dtype=bool)
    is_bnd[bnd] = True
    # Sort by (component, interior-after-boundary, id) — stable and cheap.
    order = np.lexsort((np.arange(n), ~is_bnd, labels))
    inv_perm = order  # internal -> original
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n)  # original -> internal
    sizes = np.bincount(labels, minlength=k)
    comp_start = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(sizes, out=comp_start[1:])
    comp_boundary = np.bincount(labels[bnd], minlength=k) if bnd.size else np.zeros(k, dtype=np.int64)
    return perm, inv_perm, comp_start, comp_boundary


def plan_boundary(
    graph,
    spec: DeviceSpec,
    *,
    num_components: int | None = None,
    batch_transfers: bool = True,
    overlap: bool = True,
    seed: int = 0,
    max_attempts: int = 8,
) -> BoundaryPlan:
    """Partition and check the device memory budget; search ``k`` if needed.

    Tries the requested/default ``k`` first; on memory failure, halves or
    doubles ``k`` (whichever constraint is violated) up to ``max_attempts``
    times before raising :class:`BoundaryInfeasibleError`.
    """
    n = graph.num_vertices
    k = num_components if num_components is not None else default_num_components(n)
    budget = spec.memory_bytes
    last_detail = ""
    tried: set[int] = set()
    fallback: BoundaryPlan | None = None  # single-buffer plan found en route
    for _attempt in range(max_attempts):
        k = max(2, min(k, n // 2 if n >= 4 else 2))
        if k in tried:
            break
        tried.add(k)
        part = partition_kway(graph, k, seed=seed)
        perm, inv_perm, comp_start, comp_bnd = _build_permutation(graph, part.labels, k)
        nmax = int(np.diff(comp_start).max())
        nb = int(comp_bnd.sum())
        bmax = int(comp_bnd.max()) if k else 0

        bound_bytes = nb * nb * _ELEM
        step2_bytes = nmax * nmax * _ELEM
        # step 4 residents: bound + C2B + B2C + tmp1 (+ output buffers below)
        step4_fixed = bound_bytes + (2 * nmax * bmax + nmax * bmax) * _ELEM
        strip_bytes = nmax * n * _ELEM  # one block-row of output

        if step2_bytes > budget:
            last_detail = (
                f"component block {nmax}² exceeds device memory at k={k}; "
                f"need {step2_bytes}B of {budget}B"
            )
            k = int(np.ceil(k * 1.5))  # more components -> smaller blocks
            continue
        if bound_bytes > budget or step4_fixed > budget:
            last_detail = (
                f"boundary matrix {nb}² (+{step4_fixed - bound_bytes}B residents) "
                f"exceeds device memory at k={k}"
            )
            k = max(2, int(k / 1.5))  # fewer components -> fewer boundary vertices
            continue
        if batch_transfers:
            # Prefer double buffering (overlap); fall back to one buffer
            # when two strips do not fit at this k (the strip-to-memory
            # ratio grows as n^-0.5 under scaling, so scaled runs hit this
            # more often than the paper's full-size runs did).
            n_row = 0
            nbuf = 1
            for cand_nbuf in ((2, 1) if overlap else (1,)):
                rem = budget - step4_fixed
                cand_rows = int(rem // (cand_nbuf * strip_bytes)) if rem > 0 else 0
                cand_rows = min(cand_rows, k)  # never buffer more rows than exist
                if cand_rows >= 1:
                    n_row, nbuf = cand_rows, cand_nbuf
                    break
            if n_row < 1:
                last_detail = (
                    f"no room for {'double-buffered ' if overlap else ''}output "
                    f"block-rows at k={k}"
                )
                if fallback is None:
                    rem = budget - step4_fixed
                    single_rows = min(int(rem // strip_bytes) if rem > 0 else 0, k)
                    if overlap and single_rows >= 1:
                        # single accumulation buffer, batching intact
                        fallback = BoundaryPlan(
                            labels=part.labels, perm=perm, inv_perm=inv_perm,
                            comp_start=comp_start, comp_boundary=comp_bnd,
                            num_components=k, num_boundary=nb,
                            n_row=single_rows, num_buffers=1,
                        )
                    elif step4_fixed + nmax * nmax * _ELEM <= budget:
                        # not even one strip fits anywhere: degrade to the
                        # unbatched per-block path (n_row=0) rather than
                        # declaring the whole algorithm infeasible
                        fallback = BoundaryPlan(
                            labels=part.labels, perm=perm, inv_perm=inv_perm,
                            comp_start=comp_start, comp_boundary=comp_bnd,
                            num_components=k, num_boundary=nb,
                            n_row=0, num_buffers=1,
                        )
                k = int(np.ceil(k * 1.5))
                continue
        else:
            n_row, nbuf = 0, 1
            if step4_fixed + nmax * nmax * _ELEM > budget:
                last_detail = f"no room for the single-block staging buffer at k={k}"
                k = int(np.ceil(k * 1.5))
                continue
        return BoundaryPlan(
            labels=part.labels,
            perm=perm,
            inv_perm=inv_perm,
            comp_start=comp_start,
            comp_boundary=comp_bnd,
            num_components=k,
            num_boundary=nb,
            n_row=n_row,
            num_buffers=nbuf,
        )
    if fallback is not None:
        return fallback
    raise BoundaryInfeasibleError(0, 0, budget, last_detail or "k search exhausted")


def ooc_boundary(
    graph,
    device: Device,
    *,
    num_components: int | None = None,
    batch_transfers: bool = True,
    overlap: bool = True,
    plan: BoundaryPlan | None = None,
    store_mode: str = "ram",
    store_dir=None,
    seed: int = 0,
    engine=None,
    checkpoint=None,
) -> APSPResult:
    """Solve APSP with the out-of-core boundary algorithm.

    ``engine`` overrides the process-wide kernel engine for the host-side
    numeric work (FW closures and the ``dist4`` min-plus chain).
    ``checkpoint`` (a directory path or
    :class:`~repro.faults.CheckpointStore`) saves per-component ``dist2``
    blocks, the closed boundary matrix ``dist3``, and ``dist4`` output
    progress at every flush boundary, resuming from whatever the store
    already holds.
    """
    n = graph.num_vertices
    if engine is None:
        from repro.core.engine import default_engine

        engine = default_engine()
    if plan is None:
        plan = plan_boundary(
            graph, device.spec,
            num_components=num_components,
            batch_transfers=batch_transfers, overlap=overlap, seed=seed,
        )
    state = _BoundaryHost(graph, plan, store_mode=store_mode, store_dir=store_dir)

    device.reset_clock()
    ckpt = open_checkpoint(checkpoint, algorithm="boundary", graph=graph)
    resume = state.restore(ckpt, device.fault_report)
    batched = plan.runs_batched(batch_transfers)
    ex = DeviceEmitter(device, host=state, kernels=state.kernels(engine))
    with device.memory.cleanup_on_error():
        for stage in _boundary_schedule(ex, plan, n, batched, overlap, resume):
            state.save(ckpt, stage, device.fault_report)

    elapsed = device.synchronize()
    state.host.flush()

    from repro.core.ooc_fw import transfer_stats

    return APSPResult(
        algorithm="boundary",
        store=state.host,
        simulated_seconds=elapsed,
        perm=plan.perm,
        inv_perm=plan.inv_perm,
        stats={
            "num_components": plan.num_components,
            "num_boundary": plan.num_boundary,
            "max_component": plan.max_component,
            "n_row": plan.n_row,
            "num_buffers": plan.num_buffers if batched else 1,
            "batch_transfers": batched,
            "overlap": overlap,
            "kernel_backend": engine.describe(),
            **transfer_stats(device),
        },
        faults=device.fault_report,
    )


def _bind_boundary_plan(ckpt, plan: BoundaryPlan) -> None:
    """Reject a checkpoint store whose stages assume a different plan.

    Stage indices are only meaningful under one permutation/partition, so
    resuming under a different seed or component count must fail loudly
    rather than mix blocks from two orderings.
    """
    if ckpt is None:
        return
    state = ckpt.load("plan")
    if state is None:
        ckpt.save("plan", perm=plan.perm, comp_start=plan.comp_start)
        return
    if not (
        np.array_equal(state["perm"], plan.perm)
        and np.array_equal(state["comp_start"], plan.comp_start)
    ):
        raise CheckpointError(
            "checkpoint was written under a different boundary plan "
            "(permutation/partition mismatch)",
            path=ckpt.path_for("plan"),
        )


class _BoundaryHost:
    """Host side of the boundary schedule, shared with the multi-GPU driver.

    Called with a copy key, it returns the host array the copy touches:

    * ``("sub", i)`` — component ``i``'s dense weight block;
    * ``("dist2", i)`` — its closed block, created when it is downloaded;
      ``("dist2", i, "c2b")``/``("dist2", i, "b2c")`` are its boundary
      columns/rows;
    * ``("bound",)`` — the boundary matrix, built from the ``dist2``
      blocks and the cut edges on first use;
    * ``("host-rows", lo, hi)``/``("host-block", i, j)`` — the output.

    It also carries the host numerics of the schedule's kernels and the
    checkpoint stages the schedule yields.
    """

    def __init__(self, graph, plan: BoundaryPlan, *, store_mode: str, store_dir) -> None:
        self.plan = plan
        self.pg = graph.permute(plan.perm)  # internal ordering (Fig 1a)
        self.host = HostStore.empty(
            graph.num_vertices, mode=store_mode, directory=store_dir
        )
        self.host.data[...] = np.inf
        self.dist2: list[np.ndarray | None] = [None] * plan.num_components
        self.bound: np.ndarray | None = None
        #: the closed boundary matrix, as the ``fw_bound`` kernel left it
        self.closed: np.ndarray | None = None

    def __call__(self, key: tuple) -> np.ndarray:
        starts = self.plan.comp_start
        kind = key[0]
        if kind == "sub":
            i = key[1]
            sub = self.pg.subgraph(np.arange(starts[i], starts[i + 1]))
            return sub.to_dense(dtype=DIST_DTYPE)
        if kind == "dist2":
            i = key[1]
            block = self.dist2[i]
            if block is None:  # the closed block's download lands here
                ni = int(starts[i + 1] - starts[i])
                block = self.dist2[i] = np.empty((ni, ni), dtype=DIST_DTYPE)
            if len(key) == 2:
                return block
            bi = int(self.plan.comp_boundary[i])
            return block[:, :bi] if key[2] == "c2b" else block[:bi, :]
        if kind == "bound":
            if self.bound is None:
                self.bound = self._boundary_matrix()
            return self.bound
        if kind == "host-rows":
            return self.host.data[key[1] : key[2], :]
        i, j = key[1], key[2]  # ("host-block", i, j)
        return self.host.data[starts[i] : starts[i + 1], starts[j] : starts[j + 1]]

    def _boundary_matrix(self) -> np.ndarray:
        """Step 3's boundary graph: nodes are all boundary vertices,
        entries the cut-edge weights plus the *virtual edges*
        ``dist2(b, b')`` between same-component boundary pairs."""
        plan, pg = self.plan, self.pg
        n = pg.num_vertices
        starts, offsets = plan.comp_start, plan.boundary_offsets
        nb = plan.num_boundary
        bound = np.full((nb, nb), np.inf, dtype=DIST_DTYPE)
        np.fill_diagonal(bound, 0.0)
        for i, block in enumerate(self.dist2):
            bi, o = int(plan.comp_boundary[i]), int(offsets[i])
            bound[o : o + bi, o : o + bi] = block[:bi, :bi]
        # cross edges: all cut edges connect boundary vertices of two components
        src, dst, w = pg.edge_array()
        comp_of = np.searchsorted(starts, np.arange(n), side="right") - 1
        cross = comp_of[src] != comp_of[dst]
        # internal id -> boundary index: offset within component + bnd offset
        # (valid only for boundary vertices)
        bidx = offsets[comp_of] + np.arange(n) - starts[comp_of]
        np.minimum.at(
            bound, (bidx[src[cross]], bidx[dst[cross]]), w[cross].astype(DIST_DTYPE)
        )
        return bound

    def kernels(self, engine) -> dict[str, Numerics]:
        """Host numerics of the schedule's kernels, through ``engine``."""

        def close(reads, writes, _):
            engine.fw_inplace(writes[0])

        def close_bound(reads, writes, _):
            engine.fw_inplace(writes[0])
            self.closed = writes[0]

        def clear(reads, writes, _):
            writes[0][...] = np.inf

        def product(reads, writes, _):
            minplus_update(writes[0], reads[0], reads[1], engine=engine)

        def min_diag(reads, writes, block):
            np.minimum(writes[0], block, out=writes[0])

        return {
            "fw_comp": close, "fw_bound": close_bound,
            "memset_out": clear, "memset_tmp1": clear,
            "mp_c2b_bound": product, "mp_bound_b2c": product,
            "min_diag": min_diag,
        }

    def restore(self, ckpt, report) -> tuple[int, bool, int]:
        """Bind ``ckpt`` to the plan and load whatever stages it holds;
        returns the schedule's ``resume=(dist2_done, bound_done, rows_done)``.

        Stages are written in schedule order, so the present stages always
        form a prefix of the schedule and the resumed suffix replays
        identically.
        """
        if ckpt is None:
            return 0, False, 0
        _bind_boundary_plan(ckpt, self.plan)
        done = 0
        while done < len(self.dist2) and ckpt.has(f"dist2-{done}"):
            state = ckpt.load(f"dist2-{done}")
            self.dist2[done] = np.asarray(state["block"], dtype=DIST_DTYPE)
            report.resumed += 1
            done += 1
        state = ckpt.load("dist3")
        if state is not None:
            # restored matrix is already closed: upload only, no fw_bound
            self.bound = np.asarray(state["bound"], dtype=DIST_DTYPE)
            report.resumed += 1
        rows_done = 0
        state4 = ckpt.load("dist4")
        if state4 is not None:
            self.host.data[...] = state4["dist"]
            rows_done = int(state4["rows_done"])
            report.resumed += 1
        return done, state is not None, rows_done

    def save(self, ckpt, stage: tuple, report) -> None:
        """Save one stage the schedule yielded (no-op without a store)."""
        if ckpt is None:
            return
        if stage[0] == "dist2":
            ckpt.save(f"dist2-{stage[1]}", block=self.dist2[stage[1]])
        elif stage[0] == "dist3":
            ckpt.save("dist3", bound=np.asarray(self.closed))
        else:
            # host.data holds every drained block-row (simulated copies move
            # data at enqueue time), so the stage is consistent without a
            # device sync — checkpointing keeps the timeline untouched.
            ckpt.save("dist4", rows_done=stage[1], dist=np.asarray(self.host.data))
        report.checkpoints_written += 1


def _dist2_ops(ems, plan: BoundaryPlan, start: int):
    """Step 2 (dist2): close each component block ``A(i,i)`` with FW on
    device ``i mod len(ems)``, from component ``start`` on; yields
    ``("dist2", i)`` after each."""
    for i in range(start, plan.num_components):
        em = ems[i % len(ems)]
        ni = int(plan.comp_start[i + 1] - plan.comp_start[i])
        tile = em.alloc(f"comp{i}", (ni, ni))
        em.h2d(tile, key=("sub", i))
        em.kernel("fw_comp", reads=(tile,), writes=(tile,))
        em.d2h(tile, key=("dist2", i))
        em.free(tile)
        yield ("dist2", i)


def _block_ops(em, plan: BoundaryPlan, i: int, j: int, c2b, b2c, tmp1, bound, dest) -> None:
    """Step 4 for block ``A(i,j)`` into ``dest``, with ``C2B[i]`` resident:
    upload ``B2C[j]``, then ``dest = C2B[i] ⊗ bound(i,j) ⊗ B2C[j]`` (Eq. 1),
    taking the elementwise min with ``dist2`` on the diagonal."""
    starts, bcounts, offsets = plan.comp_start, plan.comp_boundary, plan.boundary_offsets
    ni = int(starts[i + 1] - starts[i])
    nj = int(starts[j + 1] - starts[j])
    bi, bj = int(bcounts[i]), int(bcounts[j])
    br = Rect(0, bj, 0, nj)
    em.h2d(b2c, br, key=("dist2", j, "b2c"))
    em.kernel("extract_b2c", reads=((b2c, br),), writes=((b2c, br),))
    em.kernel("memset_out", writes=(dest,), annotate=True)
    if bi and bj:
        oi, oj = int(offsets[i]), int(offsets[j])
        bview = (bound, Rect(oi, oi + bi, oj, oj + bj))
        t1 = (tmp1, Rect(0, ni, 0, bj))
        em.kernel("memset_tmp1", writes=(t1,), annotate=True)
        em.kernel("mp_c2b_bound", reads=((c2b, Rect(0, ni, 0, bi)), bview), writes=(t1,))
        em.kernel("mp_bound_b2c", reads=(t1, (b2c, br)), writes=(dest,))
    # else: isolated component — no boundary path in or out
    if i == j:
        em.kernel("min_diag", reads=(dest,), writes=(dest,), annotate=True,
                  key=("dist2", i))


def _flush_groups(starts, k: int, cap: int, *, start: int = 0) -> list[list[int]]:
    """Block-rows ``start..k-1`` grouped into batched output flushes: a
    group is flushed when the next block-row would not fit in ``cap``
    buffer rows."""
    groups: list[list[int]] = []
    group: list[int] = []
    rows = 0
    for i in range(start, k):
        group.append(i)
        rows += int(starts[i + 1] - starts[i])
        next_ni = int(starts[i + 2] - starts[i + 1]) if i + 1 < k else 0
        if i + 1 >= k or rows + next_ni > cap:
            groups.append(group)
            group, rows = [], 0
    return groups


def _boundary_schedule(em, plan: BoundaryPlan, n: int, batched: bool, overlap: bool,
                       resume: tuple[int, bool, int] = (0, False, 0)):
    """Steps 2-4 of Algorithm 3 (see module docstring), op by op.

    Per-component dist2 tiles, the resident boundary matrix, the C2B/B2C
    extract uploads, and the ``N_row``-batched (or per-block strided)
    output drains — with ``overlap=True`` the batched drains run async on
    ``bound-copy`` behind ``strip-ready``/``strip-down`` event edges.
    Host-side effects (``memset_out`` etc.) are ``annotate`` kernels:
    they occupy no timeline slot. Yields the checkpoint stages:
    ``("dist2", i)`` per component, ``("dist3",)`` once the boundary
    matrix is closed, and ``("dist4", rows_done)`` at every flush
    boundary.

    ``resume=(dist2_done, bound_done, rows_done)`` runs the suffix a
    checkpoint-resumed run replays: the first ``dist2_done`` component
    closures are skipped, ``bound_done`` replaces the boundary closure
    with a plain re-upload of the restored matrix, and step 4 starts at
    block-row ``rows_done``.
    """
    dist2_done, bound_done, rows_done = resume
    k = plan.num_components
    starts = plan.comp_start
    yield from _dist2_ops([em], plan, dist2_done)

    # step 3: boundary graph closure (dist3); stays resident
    bound = em.alloc("bound", (plan.num_boundary, plan.num_boundary))
    em.h2d(bound, key=("bound",))
    if not bound_done:
        em.kernel("fw_bound", reads=(bound,), writes=(bound,))
        yield ("dist3",)

    # step 4: dist4 via two successive min-plus products per block
    nmax = plan.max_component
    bmax = max(1, int(plan.comp_boundary.max()))
    c2b = em.alloc("c2b", (nmax, bmax))
    b2c = em.alloc("b2c", (bmax, nmax))
    tmp1 = em.alloc("tmp1", (nmax, bmax))
    if batched:
        out_bufs = [
            em.alloc(f"out{p}", (plan.n_row * nmax, n)) for p in range(plan.num_buffers)
        ]
        groups = _flush_groups(starts, k, plan.n_row * nmax, start=rows_done)
    else:
        out_bufs = [em.alloc("out", (nmax, nmax))]
        groups = [[i] for i in range(rows_done, k)]
    copier = "bound-copy" if overlap else "default"
    nbuf = len(out_bufs)
    drain_events: list = [None] * nbuf
    for g, group in enumerate(groups):
        p = g % nbuf  # the active accumulation buffer
        row_base = 0
        for i in group:
            ni = int(starts[i + 1] - starts[i])
            cr = Rect(0, ni, 0, int(plan.comp_boundary[i]))
            # C2B[i]: extract + upload (paper lines 6-8)
            em.h2d(c2b, cr, key=("dist2", i, "c2b"))
            em.kernel("extract_c2b", reads=((c2b, cr),), writes=((c2b, cr),))
            for j in range(k):
                lo_j, hi_j = int(starts[j]), int(starts[j + 1])
                if batched:
                    dest = (out_bufs[p], Rect(row_base, row_base + ni, lo_j, hi_j))
                else:
                    dest = (out_bufs[0], Rect(0, ni, 0, hi_j - lo_j))
                _block_ops(em, plan, i, j, c2b, b2c, tmp1, bound, dest)
                if not batched:
                    # naive path: strided per-block copy into the host matrix
                    em.d2h(out_bufs[0], dest[1], key=("host-block", i, j), strided=True)
            row_base += ni
            if not batched:
                yield ("dist4", i + 1)
        if not batched:
            continue
        # one bandwidth-bound drain of the group's block-rows
        rect = Rect(0, row_base, 0, n)
        key = ("host-rows", int(starts[group[0]]), int(starts[group[-1] + 1]))
        if overlap:
            em.wait(em.record("strip-ready"), stream=copier)
            em.d2h(out_bufs[p], rect, key=key, stream=copier, sync=False)
            if g + nbuf <= len(groups):
                # Only record drains a later refill actually waits on.
                drain_events[p] = em.record("strip-down", stream=copier)
        else:
            em.d2h(out_bufs[p], rect, key=key)
        if drain_events[(p + 1) % nbuf] is not None:
            em.wait(drain_events[(p + 1) % nbuf])  # next buffer still draining
        yield ("dist4", group[-1] + 1)
    for buf in [bound, c2b, b2c, tmp1, *out_bufs]:
        em.free(buf)


def emit_boundary_ir(
    graph,
    spec: DeviceSpec,
    *,
    num_components: int | None = None,
    batch_transfers: bool = True,
    overlap: bool = True,
    plan: BoundaryPlan | None = None,
    seed: int = 0,
    resume: "tuple[int, bool, int] | None" = None,
):
    """Compile the boundary-algorithm schedule to a symbolic
    :class:`~repro.verifyplan.ir.PlanIR` without executing anything.

    Runs :func:`_boundary_schedule` — the schedule :func:`ooc_boundary`
    executes — into an :class:`~repro.verifyplan.ir.IREmitter`.

    ``resume=(dist2_done, bound_done, rows_done)`` emits the schedule
    suffix a checkpoint-resumed run replays (see
    :func:`_boundary_schedule`). Audit resumed suffixes with
    ``analyze_hb``/``audit_ir`` (they move fewer bytes than the full-run
    paper bounds assume).
    """
    if plan is None:
        plan = plan_boundary(
            graph, spec,
            num_components=num_components,
            batch_transfers=batch_transfers, overlap=overlap, seed=seed,
        )
    em = IREmitter("boundary", spec.name, spec.memory_bytes)
    batched = plan.runs_batched(batch_transfers)
    for _ in _boundary_schedule(
        em, plan, graph.num_vertices, batched, overlap, resume or (0, False, 0)
    ):
        pass
    return em.finish()
