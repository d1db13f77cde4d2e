"""Out-of-core blocked Floyd–Warshall (paper Algorithm 1).

The distance matrix is partitioned into ``n_d × n_d`` blocks sized so the
working set fits in device memory. Per outer iteration ``k``:

* **stage 1** — upload the diagonal block, close it with FW on the device,
  download;
* **stage 2** — stream row blocks ``A(k,j)`` and column blocks ``A(i,k)``
  through the device, replacing each with its min-plus product against
  the closed diagonal block;
* **stage 3** — for every remaining block ``A(i,j)``, upload
  ``A(i,k)``/``A(k,j)``/``A(i,j)``, rank-update, download.

Every block crosses the bus each iteration, giving the paper's
``O(n_d · n²)`` data-movement complexity (Table I). With ``overlap=True``
(the paper's "asynchronous data transfers" optimisation) stage 3 runs
double-buffered: uploads of block ``t+1`` and the download of block ``t−1``
overlap the min-plus of block ``t`` on a second stream. The host side of
every transfer is a pinned staging buffer, as in the paper.

The schedule is written once (:func:`_fw_schedule`): the driver runs it
on the device through :class:`~repro.gpu.executor.DeviceEmitter` and
:func:`emit_fw_ir` compiles it for the static verifier. Host-side numeric
work dispatches through the kernel engine (:mod:`repro.core.engine`), one
block update at a time; the engine splits a large update across cores,
so the schedule and its simulated time do not depend on the engine.
"""

from __future__ import annotations

import numpy as np

from repro.core.minplus import DIST_DTYPE, minplus_update
from repro.core.result import APSPResult
from repro.core.tiling import BlockLayout, HostStore
from repro.faults.checkpoint import CheckpointError, open_checkpoint
from repro.gpu.device import Device, DeviceSpec
from repro.gpu.executor import DeviceEmitter, Numerics
from repro.verifyplan.ir import IREmitter, Rect

__all__ = ["emit_fw_ir", "ooc_floyd_warshall", "plan_fw_block_size", "transfer_stats"]

_ELEM = np.dtype(DIST_DTYPE).itemsize


def plan_fw_block_size(n: int, spec: DeviceSpec, *, overlap: bool = True) -> int:
    """Largest block size whose working set fits on the device.

    Stage 3 keeps one column block plus (with overlap) two double-buffered
    pairs of row/work blocks resident — five tiles; three without overlap.
    """
    tiles = 5 if overlap else 3
    b = int(np.sqrt(spec.memory_bytes / (tiles * _ELEM)))
    if b < 1:
        raise ValueError(
            f"device memory {spec.memory_bytes}B cannot hold {tiles} tiles of any size"
        )
    return max(1, min(b, n))


def transfer_stats(device: Device) -> dict:
    """Summarise bus traffic (shared by all drivers): bytes and copies
    from the device trace, busy seconds from the clock's summed durations."""
    clock = device.clock
    h2d = clock.engine_ops("h2d")
    d2h = clock.engine_ops("d2h")
    return {
        "bytes_h2d": sum(op.nbytes for op in h2d),
        "bytes_d2h": sum(op.nbytes for op in d2h),
        "num_transfers": len(h2d) + len(d2h),
        "transfer_seconds": clock.busy["h2d"] + clock.busy["d2h"],
        "compute_seconds": clock.busy["compute"],
    }


def ooc_floyd_warshall(
    graph,
    device: Device,
    *,
    block_size: int | None = None,
    overlap: bool = True,
    store_mode: str = "ram",
    store_dir=None,
    engine=None,
    checkpoint=None,
) -> APSPResult:
    """Solve APSP with the out-of-core blocked FW algorithm.

    ``simulated_seconds`` in the result is the device-model makespan of the
    full schedule (kernels + transfers, overlapped where requested).
    ``block_size=graph.num_vertices`` runs in-core FW, the one-block plan:
    one upload, one closure, one download (``OutOfMemoryError`` when the
    ``n×n`` matrix does not fit). ``engine`` overrides the process-wide
    kernel engine for the host-side numeric work. ``checkpoint`` (a
    directory path or :class:`~repro.faults.CheckpointStore`) saves
    progress after every outer iteration ``k`` and resumes from whatever
    the store already holds — a killed run re-run with the same store
    produces distances bit-identical to an uninterrupted one.
    """
    n = graph.num_vertices
    spec = device.spec
    if engine is None:
        from repro.core.engine import default_engine

        engine = default_engine()
    if block_size is None:
        block_size = plan_fw_block_size(n, spec, overlap=overlap)
    host = HostStore.from_graph(graph, mode=store_mode, directory=store_dir)
    layout = BlockLayout(n, block_size)

    device.reset_clock()
    ckpt = open_checkpoint(checkpoint, algorithm="floyd-warshall", graph=graph)
    start_k = 0
    if ckpt is not None:
        state = ckpt.load("progress")
        if state is not None:
            if int(state["block_size"]) != block_size:
                raise CheckpointError(
                    f"checkpoint used block_size={int(state['block_size'])}, "
                    f"this run plans {block_size}",
                    path=ckpt.path_for("progress"),
                )
            host.data[...] = state["dist"]
            start_k = int(state["k_done"])
            device.fault_report.resumed += start_k
    ex = DeviceEmitter(
        device, host=lambda key: host.block(layout, key[1], key[2]),
        kernels=_fw_kernels(engine),
    )
    with device.memory.cleanup_on_error():
        for k in _fw_schedule(ex, layout, overlap, start_k=start_k):
            if ckpt is not None:
                # host.data already holds every block of iteration k (the
                # simulated copies move data at enqueue time), so the stage
                # is consistent without forcing a device sync —
                # checkpointing a fault-free run leaves its timeline untouched.
                ckpt.save(
                    "progress", k_done=k + 1, block_size=block_size,
                    dist=np.asarray(host.data),
                )
                device.fault_report.checkpoints_written += 1

    elapsed = device.synchronize()
    host.flush()
    return APSPResult(
        algorithm="floyd-warshall",
        store=host,
        simulated_seconds=elapsed,
        stats={
            "block_size": block_size,
            "num_blocks": layout.num_blocks,
            "overlap": overlap,
            "kernel_backend": engine.describe(),
            **transfer_stats(device),
        },
        faults=device.fault_report,
    )


def _fw_kernels(engine) -> dict[str, Numerics]:
    """Host numerics of the FW schedule's kernels, through ``engine``."""

    def close(reads, writes, _):  # A(k,k) closed in place
        engine.fw_inplace(writes[0])

    # stage 2 writes the fresh product: A(k,k) is closed with a zero
    # diagonal, so A(k,k) ⊗ T ≤ T (see repro.core.blocked_fw)
    def row(reads, writes, _):  # A(k,j) = A(k,k) ⊗ A(k,j)
        writes[0][...] = engine.minplus(reads[0], writes[0])

    def col(reads, writes, _):  # A(i,k) = A(i,k) ⊗ A(k,k)
        writes[0][...] = engine.minplus(writes[0], reads[0])

    def rank(reads, writes, _):  # A(i,j) ⊕= A(i,k) ⊗ A(k,j)
        minplus_update(writes[0], reads[0], reads[1], engine=engine)

    return {"fw_diag": close, "mp_row": row, "mp_col": col, "mp_rank": rank}


def _fw_schedule(em, layout: BlockLayout, overlap: bool, *, start_k: int = 0):
    """The three-stage tile schedule of Algorithm 1 (see module docstring).

    Calls the emitter ``em`` op by op — allocations, transfers keyed by
    host block ``("A", i, j)``, kernels with their def/use sets, the
    stage-3 row reuse, and with ``overlap=True`` the double-buffered
    stream/event structure: async stage-3 copies on ``fw-copy`` ordered by
    ``col-up``/``up``/``comp``/``down`` record/wait edges. Yields each
    finished outer iteration ``k``.

    ``start_k`` skips outer iterations a checkpoint already covers; each
    iteration's state is self-contained (events and buffer rotation reset
    per ``k``), so resuming at any ``k`` replays the identical schedule
    suffix.
    """
    nd = layout.num_blocks
    bmax = layout.size(0)
    for k in range(start_k, nd):
        bk = layout.size(k)
        # stage 1: diagonal block closure
        diag = em.alloc(f"diag{k}", (bk, bk))
        em.h2d(diag, key=("A", k, k))
        em.kernel("fw_diag", reads=(diag,), writes=(diag,))
        em.d2h(diag, key=("A", k, k))
        if nd == 1:
            # one block is the whole matrix (the in-core case): no
            # off-diagonal block, so no stage-2/3 buffers
            em.free(diag)
            yield k
            continue
        # stage 2: row and column panels against the closed diagonal
        panel = em.alloc("row-panel", (bk, bmax))
        for j in range(nd):
            if j == k:
                continue
            r = Rect(0, bk, 0, layout.size(j))
            em.h2d(panel, r, key=("A", k, j))
            em.kernel("mp_row", reads=(diag, (panel, r)), writes=((panel, r),))
            em.d2h(panel, r, key=("A", k, j))
        em.free(panel)
        panel = em.alloc("col-panel", (bmax, bk))
        for i in range(nd):
            if i == k:
                continue
            r = Rect(0, layout.size(i), 0, bk)
            em.h2d(panel, r, key=("A", i, k))
            em.kernel("mp_col", reads=(diag, (panel, r)), writes=((panel, r),))
            em.d2h(panel, r, key=("A", i, k))
        em.free(panel)
        em.free(diag)
        # stage 3: double-buffered rank updates
        nbuf = 2 if overlap else 1
        copier = "fw-copy" if overlap else "default"
        col = em.alloc("col", (bmax, bk))
        rows = [em.alloc(f"row{p}", (bk, bmax)) for p in range(nbuf)]
        works = [em.alloc(f"work{p}", (bmax, bmax)) for p in range(nbuf)]
        down_events: list = [None] * nbuf
        # Row block A(k, j) is read-only during stage 3 and the buffer
        # rotation revisits the same j with a fixed period, so when buffer p
        # still holds block j its re-upload would be pure wasted bus bytes
        # (the static plan verifier flags exactly this as redundant).
        loaded: list[int | None] = [None] * nbuf
        t = 0
        js = [j for j in range(nd) if j != k]
        # a "down" event is only worth recording if a later pair will
        # rotate back into buffer p and wait on it — a trailing record
        # would be a dead event (the HB checker proves none exist)
        pairs_total = (nd - 1) * len(js)
        for i in range(nd):
            if i == k:
                continue
            bi = layout.size(i)
            cr = Rect(0, bi, 0, bk)
            if overlap:
                em.h2d(col, cr, key=("A", i, k), stream=copier, sync=False)
                em.wait(em.record("col-up", stream=copier))
            else:
                em.h2d(col, cr, key=("A", i, k))
            for j in js:
                p = t % nbuf
                q = t
                t += 1
                bj = layout.size(j)
                rr = Rect(0, bk, 0, bj)
                wr = Rect(0, bi, 0, bj)
                if overlap:
                    if down_events[p] is not None:
                        # buffer p is reused: its previous download must finish
                        em.wait(down_events[p], stream=copier)
                    if loaded[p] != j:
                        em.h2d(rows[p], rr, key=("A", k, j), stream=copier, sync=False)
                    em.h2d(works[p], wr, key=("A", i, j), stream=copier, sync=False)
                    em.wait(em.record("up", stream=copier))
                else:
                    if loaded[p] != j:
                        em.h2d(rows[p], rr, key=("A", k, j))
                    em.h2d(works[p], wr, key=("A", i, j))
                loaded[p] = j
                em.kernel(
                    "mp_rank",
                    reads=((col, cr), (rows[p], rr)),
                    writes=((works[p], wr),),
                )
                if overlap:
                    em.wait(em.record("comp"), stream=copier)
                    em.d2h(works[p], wr, key=("A", i, j), stream=copier, sync=False)
                    if q + nbuf < pairs_total:
                        down_events[p] = em.record("down", stream=copier)
                else:
                    em.d2h(works[p], wr, key=("A", i, j))
        for buf in [col, *rows, *works]:
            em.free(buf)
        yield k


def emit_fw_ir(n: int, spec: DeviceSpec, *, block_size: int | None = None,
               overlap: bool = True, start_k: int = 0):
    """Compile the blocked-FW schedule to a symbolic
    :class:`~repro.verifyplan.ir.PlanIR` without executing anything.

    Runs :func:`_fw_schedule` — the schedule :func:`ooc_floyd_warshall`
    executes — into an :class:`~repro.verifyplan.ir.IREmitter`.

    ``start_k > 0`` emits the schedule *suffix* a checkpoint-resumed run
    replays — used to prove recovery paths race-free with the same
    machinery as full runs (resumed suffixes move fewer bytes
    than the paper bounds assume, so audit them with ``analyze_hb`` /
    ``audit_ir`` rather than the full-run ``verify_plan``).
    """
    if block_size is None:
        block_size = plan_fw_block_size(n, spec, overlap=overlap)
    em = IREmitter("floyd-warshall", spec.name, spec.memory_bytes)
    for _ in _fw_schedule(em, BlockLayout(n, block_size), overlap, start_k=start_k):
        pass
    return em.finish()
