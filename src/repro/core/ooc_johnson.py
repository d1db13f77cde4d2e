"""Out-of-core Johnson's algorithm (paper Algorithm 2).

APSP as ``n`` SSSP instances, processed in batches of ``bat`` concurrent
Near-Far instances per MSSP kernel — one instance per thread block. The
batch size comes from the device memory budget (Section III-B):

.. math:: bat = (L - S) / (c · m)

with ``L`` the device memory, ``S`` the CSR graph size, and ``c·m`` the
per-instance worklist storage; we additionally charge the per-instance
output row, which must also reside on the device. When ``bat`` falls below
the device's active-block capacity the kernel under-utilises the GPU; the
**dynamic parallelism** option offloads the edge lists of high-out-degree
vertices to child kernels, restoring full throughput for those relaxations
at a per-launch overhead (modelled in
:func:`repro.gpu.kernels.mssp_batch_cost` from the statistics the real
Near-Far execution collects).

Batch results stream back to the host store; with ``overlap=True`` the
download of batch ``i`` overlaps the MSSP kernel of batch ``i+1`` via
double-buffered output rows on a second stream. The schedule is written
once (:func:`_johnson_schedule`): the driver runs it on the device and
:func:`emit_johnson_ir` compiles it for the static verifier. Its two
building blocks, :func:`upload_csr` and :func:`mssp_batch`, also make up
the query service's batches (:mod:`repro.serve.service`).
"""

from __future__ import annotations

import numpy as np

from repro.core.minplus import DIST_DTYPE
from repro.core.result import APSPResult
from repro.core.tiling import HostStore
from repro.faults.checkpoint import CheckpointError, open_checkpoint
from repro.gpu.device import Device, DeviceSpec
from repro.gpu.errors import OutOfMemoryError
from repro.gpu.executor import DeviceEmitter, Numerics
from repro.gpu.kernels import MsspWorkload, mssp_batch_cost
from repro.sssp.near_far import (
    DEFAULT_HEAVY_DEGREE,
    EDGES_PER_CHILD_BLOCK,
    near_far_batch,
)
from repro.verifyplan.ir import IREmitter, Rect

__all__ = [
    "collect_mssp_workloads",
    "csr_host_array",
    "emit_johnson_ir",
    "graph_device_bytes",
    "mssp_batch",
    "mssp_numerics",
    "ooc_johnson",
    "plan_batch_size",
    "sample_batch_sources",
    "upload_csr",
]

_ELEM = np.dtype(DIST_DTYPE).itemsize

#: the paper's worklist constant ``c``: per-instance queue storage is
#: ``c · m`` distance-sized elements (near + far queues with slack)
DEFAULT_QUEUE_FACTOR = 4.0
#: sources a sampled batch runs when it holds more (``K``): its additive
#: workload terms are scaled up from these. Picked from the accuracy table
#: in docs/PERFORMANCE.md ("Choosing K").
SAMPLE_SOURCES = 160


def graph_device_bytes(graph, spec: "DeviceSpec | None" = None) -> int:
    """Device bytes of the CSR graph ``S``: int32 indptr/indices + float32
    weights (what the CUDA kernels would hold). On a scaled device, O(m)
    structures are charged at ``spec.sparse_charge_factor`` of their real
    bytes (see :class:`repro.gpu.device.DeviceSpec`)."""
    n, m = graph.num_vertices, graph.num_edges
    raw = 4 * (n + 1) + 4 * m + 4 * m
    if spec is None:
        return raw
    return max(1, int(raw * spec.sparse_charge_factor))


def plan_batch_size(
    graph,
    spec: DeviceSpec,
    *,
    queue_factor: float = DEFAULT_QUEUE_FACTOR,
    num_row_buffers: int = 2,
) -> int:
    """The paper's ``bat = (L − S)/(c·m)``, plus output-row accounting."""
    n, m = graph.num_vertices, graph.num_edges
    s = graph_device_bytes(graph, spec)
    free = spec.memory_bytes - s
    per_instance = (
        queue_factor * m * _ELEM + num_row_buffers * n * _ELEM
    ) * spec.sparse_charge_factor
    if free < per_instance:
        raise OutOfMemoryError(int(per_instance + s), max(0, free), spec.memory_bytes)
    return int(min(n, free // per_instance))


def _workload(stats, dynamic_parallelism: bool) -> MsspWorkload:
    """The cost-model view of one batch's Near-Far statistics."""
    return MsspWorkload(
        relaxations=stats.relaxations,
        heavy_relaxations=stats.heavy_relaxations if dynamic_parallelism else 0,
        iterations=stats.iterations,
        child_launches=stats.child_launches if dynamic_parallelism else 0,
    )


def mssp_numerics(
    graph,
    spec: DeviceSpec,
    *,
    bat: int,
    delta: float | None = None,
    dynamic_parallelism: bool = True,
    heavy_degree: int = DEFAULT_HEAVY_DEGREE,
    workloads: "list[MsspWorkload] | None" = None,
) -> Numerics:
    """Host numerics of one ``mssp`` kernel: real Near-Far rows of its
    sources into the written buffer, priced by
    :func:`~repro.gpu.kernels.mssp_batch_cost` for a grid of ``bat``
    blocks (the last batch may carry fewer sources but launches the same
    grid). Each batch's workload is appended to ``workloads`` when given.
    """

    def mssp(reads, writes, sources) -> float:
        dist, stats = near_far_batch(
            graph, sources, delta=delta, heavy_degree=heavy_degree
        )
        writes[0][...] = dist.astype(DIST_DTYPE, copy=False)
        workload = _workload(stats, dynamic_parallelism)
        if workloads is not None:
            workloads.append(workload)
        return mssp_batch_cost(
            spec, workload, bat, dynamic_parallelism=dynamic_parallelism
        )

    return mssp


def ooc_johnson(
    graph,
    device: Device,
    *,
    batch_size: int | None = None,
    delta: float | None = None,
    dynamic_parallelism: bool = True,
    heavy_degree: int = DEFAULT_HEAVY_DEGREE,
    queue_factor: float = DEFAULT_QUEUE_FACTOR,
    overlap: bool = True,
    store_mode: str = "ram",
    store_dir=None,
    checkpoint=None,
) -> APSPResult:
    """Solve APSP with the out-of-core Johnson's algorithm.

    ``checkpoint`` (a directory path or
    :class:`~repro.faults.CheckpointStore`) saves progress after every
    MSSP batch and resumes from whatever the store already holds.
    """
    n = graph.num_vertices
    spec = device.spec
    nbuf = 2 if overlap else 1
    if batch_size is None:
        batch_size = plan_batch_size(
            graph, spec, queue_factor=queue_factor, num_row_buffers=nbuf
        )
    bat = max(1, min(batch_size, n))
    host = HostStore.empty(graph, mode=store_mode, directory=store_dir)

    device.reset_clock()
    ckpt = open_checkpoint(checkpoint, algorithm="johnson", graph=graph)
    start_b = 0
    if ckpt is not None:
        state = ckpt.load("progress")
        if state is not None:
            if int(state["batch_size"]) != bat:
                raise CheckpointError(
                    f"checkpoint used batch_size={int(state['batch_size'])}, "
                    f"this run plans {bat}",
                    path=ckpt.path_for("progress"),
                )
            host.data[...] = state["dist"]
            start_b = int(state["batches_done"])
            device.fault_report.resumed += start_b

    workloads: list[MsspWorkload] = []

    def host_data(key):
        if key[0] == "csr":
            return csr_host_array(graph, key[1])
        if key[0] == "sources":
            return np.arange(key[1], key[2], dtype=np.int64)
        return host.rows(key[1], key[2])

    mssp = mssp_numerics(
        graph, spec, bat=bat, delta=delta, dynamic_parallelism=dynamic_parallelism,
        heavy_degree=heavy_degree, workloads=workloads,
    )
    ex = DeviceEmitter(device, host=host_data, kernels={"mssp": mssp})
    with device.memory.cleanup_on_error():
        for b in _johnson_schedule(
            ex, graph, spec, bat, queue_factor=queue_factor, overlap=overlap,
            start_batch=start_b,
        ):
            if ckpt is not None:
                # rows [0, hi) are already in host.data (simulated copies
                # move data at enqueue time), so the stage is consistent
                # without a device sync — checkpointing keeps the timeline
                # untouched.
                ckpt.save(
                    "progress", batches_done=b + 1, batch_size=bat,
                    dist=np.asarray(host.data),
                )
                device.fault_report.checkpoints_written += 1

    elapsed = device.synchronize()
    host.flush()

    from repro.core.ooc_fw import transfer_stats

    return APSPResult(
        algorithm="johnson",
        store=host,
        simulated_seconds=elapsed,
        stats={
            "batch_size": bat,
            "num_batches": (n + bat - 1) // bat,
            "dynamic_parallelism": dynamic_parallelism,
            "relaxations": sum(w.relaxations for w in workloads),
            "heavy_relaxations": sum(w.heavy_relaxations for w in workloads),
            "overlap": overlap,
            **transfer_stats(device),
        },
        faults=device.fault_report,
    )


def csr_host_array(graph, name: str) -> np.ndarray:
    """Host side of the CSR upload key ``("csr", name)``: the graph array
    in the device's element types (int32 indices, float32 weights)."""
    dtype = DIST_DTYPE if name == "weights" else np.int32
    return getattr(graph, name).astype(dtype)


def upload_csr(em, graph, spec: DeviceSpec) -> tuple:
    """Allocate the device CSR graph and upload it, through ``em``.

    The three buffers (int32 ``indptr``/``indices``, float32 ``weights``)
    are charged at the scaled device's sparse factor; their copies are
    keyed ``("csr", name)``. Returns ``(indptr, indices, weights)``.
    """
    n, m = graph.num_vertices, graph.num_edges
    charge = spec.sparse_charge_factor
    indptr = em.alloc(
        "indptr", (n + 1,), dtype=np.int32,
        charged_bytes=int(4 * (n + 1) * charge) + 1,
    )
    indices = em.alloc(
        "indices", (max(1, m),), dtype=np.int32,
        charged_bytes=int(4 * m * charge) + 1,
    )
    weights = em.alloc(
        "weights", (max(1, m),), charged_bytes=int(4 * m * charge) + 1
    )
    em.h2d(indptr, key=("csr", "indptr"))
    if m:
        em.h2d(indices, key=("csr", "indices"))
        em.h2d(weights, key=("csr", "weights"))
    return indptr, indices, weights


def mssp_batch(em, graph, csr: tuple, rows, lo: int, hi: int, *,
               cost: float | None = None, copier: str | None = None) -> None:
    """One MSSP batch through ``em``: the ``mssp`` kernel over sources
    ``[lo, hi)`` (key ``("sources", lo, hi)``) into the first ``hi - lo``
    rows of ``rows``, then their download (key ``("rows", lo, hi)``).

    The download is synchronous on the kernel's stream, or with a
    ``copier`` stream asynchronous there behind an ``mssp-done`` event.
    """
    rect = Rect(0, hi - lo, 0, graph.num_vertices)
    # empty graphs leave indices/weights unwritten — don't declare them read
    reads = csr if graph.num_edges else csr[:1]
    em.kernel(
        "mssp", reads=reads, writes=((rows, rect),), cost=cost,
        key=("sources", lo, hi),
    )
    if copier is None:
        em.d2h(rows, rect, key=("rows", lo, hi))
    else:
        em.wait(em.record("mssp-done"), stream=copier)
        em.d2h(rows, rect, key=("rows", lo, hi), stream=copier, sync=False)


def _johnson_schedule(
    em, graph, spec: DeviceSpec, bat: int, *, queue_factor: float, overlap: bool,
    workloads: "list[MsspWorkload] | None" = None, dynamic_parallelism: bool = True,
    start_batch: int = 0,
):
    """The batched MSSP pipeline of Algorithm 2 (see module docstring).

    Calls the emitter ``em`` op by op: the CSR upload (:func:`upload_csr`),
    the worklist allocation, and one :func:`mssp_batch` per batch — with
    ``overlap=True`` the download runs async on ``johnson-copy`` behind
    ``mssp-done``/``rows-down`` event edges. With ``workloads`` (from
    :func:`collect_mssp_workloads`) each ``mssp`` kernel also carries the
    modelled cost the run would charge. Yields each finished batch index.

    ``start_batch`` skips batches a checkpoint already covers; batches
    are independent SSSP groups, so the resumed suffix replays the
    identical schedule tail (elision indices stay absolute).
    """
    n, m = graph.num_vertices, graph.num_edges
    nbuf = 2 if overlap else 1
    # Resident device state: the CSR graph, the per-instance worklists, and
    # the output-row buffers.
    charge = spec.sparse_charge_factor
    csr = upload_csr(em, graph, spec)
    queues = em.alloc("queues", (max(1, int(bat * queue_factor * m * charge)),))
    row_bufs = [
        em.alloc(f"rows{p}", (bat, n), charged_bytes=int(bat * n * _ELEM * charge) + 1)
        for p in range(nbuf)
    ]
    num_batches = (n + bat - 1) // bat
    copier = "johnson-copy" if overlap else None
    down_events: list = [None] * nbuf
    for b in range(start_batch, num_batches):
        lo, hi = b * bat, min((b + 1) * bat, n)
        p = b % nbuf
        cost = None
        if workloads is not None:
            cost = mssp_batch_cost(
                spec, workloads[b], bat, dynamic_parallelism=dynamic_parallelism
            )
        if down_events[p] is not None:
            em.wait(down_events[p])  # rows buffer still draining
        mssp_batch(em, graph, csr, row_bufs[p], lo, hi, cost=cost, copier=copier)
        if copier is not None and b + nbuf < num_batches:
            # Trailing drains have no future consumer; recording an
            # event nobody waits on would trip the dead-event check.
            down_events[p] = em.record("rows-down", stream=copier)
        yield b
    for buf in [*csr, queues, *row_bufs]:
        em.free(buf)


def sample_batch_sources(
    n: int, batch_size: int, sample: int | None, seed: int = 0
) -> dict[int, np.ndarray]:
    """The sources :func:`collect_mssp_workloads` runs, keyed by batch.

    ``sample=None`` runs every batch in full. ``sample=k`` runs ``k``
    batches drawn with ``seed`` (every batch when there are no more than
    ``k``), and a drawn batch holding more than :data:`SAMPLE_SOURCES`
    sources runs only that many of them, drawn with the same generator.
    """
    bat = max(1, min(batch_size, n))
    num_batches = (n + bat - 1) // bat
    rng = np.random.default_rng(seed)
    if sample is None or sample >= num_batches:
        picked = list(range(num_batches))
    else:
        picked = sorted(
            rng.choice(num_batches, size=max(1, sample), replace=False).tolist()
        )
    chosen: dict[int, np.ndarray] = {}
    for b in picked:
        lo, hi = b * bat, min((b + 1) * bat, n)
        if sample is not None and hi - lo > SAMPLE_SOURCES:
            offsets = rng.choice(hi - lo, size=SAMPLE_SOURCES, replace=False)
            chosen[b] = lo + np.sort(offsets).astype(np.int64)
        else:
            chosen[b] = np.arange(lo, hi, dtype=np.int64)
    return chosen


def _scale_workload(workload: MsspWorkload, factor: float) -> MsspWorkload:
    """A batch's workload from a sample of ``1/factor`` of its sources.

    Relaxations add up across sources, so they scale. Iterations are
    grid-wide and stay as sampled. Child launches are per iteration two
    fixed launches plus one per :data:`EDGES_PER_CHILD_BLOCK` heavy edges,
    so only the extra heavy edges add launches.
    """
    heavy = int(round(workload.heavy_relaxations * factor))
    extra_heavy = heavy - workload.heavy_relaxations
    return MsspWorkload(
        relaxations=int(round(workload.relaxations * factor)),
        heavy_relaxations=heavy,
        iterations=workload.iterations,
        child_launches=workload.child_launches
        + int(round(extra_heavy / EDGES_PER_CHILD_BLOCK)),
    )


def collect_mssp_workloads(
    graph,
    *,
    batch_size: int,
    delta: float | None = None,
    dynamic_parallelism: bool = True,
    heavy_degree: int = DEFAULT_HEAVY_DEGREE,
    sample: int | None = None,
    seed: int = 0,
) -> list[MsspWorkload]:
    """Per-batch MSSP workload statistics for symbolic timing and pricing.

    With ``sample=None`` runs the same Near-Far execution the driver
    would (host numerics only, no device) for every batch, so the costs
    attached to the emitted ``mssp`` kernels equal the dynamic driver's
    exactly. ``sample=k`` runs only what :func:`sample_batch_sources`
    picks: ``k`` batches, each cut to at most :data:`SAMPLE_SOURCES`
    sources and scaled back up to its size (see :func:`_scale_workload`).
    The batches not run take the componentwise mean of those that were.
    This is the one Johnson sampler: the cost models and the Δ tuner
    price from it.
    """
    n = graph.num_vertices
    bat = max(1, min(batch_size, n))
    num_batches = (n + bat - 1) // bat
    sampled: dict[int, MsspWorkload] = {}
    for b, sources in sample_batch_sources(n, bat, sample, seed).items():
        _dist, stats = near_far_batch(
            graph, sources, delta=delta, heavy_degree=heavy_degree
        )
        workload = _workload(stats, dynamic_parallelism)
        size = min((b + 1) * bat, n) - b * bat
        if sources.size < size:
            workload = _scale_workload(workload, size / sources.size)
        sampled[b] = workload
    if len(sampled) == num_batches:
        return [sampled[b] for b in range(num_batches)]
    mean = MsspWorkload(
        relaxations=int(round(np.mean([w.relaxations for w in sampled.values()]))),
        heavy_relaxations=int(
            round(np.mean([w.heavy_relaxations for w in sampled.values()]))
        ),
        iterations=int(round(np.mean([w.iterations for w in sampled.values()]))),
        child_launches=int(
            round(np.mean([w.child_launches for w in sampled.values()]))
        ),
    )
    return [sampled.get(b, mean) for b in range(num_batches)]


def emit_johnson_ir(
    graph,
    spec: DeviceSpec,
    *,
    batch_size: int | None = None,
    queue_factor: float = DEFAULT_QUEUE_FACTOR,
    overlap: bool = True,
    workloads: "list[MsspWorkload] | None" = None,
    dynamic_parallelism: bool = True,
    start_batch: int = 0,
):
    """Compile the batched-MSSP schedule to a symbolic
    :class:`~repro.verifyplan.ir.PlanIR` without executing anything.

    Runs :func:`_johnson_schedule` — the schedule :func:`ooc_johnson`
    executes — into an :class:`~repro.verifyplan.ir.IREmitter`. When
    ``workloads`` (from :func:`collect_mssp_workloads`) is given, each
    ``mssp`` kernel carries the exact modelled cost the dynamic run would
    charge, enabling the symbolic timing pass.

    ``start_batch > 0`` emits the suffix a checkpoint-resumed run
    replays, for auditing recovery paths with ``analyze_hb``/``audit_ir``.
    """
    n = graph.num_vertices
    if batch_size is None:
        batch_size = plan_batch_size(
            graph, spec, queue_factor=queue_factor,
            num_row_buffers=2 if overlap else 1,
        )
    bat = max(1, min(batch_size, n))
    em = IREmitter("johnson", spec.name, spec.memory_bytes)
    for _ in _johnson_schedule(
        em, graph, spec, bat, queue_factor=queue_factor, overlap=overlap,
        workloads=workloads, dynamic_parallelism=dynamic_parallelism,
        start_batch=start_batch,
    ):
        pass
    return em.finish()
