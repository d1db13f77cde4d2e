"""Multi-GPU boundary algorithm (extension).

The boundary algorithm descends from Djidjev et al.'s multi-node scheme,
and the paper's conclusion points at scaling beyond one device. This
driver runs Algorithm 3 across several simulated GPUs:

* **step 2** — components are distributed round-robin; each device closes
  its own diagonal blocks (dist2) independently;
* **step 3** — after a barrier, device 0 builds and closes the boundary
  graph; the closed matrix is broadcast (host-staged upload to every other
  device);
* **step 4** — block *rows* are distributed round-robin; each device runs
  its own batched-transfer pipeline into the shared host store over its
  own PCIe link.

Synchronisation is modelled with cross-device barriers (every engine clock
floors at the slowest device's time), so the simulated makespan honestly
includes load imbalance. Distances are identical to the single-device
driver (asserted in the tests). The schedule is written once
(:func:`_multi_schedule`), sharing the single-device driver's host side,
kernel numerics and per-block ops: the driver runs it on the fleet and
:func:`emit_multi_ir` compiles it for the static verifier.
"""

from __future__ import annotations

import contextlib

from repro.core.engine import default_engine
from repro.core.ooc_boundary import (
    BoundaryPlan,
    _block_ops,
    _BoundaryHost,
    _dist2_ops,
    plan_boundary,
)
from repro.core.result import APSPResult
from repro.faults.checkpoint import open_checkpoint
from repro.gpu.device import Device, DeviceSpec
from repro.gpu.executor import DeviceEmitter
from repro.gpu.timeline import fleet_floor
from repro.verifyplan.ir import IREmitter, Rect

__all__ = ["emit_multi_ir", "ooc_boundary_multi"]


def _barrier(devices: list[Device]) -> float:
    """Floor every device's clock (host, streams, engines) at the fleet max."""
    return fleet_floor(dev.clock for dev in devices)


def ooc_boundary_multi(
    graph,
    devices: list[Device],
    *,
    num_components: int | None = None,
    plan: BoundaryPlan | None = None,
    store_mode: str = "ram",
    store_dir=None,
    seed: int = 0,
    overlap: bool = False,
    checkpoint=None,
) -> APSPResult:
    """Solve APSP with the boundary algorithm across ``devices``.

    All devices must share a spec-compatible memory budget (the plan is
    validated against the smallest device). With ``overlap=True`` each
    device drains its step-4 output strips asynchronously on a
    ``multi-copy`` stream behind ``strip-ready``/``strip-down`` event
    edges, double-buffering two strips so compute on strip ``p+1``
    overlaps the download of strip ``p`` (costs one extra strip of
    device memory per device; off by default to keep the baseline
    footprint).

    ``checkpoint`` saves the same ``dist2-{i}``/``dist3``/``dist4``
    stages as the single-device driver (stamped ``boundary-multi``, so
    the two drivers' stores are not interchangeable) and resumes from
    whatever the store holds; the resumed run may even use a different
    device count, since stages record algorithm progress, not placement.
    """
    if not devices:
        raise ValueError("need at least one device")
    n = graph.num_vertices
    smallest: DeviceSpec = min(devices, key=lambda d: d.spec.memory_bytes).spec
    if plan is None:
        plan = plan_boundary(
            graph, smallest, num_components=num_components, seed=seed
        )
    state = _BoundaryHost(graph, plan, store_mode=store_mode, store_dir=store_dir)

    for dev in devices:
        dev.reset_clock()
    ckpt = open_checkpoint(checkpoint, algorithm="boundary-multi", graph=graph)
    report = devices[0].fault_report  # resume/checkpoint ledger lives on dev 0
    resume = state.restore(ckpt, report)
    kernels = state.kernels(default_engine())
    ems = [
        DeviceEmitter(dev, host=state, kernels=kernels, barrier=lambda: _barrier(devices))
        for dev in devices
    ]
    # A mid-run fault (exhausted retry budget) must not leak device
    # memory on any device of the fleet.
    with contextlib.ExitStack() as cleanup:
        for dev in devices:
            cleanup.enter_context(dev.memory.cleanup_on_error())
        for stage in _multi_schedule(ems, plan, n, overlap, resume):
            state.save(ckpt, stage, report)

    elapsed = _barrier(devices)
    state.host.flush()
    # the trace's end − start sum, which these stats have always reported
    per_device = [dev.clock.busy_time("compute") for dev in devices]
    merged = devices[0].fault_report
    for dev in devices[1:]:
        merged = merged.merged(dev.fault_report)
    return APSPResult(
        algorithm=f"boundary-multi[{len(devices)}]",
        store=state.host,
        simulated_seconds=elapsed,
        perm=plan.perm,
        inv_perm=plan.inv_perm,
        stats={
            "num_devices": len(devices),
            "num_components": plan.num_components,
            "num_boundary": plan.num_boundary,
            "overlap": overlap,
            "per_device_compute": per_device,
            "imbalance": max(per_device) / max(min(per_device), 1e-30),
        },
        faults=merged,
    )


def _multi_schedule(ems, plan: BoundaryPlan, n: int, overlap: bool,
                    resume: tuple[int, bool, int] = (0, False, 0)):
    """Algorithm 3 across ``len(ems)`` devices (see module docstring).

    ``ems[d]`` is device ``d``'s emitter: the round-robin dist2 tiles,
    the boundary closure on device 0 with its host-staged broadcast, each
    device's step-4 strip pipeline (async on ``multi-copy`` behind
    ``strip-ready``/``strip-down`` edges when ``overlap=True``), and a
    barrier on every device at each fleet synchronisation point. Yields
    the same checkpoint stages as the single-device schedule, one
    ``("dist4", i + 1)`` per block-row; ``resume`` skips the restored
    prefix the same way.
    """
    dist2_done, bound_done, rows_done = resume
    k = plan.num_components
    nb = plan.num_boundary
    starts = plan.comp_start
    num_dev = len(ems)
    yield from _dist2_ops(ems, plan, dist2_done)
    for em in ems:
        em.barrier("after-dist2")

    # step 3: boundary closure on device 0, broadcast to the rest
    root = ems[0]
    bounds = [root.alloc("bound", (nb, nb))]
    root.h2d(bounds[0], key=("bound",))
    if not bound_done:
        root.kernel("fw_bound", reads=(bounds[0],), writes=(bounds[0],))
        root.d2h(bounds[0], key=("bound",))
        yield ("dist3",)
    for em in ems:
        em.barrier("after-bound-closure")
    for em in ems[1:]:
        bounds.append(em.alloc("bound", (nb, nb)))
        em.h2d(bounds[-1], key=("bound",))
    for em in ems:
        em.barrier("after-broadcast")

    # step 4: block rows round-robin, double-buffered strips with overlap
    nmax = plan.max_component
    bmax = max(1, int(plan.comp_boundary.max()))
    nbuf = 2 if overlap else 1
    copier = "multi-copy" if overlap else "default"
    scratch = []
    for em in ems:
        tiles = (em.alloc("c2b", (nmax, bmax)), em.alloc("b2c", (bmax, nmax)),
                 em.alloc("tmp1", (nmax, bmax)))
        if overlap:
            outs = [em.alloc(f"out{p}", (nmax, n)) for p in range(nbuf)]
        else:
            outs = [em.alloc("out", (nmax, n))]
        scratch.append((tiles, outs))
    drain_events: list[list] = [[None] * nbuf for _ in ems]
    for i in range(rows_done, k):
        d = i % num_dev
        em = ems[d]
        (c2b, b2c, tmp1), outs = scratch[d]
        ni = int(starts[i + 1] - starts[i])
        cr = Rect(0, ni, 0, int(plan.comp_boundary[i]))
        em.h2d(c2b, cr, key=("dist2", i, "c2b"))
        em.kernel("extract_c2b", reads=((c2b, cr),), writes=((c2b, cr),))
        p = (i - rows_done) // num_dev % nbuf  # device d's strip buffer
        if drain_events[d][p] is not None:
            em.wait(drain_events[d][p])  # strip still draining
        for j in range(k):
            dest = (outs[p], Rect(0, ni, int(starts[j]), int(starts[j + 1])))
            _block_ops(em, plan, i, j, c2b, b2c, tmp1, bounds[d], dest)
        rect = Rect(0, ni, 0, n)
        key = ("host-rows", int(starts[i]), int(starts[i + 1]))
        if overlap:
            em.wait(em.record("strip-ready"), stream=copier)
            em.d2h(outs[p], rect, key=key, stream=copier, sync=False)
            if i + nbuf * num_dev < k:
                # only a later strip in buffer p waits on this drain; a
                # trailing record would be a dead event
                drain_events[d][p] = em.record("strip-down", stream=copier)
        else:
            em.d2h(outs[p], rect, key=key)
        yield ("dist4", i + 1)
    for em in ems:
        em.barrier("after-output")

    for em, ((c2b, b2c, tmp1), outs), bound in zip(ems, scratch, bounds):
        for buf in (c2b, b2c, tmp1, *outs, bound):
            em.free(buf)


def emit_multi_ir(
    graph,
    spec: DeviceSpec,
    num_devices: int,
    *,
    num_components: int | None = None,
    plan: BoundaryPlan | None = None,
    seed: int = 0,
    overlap: bool = False,
    resume: "tuple[int, bool, int] | None" = None,
):
    """Compile the multi-GPU boundary schedule to one symbolic
    :class:`~repro.verifyplan.ir.PlanIR` *per device*, without executing.

    Runs :func:`_multi_schedule` — the schedule :func:`ooc_boundary_multi`
    executes — into one :class:`~repro.verifyplan.ir.IREmitter` per
    device; device ``d``'s IR has ``rank=d``. Each fleet barrier is a
    :class:`~repro.verifyplan.ir.BarrierOp` in every device's IR, so the
    happens-before check and the timing replay of the fleet synchronise at
    the same points.

    ``resume=(dist2_done, bound_done, rows_done)`` emits the suffix a
    checkpoint-resumed run replays, as for
    :func:`~repro.core.ooc_boundary.emit_boundary_ir`.
    """
    if num_devices < 1:
        raise ValueError("need at least one device")
    if plan is None:
        plan = plan_boundary(graph, spec, num_components=num_components, seed=seed)
    ems = [
        IREmitter(
            f"boundary-multi[{num_devices}]", f"{spec.name}#{d}",
            spec.memory_bytes, rank=d,
        )
        for d in range(num_devices)
    ]
    for _ in _multi_schedule(
        ems, plan, graph.num_vertices, overlap, resume or (0, False, 0)
    ):
        pass
    return [em.finish() for em in ems]
