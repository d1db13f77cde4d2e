"""End-to-end verifier for the dynamic-update schedules (``verify-update``).

For every sweep configuration this driver replays a scripted sequence of
edge-update batches through :class:`~repro.dynamic.patch.DynamicAPSP`
and audits **every** emitted patch pass with the audit every schedule
verifier shares (:func:`repro.verifyplan.verifier.audit_schedule`):

* residency/def-use/redundancy of the :class:`~repro.verifyplan.ir.PlanIR`
  of the schedule the pass ran;
* the closed-form transfer bounds of :mod:`repro.verifyplan.updatebounds`
  equal — byte for byte — the IR tally, with the O(n²) asymptotic gates;
* the happens-before model checker over the two-stream sweep;
* the patch-soundness checker against the measured changed-block set,
  whose findings join the audit's.

The increase pass prices its Near-Far launches only when it runs, so
these audits carry no timing replay. The named checks of the report
follow: after each batch the patched matrix is compared bit-for-bit
against a full re-solve of the mutated graph (one differential per
configuration), the seeded-defect suite corrupts the emitted IR three ways — shrunken
affected region, dropped writeback, stale pivot panel — and requires
each defect caught *statically* with block attribution, and one
cache-revalidation leg exercises
:class:`~repro.dynamic.cache.DistanceCache` end to end.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from typing import Any, Sequence

import numpy as np

from repro.core.blocked_fw import floyd_warshall
from repro.core.engine import DIST_DTYPE, KernelEngine, default_engine
from repro.dynamic.cache import DistanceCache
from repro.dynamic.patch import (
    DynamicAPSP,
    EdgeUpdate,
    PatchPass,
    UpdatePlan,
    emit_update_ir,
)
from repro.faults.checkpoint import CheckpointError, CheckpointStore, graph_fingerprint
from repro.gpu.device import TEST_DEVICE, DeviceSpec
from repro.graphs.csr import CSRGraph
from repro.verifyplan.analyze import audit_ir
from repro.verifyplan.ir import AllocOp, CopyOp, FreeOp, KernelOp, PlanIR, RecordOp, WaitOp
from repro.verifyplan.updatebounds import check_patch_soundness, update_bound_checks
from repro.verifyplan.verifier import Audit, Check, Verification, audit_schedule

__all__ = [
    "DEFAULT_UPDATE_CONFIGS",
    "seed_defect",
    "verify_update",
]

#: sweep configurations: every update kind, ragged and even partitions,
#: and an in-core (single-block) layout. ``nd`` is the block-row count.
DEFAULT_UPDATE_CONFIGS: tuple[dict[str, Any], ...] = (
    {"name": "road220-mixed", "kind": "road", "n": 220, "deg": 2.6, "seed": 1, "nd": 3},
    {"name": "rmat120-batch", "kind": "rmat", "n": 120, "m": 800, "seed": 2, "nd": 4},
    {"name": "er200-ragged", "kind": "er", "n": 200, "m": 1200, "seed": 3, "nd": 2},
)


def _build_graph(cfg: dict[str, Any]) -> CSRGraph:
    from repro.graphs.generators import erdos_renyi, rmat, road_like

    if cfg["kind"] == "road":
        return road_like(cfg["n"], cfg["deg"], seed=cfg["seed"])
    if cfg["kind"] == "rmat":
        return rmat(cfg["n"], cfg["m"], seed=cfg["seed"])
    return erdos_renyi(cfg["n"], cfg["m"], seed=cfg["seed"])


def _non_edge(graph: CSRGraph, u: int) -> int:
    row = set(graph.indices[graph.indptr[u] : graph.indptr[u + 1]].tolist())
    row.add(u)
    for v in range(graph.num_vertices - 1, -1, -1):
        if v not in row:
            return v
    raise ValueError(f"vertex {u} is connected to every other vertex")


def _update_script(graph: CSRGraph, seed: int) -> list[list[EdgeUpdate]]:
    """Three deterministic batches: decreases + an insertion, increases +
    a deletion, then a mixed batch. Integer weights keep every float32
    patch bit-identical to a re-solve."""
    rng = np.random.default_rng(seed)
    src, dst, w = graph.edge_array()
    idx = rng.choice(len(src), size=min(8, len(src)), replace=False)
    pick = [(int(src[i]), int(dst[i]), float(w[i])) for i in idx]
    batch1 = [EdgeUpdate(u, v, max(0.0, wt // 2)) for u, v, wt in pick[:3]]
    batch1.append(EdgeUpdate(pick[0][0], _non_edge(graph, pick[0][0]), 1.0))
    batch2 = [EdgeUpdate(u, v, wt + 9.0) for u, v, wt in pick[3:5]]
    batch2.append(EdgeUpdate.delete(*pick[5][:2]))
    batch3 = [EdgeUpdate(u, v, max(0.0, wt - 1.0)) for u, v, wt in pick[6:8]]
    batch3.append(EdgeUpdate(pick[3][0], pick[3][1], pick[3][2] + 11.0))
    batch3.append(EdgeUpdate.delete(*pick[4][:2]))
    return [batch1, batch2, batch3]


# ---------------------------------------------------------------------------
# seeded defects: controlled corruptions of the emitted schedule
# ---------------------------------------------------------------------------
DEFECT_NAMES = ("shrunken-region", "dropped-writeback", "stale-pivot-panel")


def seed_defect(
    ir: PlanIR,
    defect: str,
    plan: UpdatePlan,
    block: tuple[int, int],
) -> PlanIR:
    """Corrupt a pass's IR the way a buggy incremental driver would, by
    dropping or moving its ops.

    ``block`` targets the corruption (for ``shrunken-region`` and
    ``dropped-writeback``: the block whose coverage/writeback is lost).
    """
    ops = list(ir.ops)
    i, j = block
    if defect == "shrunken-region":
        keys: set[tuple]
        if plan.kind == "decrease":
            keys = {("A", i, j), ("block", i, j)}
            events = {f"up:{i}:{j}", f"done:{i}:{j}"}
            buffers: set[int] = set()
        else:
            keys = {("rows", i), ("sources", i)}
            events = {f"rows-done:{i}"}
            buffers = {b.id for b in ir.buffers.values() if b.name == f"rows{i}"}
        event_ids = {op.event for op in ops if isinstance(op, RecordOp) and op.name in events}

        def dropped(op) -> bool:
            if isinstance(op, (CopyOp, KernelOp)):
                return op.key in keys
            if isinstance(op, (AllocOp, FreeOp)):
                return op.buffer in buffers
            return isinstance(op, (RecordOp, WaitOp)) and op.event in event_ids

        return replace(ir, ops=tuple(op for op in ops if not dropped(op)))
    if defect == "dropped-writeback":
        key = ("A", i, j) if plan.kind == "decrease" else ("rows", i)
        for pos, op in enumerate(ops):
            if isinstance(op, CopyOp) and op.kind == "d2h" and op.key == key:
                del ops[pos]
                return replace(ir, ops=tuple(ops))
        raise ValueError(f"no writeback for {key} to drop")
    if defect == "stale-pivot-panel":
        if plan.kind != "decrease":
            raise ValueError("stale-pivot-panel only applies to decrease sweeps")

        def kernel_positions(name: str) -> list[int]:
            return [
                pos for pos, op in enumerate(ops)
                if isinstance(op, KernelOp) and op.name == name
            ]

        fold = ops.pop(kernel_positions("fold_panel")[0])
        ops.insert(kernel_positions("rank1_patch")[-1] + 1, fold)
        return replace(ir, ops=tuple(ops))
    raise ValueError(f"unknown defect {defect!r}")


# ---------------------------------------------------------------------------
# per-pass audit
# ---------------------------------------------------------------------------
def audit_pass(name: str, patch: PatchPass, spec: DeviceSpec) -> Audit:
    """Run every static analysis over one executed pass."""
    plan = patch.plan
    ir = emit_update_ir(plan, spec)
    audit = audit_schedule(
        name, [ir], spec,
        parameters={
            "n": plan.n,
            "block_size": plan.block_size,
            "num_blocks": plan.num_blocks,
            "k": plan.k,
            "affected_rows": len(plan.affected_rows),
        },
        bounds=lambda tally: update_bound_checks(plan, tally),
        timing=False,
    )
    audit.findings += check_patch_soundness(plan, ir, patch.changed_blocks)
    return audit


# ---------------------------------------------------------------------------
# the full verification
# ---------------------------------------------------------------------------
def _defect_checks(
    config: str, patch: PatchPass, spec: DeviceSpec
) -> list[Check]:
    """Seed the three defects into one pass's IR and require each caught
    statically with the right block attribution."""
    plan = patch.plan
    checks: list[Check] = []
    target = max(patch.changed_blocks) if patch.changed_blocks else (0, 0)
    defects = ["shrunken-region", "dropped-writeback"]
    if plan.kind == "decrease":
        defects.append("stale-pivot-panel")
    for name in defects:
        ir = seed_defect(emit_update_ir(plan, spec), name, plan, target)
        findings = check_patch_soundness(plan, ir, patch.changed_blocks)
        if name == "stale-pivot-panel":
            hits = [f for f in findings if f.kind == "stale-pivot-panel"]
        else:
            kinds: tuple[str, ...] = ("uncovered-block",)
            if name == "dropped-writeback":
                kinds += ("missing-writeback",)
            hits = [f for f in findings if f.kind in kinds and f.block == target]
        caught = bool(hits)
        detail = (
            "; ".join(f.describe() for f in hits[:2])
            if hits
            else "no soundness finding attributed to the seeded block"
        )
        if name == "dropped-writeback":
            _peak, tally, _plan_findings = audit_ir(ir)
            bounds_caught = any(not c.ok for c in update_bound_checks(plan, tally))
            caught = caught and bounds_caught
            detail += (
                "; bound tally "
                + ("also diverged" if bounds_caught else "DID NOT diverge")
            )
        checks.append(Check(f"defect {name} caught [{config}, {plan.kind}]", caught, detail))
    return checks


def _revalidation_checks(
    graph: CSRGraph,
    block_size: int,
    spec: DeviceSpec,
    engine: KernelEngine,
) -> dict[str, bool]:
    """One end-to-end :class:`DistanceCache` leg: rotate, refuse, reuse."""
    checks: dict[str, bool] = {}
    src, dst, w = graph.edge_array()
    updates = [EdgeUpdate(int(src[0]), int(dst[0]), max(0.0, float(w[0]) // 2))]
    fingerprint = graph_fingerprint(graph)
    with tempfile.TemporaryDirectory(prefix="repro-dyncache-") as tmp:
        cache = DistanceCache(tmp)
        apsp = DynamicAPSP(graph, spec=spec, engine=engine, block_size=block_size)
        cache.store(fingerprint, apsp.dist.copy())
        new_graph, new_dist, result = cache.revalidate(
            graph, fingerprint, updates, spec=spec, engine=engine, block_size=block_size
        )
        # content-hash key rotated with the mutation
        checks["fingerprint-rotates"] = graph_fingerprint(new_graph) != fingerprint
        # revalidated entry is served for the new graph, bit-identically
        reloaded = cache.lookup(result.new_fingerprint)
        checks["revalidated-entry-reused"] = (
            reloaded is not None and np.array_equal(reloaded, new_dist)
        )
        # and it equals a from-scratch solve of the mutated graph
        resolved = floyd_warshall(new_graph.to_dense(DIST_DTYPE), engine=engine)
        checks["revalidated-bit-identical"] = np.array_equal(new_dist, resolved)
        # a store bound to another graph's fingerprint is refused
        try:
            CheckpointStore(cache._subdir(fingerprint)).bind(
                algorithm="dynamic-dist", fingerprint=result.new_fingerprint
            )
            checks["stale-checkpoint-refused"] = False
        except CheckpointError:
            checks["stale-checkpoint-refused"] = True
    return checks


def verify_update(
    spec: DeviceSpec | None = None,
    configs: Sequence[dict[str, Any]] = DEFAULT_UPDATE_CONFIGS,
    *,
    engine: KernelEngine | None = None,
) -> Verification:
    """Verify every dynamic-update schedule on the sweep configurations.

    One audit per executed pass, named ``"<config> batch <b> pass <p>
    [<kind>]"``; the named checks are each configuration's differential,
    the seeded defects and the revalidation leg.
    """
    spec = spec if spec is not None else TEST_DEVICE
    engine = engine if engine is not None else default_engine()
    ver = Verification(
        f"update verifier [{spec.name}]: {len(configs)} configuration(s)",
        {"device": spec.name},
    )
    defect_sources: dict[str, tuple[str, PatchPass]] = {}
    for cfg in configs:
        graph = _build_graph(cfg)
        n = graph.num_vertices
        block_size = -(-n // int(cfg["nd"]))
        apsp = DynamicAPSP(graph, spec=spec, engine=engine, block_size=block_size)
        differential = True
        for batch_no, batch in enumerate(_update_script(graph, cfg["seed"])):
            result = apsp.apply(batch)
            for pass_no, patch in enumerate(result.passes):
                name = f"{cfg['name']} batch {batch_no} pass {pass_no} [{patch.plan.kind}]"
                ver.audits[name] = audit_pass(name, patch, spec)
                # remember one changed pass per kind for the defect suite
                if patch.changed_blocks and patch.plan.kind not in defect_sources:
                    defect_sources[patch.plan.kind] = (cfg["name"], patch)
            reference = floyd_warshall(apsp.graph.to_dense(DIST_DTYPE), engine=engine)
            differential = differential and bool(np.array_equal(apsp.dist, reference))
        ver.checks.append(Check(
            f"differential {cfg['name']}", differential,
            "incremental patches vs full re-solve, bit for bit",
        ))
    for kind in ("decrease", "increase"):
        entry = defect_sources.get(kind)
        if entry is None:
            ver.checks.append(Check(
                f"defects [{kind}]", False, "no pass of this kind changed a block to seed"
            ))
        else:
            ver.checks.extend(_defect_checks(entry[0], entry[1], spec))
    first = configs[0]
    graph = _build_graph(first)
    revalidation = _revalidation_checks(
        graph, -(-graph.num_vertices // int(first["nd"])), spec, engine
    )
    ver.checks += [Check(f"revalidation {k}", v) for k, v in revalidation.items()]
    return ver
