"""Closed-form transfer proofs for the dynamic-update schedules.

ROADMAP item 3 asks that incremental patches be scheduled through the IR
"so verifyplan proves the update's transfer volume is O(n²) not O(n³)".
This module holds that proof layer for the plans of
:mod:`repro.dynamic.patch`:

* **one exact traffic record per pass** (:func:`update_traffic`) — the
  batched-decrease sweep uploads the ``n×k`` column panel, the ``k×n``
  row panel and the ``k×k`` transition matrix, then every ``dist``
  block up once and back once (``n²`` elements each way, in ``n_d²``
  copies each way); the increase pass uploads the updated CSR graph
  once (``8(n+1) + 16m`` bytes) and writes back exactly the
  affected-region rectangles enumerated from the SSSP frontier, one per
  affected block-row (``|X| · n`` elements). Every field is checked
  against the IR tally of the schedule the pass runs, and the dynamic
  crossover record (:mod:`repro.bench.dynamic`) prices the same record;

* **asymptotic gate** — total traffic must stay within ``4n²`` elements
  (constant independent of the block count ``n_d``; the engine caps
  decrease batches at ``k ≤ n/2`` so ``2n² + 2nk + k² ≤ 3.25n²``), and
  for out-of-core layouts (``n_d ≥ 2``) strictly below the blocked-FW
  re-solve volume — the update never degenerates to the stage-3
  ``O(n_d · n²)`` full pass;

* **patch soundness** — the statically planned touched-block set must
  (a) cover every block the dynamic patch actually changed, (b) write
  every planned block back to the host, and (c) fold the pivot panels
  (``fold_closure``/``fold_panel``) before any block kernel reads them.
  Each violated rule yields a :class:`SoundnessFinding` with block
  attribution; the seeded-defect suite in :mod:`repro.dynamic.verify`
  proves all three fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.verifyplan.analyze import TransferTally
from repro.verifyplan.bounds import BoundCheck, Traffic, fw_traffic, traffic_checks
from repro.verifyplan.ir import CopyOp, KernelOp, PlanIR

if TYPE_CHECKING:  # imported lazily to keep verifyplan import-independent
    from repro.dynamic.patch import UpdatePlan

__all__ = [
    "SoundnessFinding",
    "check_patch_soundness",
    "static_touched_blocks",
    "update_bound_checks",
    "update_traffic",
]

_ELEM = 4  # DIST_DTYPE is float32


# ---------------------------------------------------------------------------
# the traffic record
# ---------------------------------------------------------------------------
def update_traffic(plan: "UpdatePlan") -> Traffic:
    """What one patch pass moves (see the module docstring): a decrease
    makes ``3 + n_d²`` uploads and ``n_d²`` writebacks; an increase makes
    three CSR uploads (one when the graph has no edges) and one writeback
    per affected block-row."""
    n, nd = plan.n, plan.num_blocks
    if plan.kind == "decrease":
        k = plan.k
        return Traffic(
            bytes_h2d=(2 * n * k + k * k + n * n) * _ELEM,
            bytes_d2h=n * n * _ELEM,
            num_h2d=3 + nd * nd,
            num_d2h=nd * nd,
        )
    return Traffic(
        bytes_h2d=plan.csr_bytes,
        bytes_d2h=len(plan.affected_rows) * n * _ELEM,
        num_h2d=3 if plan.graph_m else 1,
        num_d2h=len(plan.affected_block_rows),
    )


# ---------------------------------------------------------------------------
# IR-side tallies
# ---------------------------------------------------------------------------
def static_touched_blocks(ir: PlanIR, num_blocks: int) -> frozenset[tuple[int, int]]:
    """Touched-block set derived from the IR alone: every block with a
    writeback (``("A", i, j)`` d2h) plus every block of a written-back
    affected block-row (``("rows", i)`` d2h)."""
    touched: set[tuple[int, int]] = set()
    for op in ir.ops:
        if isinstance(op, CopyOp) and op.kind == "d2h":
            if op.key[0] == "A":
                touched.add((int(op.key[1]), int(op.key[2])))
            elif op.key[0] == "rows":
                touched.update((int(op.key[1]), j) for j in range(num_blocks))
    return frozenset(touched)


# ---------------------------------------------------------------------------
# bound checks: traffic record == IR tally, plus the O(n²) gates
# ---------------------------------------------------------------------------
def update_bound_checks(plan: "UpdatePlan", tally: TransferTally) -> list[BoundCheck]:
    """The pass's traffic record checked field by field against the IR's
    transfer tally (from :func:`repro.verifyplan.analyze.audit_ir`),
    plus the O(n²) gates."""
    n = plan.n
    nd = plan.num_blocks
    detail = {
        "decrease": "2nk + k² panels, then every block up and back once",
        "increase": "the updated CSR graph once; one writeback of |X|·n "
        "elements per affected block-row",
    }[plan.kind]
    checks = traffic_checks(plan.kind, update_traffic(plan), tally, detail)
    total = tally.bytes_h2d + tally.bytes_d2h
    # asymptotic gate 1: O(n²) with a constant independent of n_d. The
    # graph upload itself is O(n + m) ⊆ O(n²); the patch traffic proper
    # must fit in 4n² elements (decrease: 2n² + 2nk + k² ≤ 3.25n² for the
    # engine's k ≤ n/2 batch cap; increase: |X|·n ≤ n²).
    slack = plan.csr_bytes if plan.kind == "increase" else 0
    checks.append(
        BoundCheck(
            name="update-o-n2-gate",
            expected=4 * n * n * _ELEM + slack,
            actual=total,
            mode="at-most",
            detail="per-update traffic stays within 4·n² elements — O(n²), "
            "constant independent of the block count n_d",
        )
    )
    # asymptotic gate 2: in the out-of-core regime the patch must beat the
    # full blocked-FW re-solve it replaces (its stage-3 pass alone moves
    # O(n_d · n²) = O(n³ / b) bytes).
    if nd >= 2:
        resolve = fw_traffic(n, plan.block_size).total_bytes
        checks.append(
            BoundCheck(
                name="update-vs-resolve-gate",
                expected=resolve,
                actual=total,
                mode="at-most",
                detail="strictly below the blocked-FW re-solve volume: the "
                "patch never degenerates to the stage-3 O(n_d·n²) pass",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# patch-soundness checker (all static; `changed_blocks` is the dynamic
# ground truth the over-approximation is proven against)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SoundnessFinding:
    """One violated patch-soundness rule, with block attribution."""

    kind: str
    block: tuple[int, int] | None
    detail: str

    def describe(self) -> str:
        where = f" at block {self.block}" if self.block is not None else ""
        return f"{self.kind}{where}: {self.detail}"


def check_patch_soundness(
    plan: "UpdatePlan",
    ir: PlanIR,
    changed_blocks: Iterable[tuple[int, int]],
) -> list[SoundnessFinding]:
    """Prove the schedule's touched-block over-approximation sound.

    Three rules, each caught statically from the IR:

    * ``uncovered-block`` — a block the dynamic patch changed has no
      writeback in the schedule (a *shrunken affected region* would ship
      stale host state);
    * ``missing-writeback`` — a block the plan declares touched is never
      downloaded (a *dropped writeback* silently loses device results);
    * ``stale-pivot-panel`` — a block kernel reads the shared panels
      before (or without) the ``fold_closure``/``fold_panel`` kernels
      that finalise them.
    """
    findings: list[SoundnessFinding] = []
    touched_static = static_touched_blocks(ir, plan.num_blocks)
    for block in sorted(set(changed_blocks)):
        if block not in touched_static:
            findings.append(
                SoundnessFinding(
                    kind="uncovered-block",
                    block=block,
                    detail="dynamically changed but outside the static "
                    "touched-block set — the schedule would ship stale bytes",
                )
            )
    for block in sorted(plan.touched_blocks()):
        if block not in touched_static:
            findings.append(
                SoundnessFinding(
                    kind="missing-writeback",
                    block=block,
                    detail="planned as touched but never written back to host",
                )
            )
    if plan.kind == "decrease":
        kernel_idx: dict[str, list[int]] = {
            "fold_closure": [], "fold_panel": [], "rank1_patch": [],
        }
        for pos, op in enumerate(ir.ops):
            if isinstance(op, KernelOp) and op.name in kernel_idx:
                kernel_idx[op.name].append(pos)
        first_patch = min(kernel_idx["rank1_patch"], default=None)
        for fold in ("fold_closure", "fold_panel"):
            positions = kernel_idx[fold]
            if first_patch is None:
                continue
            if not positions or min(positions) > first_patch:
                key = ir.ops[first_patch].key  # ("block", i, j)
                findings.append(
                    SoundnessFinding(
                        kind="stale-pivot-panel",
                        block=key[1:] if key else None,
                        detail=f"{fold} missing or ordered after the first "
                        "panel-reading block kernel — it would consume an "
                        "unfolded (stale) pivot panel",
                    )
                )
    return findings
