"""One exact traffic record per schedule, checked against the IR.

The paper derives the data-movement cost of each algorithm analytically
(Table I and Section III). This module is the one place that says what a
single-device schedule moves: each builder recomputes, from the plan
alone and with the drivers' own helpers, the schedule's
:class:`Traffic` (bytes and copies per direction, plus the row segments
of its strided copies). The verifier checks every field against the
tally of the emitted IR (:func:`traffic_checks`), and the cost models
price the same record (:meth:`Traffic.seconds`):

* **blocked FW** (:func:`fw_traffic`) — every block crosses the bus each
  outer iteration, so downloads are *exactly* ``n_d · n²`` elements in
  ``n_d³`` copies (the per-``k`` download set tiles the full matrix:
  ``(b_k + Σ_{i≠k} b_i)(b_k + Σ_{j≠k} b_j) = n²`` even with a ragged last
  block); uploads are the paper's ``≈ (2·n_d − 1) · n²`` elements, exact
  once the stage-3 row reuse of the double buffer is counted;
* **Johnson** (:func:`johnson_traffic`) — the CSR graph uploads once
  (``indptr``, ``indices``, ``weights``: ``4(n+1) + 8m`` bytes) and every
  output row downloads exactly once (``n²`` elements) in ``⌈n / bat⌉``
  batches;
* **boundary** (:func:`boundary_traffic`) — downloads are ``n² + Σ nᵢ²``
  elements (dist2 blocks plus the full dist4 output), uploads
  ``Σ nᵢ² + n_b² + Σᵢ nᵢbᵢ + k·Σⱼ bⱼnⱼ`` elements; the output drains in
  the driver's ``N_row``-batched flushes or, when the plan has no room
  for one strip (``n_row == 0``), in ``k²`` strided per-block copies of
  ``k·n`` row segments.

* **multi-GPU boundary** (:func:`multi_traffic`) — the boundary
  volumes with the closed boundary matrix broadcast from device 0 to
  every other device, summed over the fleet; each block-row's output
  strip drains in one copy.

The patch passes of :mod:`repro.dynamic` get their records in
:mod:`repro.verifyplan.updatebounds`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.transfer import copies_duration

__all__ = [
    "BoundCheck",
    "Traffic",
    "boundary_traffic",
    "fw_traffic",
    "johnson_traffic",
    "multi_traffic",
    "traffic_checks",
]

_ELEM = 4  # DIST_DTYPE is float32


@dataclass(frozen=True)
class BoundCheck:
    """One closed-form bound compared against the symbolic schedule."""

    name: str
    expected: float
    actual: float
    #: "exact" (==) or "at-most" (<=)
    mode: str = "exact"
    detail: str = ""

    @property
    def ok(self) -> bool:
        if self.mode == "exact":
            return self.actual == self.expected
        return self.actual <= self.expected

    def describe(self) -> str:
        rel = {"exact": "==", "at-most": "<="}[self.mode]
        status = "ok" if self.ok else "FAILED"
        return (
            f"{self.name}: actual {self.actual:g} {rel} expected "
            f"{self.expected:g} [{status}]"
            + (f" — {self.detail}" if self.detail else "")
        )


@dataclass(frozen=True)
class Traffic:
    """What one schedule moves over the bus."""

    bytes_h2d: int = 0
    bytes_d2h: int = 0
    num_h2d: int = 0
    num_d2h: int = 0
    #: row segments of the strided (``cudaMemcpy2D``-style) copies
    strided_rows: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_h2d + self.bytes_d2h

    def seconds(self, spec) -> float:
        """Bus time of the schedule's copies on ``spec``: the sum of
        :func:`~repro.gpu.transfer.copy_duration` over its contiguous
        copies and :func:`~repro.gpu.transfer.copy_duration_2d` over its
        strided ones."""
        return copies_duration(
            spec, self.total_bytes, self.num_h2d + self.num_d2h, self.strided_rows
        )


#: (check name suffix, record field) of every field the verifier checks
_CHECKED_FIELDS = (
    ("h2d-volume", "bytes_h2d"),
    ("d2h-volume", "bytes_d2h"),
    ("h2d-copies", "num_h2d"),
    ("d2h-copies", "num_d2h"),
    ("strided-rows", "strided_rows"),
)


def traffic_checks(
    prefix: str, traffic: Traffic, tally, detail: str = ""
) -> list[BoundCheck]:
    """One exact check per field of ``traffic`` against the IR ``tally``
    (a :class:`~repro.verifyplan.analyze.TransferTally`)."""
    return [
        BoundCheck(
            name=f"{prefix}-{suffix}",
            expected=getattr(traffic, field),
            actual=getattr(tally, field),
            detail=detail,
        )
        for suffix, field in _CHECKED_FIELDS
    ]


def fw_traffic(n: int, block_size: int, *, overlap: bool = True) -> Traffic:
    """Blocked FW on ``BlockLayout(n, block_size)``, ragged blocks and all.

    Per outer iteration ``k`` (``rest_k = n − b_k``, ``L = n_d − 1``):

    * stage 1 moves the diagonal block up and back: ``b_k²``;
    * stage 2 streams the ``2L`` row and column panels up and back:
      ``2·b_k·rest_k``;
    * stage 3 uploads the column panel once per block-row (``L`` copies,
      ``b_k·rest_k``), uploads and downloads every work block (``L²``
      copies each way, ``rest_k²``);
    * stage-3 **row uploads** depend on the double-buffer rotation: buffer
      ``p = t mod nbuf`` revisits column ``j = t mod L``, so the re-upload
      of ``A(k,j)`` is elided iff the buffer still holds ``j`` — which
      happens from step ``nbuf`` on exactly when ``nbuf ≡ 0 (mod L)``.
      Then only the first ``min(nbuf, L²)`` steps upload; otherwise every
      one of the ``L²`` steps does.

    Each iteration thus downloads every block once: ``n²`` elements in
    ``n_d²`` copies.
    """
    from repro.core.tiling import BlockLayout

    layout = BlockLayout(n, block_size)
    nd = layout.num_blocks
    sizes = [layout.size(i) for i in range(nd)]
    nbuf = 2 if overlap else 1
    L = nd - 1
    h2d = num_h2d = 0
    for k, bk in enumerate(sizes):
        rest = n - bk
        js = sizes[:k] + sizes[k + 1 :]
        row_steps = min(nbuf, L * L) if L and nbuf % L == 0 else L * L
        h2d += bk * bk + 3 * bk * rest + rest * rest
        h2d += bk * sum(js[t % L] for t in range(row_steps))
        num_h2d += 1 + 3 * L + L * L + row_steps
    return Traffic(
        bytes_h2d=h2d * _ELEM,
        bytes_d2h=nd * n * n * _ELEM,
        num_h2d=num_h2d,
        num_d2h=nd**3,
    )


def johnson_traffic(n: int, m: int, bat: int) -> Traffic:
    """Johnson with ``bat`` sources per batch: ``indptr`` uploads, then
    ``indices`` and ``weights`` when the graph has edges, and each batch
    downloads its rows once."""
    return Traffic(
        bytes_h2d=4 * (n + 1) + 8 * m,
        bytes_d2h=n * n * _ELEM,
        num_h2d=3 if m else 1,
        num_d2h=-(-n // bat),
    )


def _component_terms(plan) -> tuple[int, int]:
    """(Σ nᵢ², Σᵢ nᵢ·bᵢ) from the plan's partition arrays."""
    sizes = np.diff(np.asarray(plan.comp_start))
    return (
        int((sizes * sizes).sum()),
        int((sizes * np.asarray(plan.comp_boundary)).sum()),
    )


def boundary_traffic(plan, *, batch_transfers: bool = True) -> Traffic:
    """The boundary method's schedule for ``plan``: per component its
    dist2 block up and back and its C2B extract up, the boundary matrix
    up, one B2C extract up per block, and the step-4 output drains."""
    from repro.core.ooc_boundary import _flush_groups

    k = plan.num_components
    nb = plan.num_boundary
    n = int(plan.comp_start[-1])
    sq, mix = _component_terms(plan)
    if plan.runs_batched(batch_transfers):
        cap = plan.n_row * plan.max_component
        drains, rows = len(_flush_groups(plan.comp_start, k, cap)), 0
    else:
        drains, rows = k * k, k * n
    return Traffic(
        bytes_h2d=(sq + nb * nb + (k + 1) * mix) * _ELEM,
        bytes_d2h=(n * n + sq) * _ELEM,
        num_h2d=2 * k + 1 + k * k,
        num_d2h=k + drains,
        strided_rows=rows,
    )


def multi_traffic(plan, num_devices: int) -> Traffic:
    """The multi-GPU boundary schedule over ``num_devices`` devices, summed
    over the fleet: per component its dist2 block up and back, the
    boundary matrix up to device 0 and back closed, then up to every
    other device; per block-row its C2B extract and ``k`` B2C extracts up
    and its output strip back."""
    k = plan.num_components
    nb = plan.num_boundary
    n = int(plan.comp_start[-1])
    sq, mix = _component_terms(plan)
    return Traffic(
        bytes_h2d=(sq + num_devices * nb * nb + (k + 1) * mix) * _ELEM,
        bytes_d2h=(n * n + sq + nb * nb) * _ELEM,
        num_h2d=k + num_devices + k + k * k,
        num_d2h=k + 1 + k,
    )
