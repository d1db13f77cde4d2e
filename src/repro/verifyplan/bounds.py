"""Closed-form transfer bounds from the paper, checked against the IR.

The paper derives the data-movement cost of each algorithm analytically
(Table I and Section III); the verifier recomputes each bound from the
plan parameters and compares it with the byte totals the symbolic
schedule actually moves:

* **blocked FW** — every block crosses the bus each outer iteration, so
  downloads are *exactly* ``n_d · n²`` elements (the per-``k`` download
  set tiles the full matrix: ``(b_k + Σ_{i≠k} b_i)(b_k + Σ_{j≠k} b_j) =
  n²`` even with a ragged last block); uploads are the paper's
  ``≈ (2·n_d − 1) · n²`` elements, computed exactly per block
  (:func:`fw_exact_h2d_bytes`);
* **Johnson** — the CSR graph uploads once (``4(n+1) + 8m`` bytes) and
  every output row downloads exactly once (``n²`` elements) in
  ``⌈n / bat⌉`` batches;
* **boundary** — downloads are ``n² + Σ nᵢ²`` elements (dist2 blocks plus
  the full dist4 output), uploads ``Σ nᵢ² + n_b² + Σᵢ nᵢbᵢ + k·Σⱼ bⱼnⱼ``
  elements, and with ``N_row`` batching the step-4 output drains in at
  most ``⌈k / N_row⌉`` flushes instead of ``k²`` per-block copies.

Each check is a :class:`BoundCheck`; ``mode`` selects exact equality or
an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundCheck",
    "boundary_bound_checks",
    "fw_bound_checks",
    "fw_exact_h2d_bytes",
    "johnson_bound_checks",
    "multi_bound_checks",
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


def fw_exact_h2d_bytes(block_sizes, *, overlap: bool = True) -> int:
    """Exact upload volume of the blocked-FW schedule, ragged blocks and all.

    Derived term by term from the driver's three stages (``n = Σ bᵢ``,
    ``rest_k = n − b_k``, ``L = n_d − 1``):

    * stage 1 uploads the diagonal block: ``b_k²``;
    * stage 2 streams the row and column panels: ``2·b_k·rest_k``;
    * stage 3 uploads the column panel once per block-row (``b_k·rest_k``)
      and every work block (``rest_k²``);
    * stage-3 **row uploads** depend on the double-buffer rotation: buffer
      ``p = t mod nbuf`` revisits column ``j = t mod L``, so the re-upload
      of ``A(k,j)`` is elided iff the buffer still holds ``j`` — which
      happens from step ``nbuf`` on exactly when ``nbuf ≡ 0 (mod L)``.
      Then only the first-occupancy steps upload
      (``Σ_{t < min(nbuf, L²)} b_k·b_{js[t mod L]}``); otherwise every one
      of the ``L²`` steps re-uploads (``L·b_k·rest_k``).

    Exact for any block-size list; matches the emitter/driver byte for
    byte.
    """
    sizes = [int(b) for b in block_sizes]
    n = sum(sizes)
    nd = len(sizes)
    nbuf = 2 if overlap else 1
    total = 0
    for k, bk in enumerate(sizes):
        rest = n - bk
        total += bk * bk  # stage 1: diagonal block
        total += 2 * bk * rest  # stage 2: row + column panels
        total += bk * rest  # stage 3: column-panel uploads (one per i)
        total += rest * rest  # stage 3: work-block uploads
        L = nd - 1
        if L > 0:
            js = [sizes[j] for j in range(nd) if j != k]
            if nbuf % L == 0:
                total += sum(bk * js[t % L] for t in range(min(nbuf, L * L)))
            else:
                total += L * bk * rest
    return total * _ELEM


def fw_bound_checks(
    block_sizes,
    bytes_h2d: int,
    bytes_d2h: int,
    *,
    overlap: bool = True,
) -> list[BoundCheck]:
    """Blocked FW: Table I's ``O(n_d · n²)`` movement, split by direction.

    ``block_sizes`` are the layout's per-block edge lengths; every check
    is exact, ragged tilings included.
    """
    n = sum(int(b) for b in block_sizes)
    d2h_expected = len(block_sizes) * n * n * _ELEM
    h2d_expected = fw_exact_h2d_bytes(block_sizes, overlap=overlap)
    return [
        BoundCheck(
            name="fw-d2h-volume",
            expected=d2h_expected,
            actual=bytes_d2h,
            mode="exact",
            detail="each outer iteration downloads every block exactly once",
        ),
        BoundCheck(
            name="fw-h2d-volume",
            expected=h2d_expected,
            actual=bytes_h2d,
            mode="exact",
            detail=(
                "exact ragged-tile upload volume (stage terms + the "
                "double-buffer row-reuse rule)"
            ),
        ),
        BoundCheck(
            name="fw-total-volume",
            expected=h2d_expected + d2h_expected,
            actual=bytes_h2d + bytes_d2h,
            mode="exact",
            detail="paper Table I: O(n_d · n²) total movement, exact form",
        ),
    ]


def johnson_bound_checks(
    n: int,
    m: int,
    bat: int,
    bytes_h2d: int,
    bytes_d2h: int,
    num_d2h: int,
) -> list[BoundCheck]:
    """Johnson: one CSR upload, one exact output-matrix download."""
    csr_bytes = 4 * (n + 1) + (8 * m if m else 0)
    return [
        BoundCheck(
            name="johnson-h2d-volume",
            expected=csr_bytes,
            actual=bytes_h2d,
            mode="exact",
            detail="the CSR graph uploads exactly once",
        ),
        BoundCheck(
            name="johnson-d2h-volume",
            expected=n * n * _ELEM,
            actual=bytes_d2h,
            mode="exact",
            detail="every output row downloads exactly once",
        ),
        BoundCheck(
            name="johnson-num-batches",
            expected=-(-n // bat),
            actual=num_d2h,
            mode="exact",
            detail="bat = (L − S)/(c·m) sources per MSSP launch, one download each",
        ),
    ]


def _component_terms(comp_start, comp_boundary) -> tuple[int, int, int]:
    """(Σ nᵢ², Σᵢ nᵢ·bᵢ, Σⱼ bⱼ·nⱼ) from the plan's partition arrays."""
    sizes = np.diff(np.asarray(comp_start))
    bnd = np.asarray(comp_boundary)
    sq = int((sizes * sizes).sum())
    nb_mix = int((sizes * bnd).sum())
    return sq, nb_mix, nb_mix


def boundary_bound_checks(
    plan,
    n: int,
    bytes_h2d: int,
    bytes_d2h: int,
    num_output_flushes: int,
    *,
    batched: bool,
) -> list[BoundCheck]:
    """Boundary algorithm: exact volumes plus the N_row batching bound."""
    k = plan.num_components
    nb = plan.num_boundary
    sq, c2b_elems, b2c_row = _component_terms(plan.comp_start, plan.comp_boundary)
    checks = [
        BoundCheck(
            name="boundary-d2h-volume",
            expected=(n * n + sq) * _ELEM,
            actual=bytes_d2h,
            mode="exact",
            detail="dist2 blocks (Σ nᵢ²) plus the full dist4 output (n²)",
        ),
        BoundCheck(
            name="boundary-h2d-volume",
            expected=(sq + nb * nb + c2b_elems + k * b2c_row) * _ELEM,
            actual=bytes_h2d,
            mode="exact",
            detail="components + boundary matrix + C2B/B2C extracts",
        ),
    ]
    if batched and plan.n_row >= 1:
        checks.append(
            BoundCheck(
                name="boundary-output-flushes",
                expected=-(-k // plan.n_row),
                actual=num_output_flushes,
                mode="at-most",
                detail=f"N_row={plan.n_row} block-rows per batched D2H flush",
            )
        )
    else:
        checks.append(
            BoundCheck(
                name="boundary-output-copies",
                expected=k * k,
                actual=num_output_flushes,
                mode="exact",
                detail="unbatched path: one strided copy per block",
            )
        )
    return checks


def multi_bound_checks(
    plan,
    n: int,
    num_devices: int,
    bytes_h2d: int,
    bytes_d2h: int,
) -> list[BoundCheck]:
    """Multi-GPU boundary: single-device volumes plus the broadcast cost."""
    k = plan.num_components
    nb = plan.num_boundary
    sq, c2b_elems, b2c_row = _component_terms(plan.comp_start, plan.comp_boundary)
    return [
        BoundCheck(
            name="multi-d2h-volume",
            expected=(n * n + sq + nb * nb) * _ELEM,
            actual=bytes_d2h,
            mode="exact",
            detail="dist2 + dist4 output + the closed boundary matrix staging back",
        ),
        BoundCheck(
            name="multi-h2d-volume",
            expected=(sq + num_devices * nb * nb + c2b_elems + k * b2c_row) * _ELEM,
            actual=bytes_h2d,
            mode="exact",
            detail="broadcast uploads the closed boundary matrix to every device",
        ),
    ]
