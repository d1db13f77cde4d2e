"""Alias-tolerance derivation for the JIT kernel templates.

**Pivot-group classification** derives, from the kernel body itself,
which ``(c, a, b)`` alias patterns each min-plus kernel tolerates. The
discriminator is the *pivot group width*: how many distinct ``k``
offsets of ``A`` a kernel reads per innermost update of ``C``. Width 1
means pivots are consumed strictly one at a time, preserving the
per-row sequential-``k`` semantics under which row-aliased operands
(``C==A``, ``C==B`` on the zero-diagonal distance domain) would stay
exact. Width > 1 (the register-blocked kernel pre-loads a 4-pivot group
before writing) is only sound for disjoint operands — a pivot loaded
before an aliased write would go stale. The derived class is
cross-checked against the template's declared ``alias_class``; a
mismatch is a finding on whichever side is wrong.

A kernel whose subscripts depend on array data (a gather or scatter
through a value read from another array, such as ``dist[r * n +
indices[e]]``) leaves no region of any array statically known, so no
overlap between two of its arrays is tolerable: its class is
``"distinct"``, checked before the pivot-width classifier, which would
otherwise misread such a kernel's reads as pivot groups.

Across the Python/C boundary the contract is simpler: the engine
rejects overlapping operands before any kernel runs
(:meth:`repro.core.engine.KernelEngine.update`), so every min-plus entry
point only ever sees disjoint ``C``, ``A`` and ``B``; the batched
Near-Far glue allocates every array its kernel writes.
"""

from __future__ import annotations

from repro.verifykernel.bounds import (
    Finding,
    KernelAnalysis,
    LoopSym,
    Poly,
    ValSym,
    decompose_offset,
)

__all__ = ["derive_alias_class"]


def derive_alias_class(analysis: KernelAnalysis, template) -> tuple[str, list[Finding]]:
    """Derive the alias tolerance of one kernel from its access pattern."""
    findings: list[Finding] = []
    arrays: dict[str, dict[str, str]] = template.arrays
    rw = [name for name, spec in arrays.items() if spec["mode"] != "r"]
    if any(isinstance(a, ValSym) for acc in analysis.accesses for a in acc.offset.atoms()):
        derived = "distinct"
    elif len(arrays) == 1 and rw:
        derived = _classify_inplace(analysis, rw[0], arrays[rw[0]]["stride"])
    else:
        derived = _classify_minplus(analysis, arrays)
    if derived != template.alias_class:
        findings.append(
            Finding(
                "alias",
                analysis.name,
                analysis.fn.line,
                f"derived alias class {derived!r} contradicts declared "
                f"{template.alias_class!r}",
            )
        )
    return derived, findings


def _classify_minplus(
    analysis: KernelAnalysis, arrays: dict[str, dict[str, str]]
) -> str:
    """Width of the widest pivot group read from ``a`` per loop instance."""
    width = 1
    for name, spec in arrays.items():
        if spec["mode"] != "r" or "stride" not in spec:
            continue
        per_loop: dict[LoopSym, set[Poly]] = {}
        for acc in analysis.accesses:
            if acc.array != name or acc.write:
                continue
            decomp = decompose_offset(acc.offset, spec["stride"])
            if decomp is None:
                continue
            row, col = decomp
            for part in (row, col):
                for atom in part.atoms():
                    if isinstance(atom, LoopSym):
                        per_loop.setdefault(atom, set()).add(part)
        for exprs in per_loop.values():
            width = max(width, len(exprs))
    return "disjoint" if width > 1 else "k-sequential"


def _classify_inplace(analysis: KernelAnalysis, array: str, stride: str) -> str:
    """In-place FW shape: the outermost (pivot) loop indexes reads on both
    the row and the column axis while never indexing write rows."""
    pivot_rows = False
    pivot_cols = False
    write_rows_clean = True
    for acc in analysis.accesses:
        if acc.array != array or not acc.frames:
            continue
        pivot = acc.frames[0].atom
        decomp = decompose_offset(acc.offset, stride)
        if decomp is None:
            continue
        row, col = decomp
        if acc.write:
            if row.contains(pivot):
                write_rows_clean = False
        else:
            pivot_rows = pivot_rows or row.contains(pivot)
            pivot_cols = pivot_cols or col.contains(pivot)
    if pivot_rows and pivot_cols and write_rows_clean:
        return "inplace-fw"
    return "disjoint"
