"""Alias-tolerance derivation and parallel-disjointness proofs.

Three analyses on top of the bounds interpreter:

1. **Pivot-group classification** — derive, from the kernel body itself,
   which ``(c, a, b)`` alias patterns each min-plus kernel tolerates.
   The discriminator is the *pivot group width*: how many distinct
   ``k`` offsets of ``A`` a kernel reads per innermost update of ``C``.
   Width 1 means pivots are consumed strictly one at a time, preserving
   the per-row sequential-``k`` semantics under which row-aliased
   operands (``C==A``, ``C==B`` on the zero-diagonal distance domain)
   would stay exact. Width > 1 (the register-blocked kernel pre-loads a
   4-pivot group before writing) is only sound for disjoint operands —
   a pivot loaded before an aliased write would go stale. The derived
   class is cross-checked against the template's declared
   ``alias_class``; a mismatch is a finding on whichever side is wrong.

2. **OpenMP panel disjointness** — for every write region issued inside
   a ``parallel for`` frame over ``t``, prove no overlap with the same
   (or any sibling) region at iteration ``t + 1 + d`` for every
   ``d >= 0``. Adjacent panels ``[bj·t/threads, bj·(t+1)/threads)``
   share exactly their boundary, which the prover's same-denominator
   floor-division rule discharges; a widened panel breaks it.

3. **Call-site alias soundness** — every call site whose instantiated
   regions may overlap (written region vs a read region of the same
   array) must target a callee whose derived class tolerates that
   pattern (``k-sequential`` / ``inplace-fw``, never ``disjoint``).

Across the Python/C boundary the contract is simpler: the engine
rejects overlapping operands before any kernel runs
(:meth:`repro.core.engine.KernelEngine.update`), so every min-plus entry
point only ever sees disjoint ``C``, ``A`` and ``B``.
"""

from __future__ import annotations

from repro.verifykernel.bounds import (
    CallSite,
    Finding,
    KernelAnalysis,
    LoopSym,
    Poly,
    Region,
    Sym,
    _atom_poly,
    _substitute_atom,
    call_regions,
    decompose_offset,
    prove_ge0,
)

__all__ = [
    "check_call_aliasing",
    "check_parallel_disjointness",
    "derive_alias_class",
]

#: alias classes that tolerate overlapping operand regions
_TOLERANT = {"k-sequential", "inplace-fw"}


# ---------------------------------------------------------------------------
# 1. pivot-group classification
# ---------------------------------------------------------------------------
def derive_alias_class(analysis: KernelAnalysis, template) -> tuple[str, list[Finding]]:
    """Derive the alias tolerance of one kernel from its access pattern."""
    findings: list[Finding] = []
    arrays: dict[str, dict[str, str]] = template.arrays
    if not analysis.accesses and analysis.calls:
        # pure dispatcher: tolerance comes from per-call checks
        return "router", findings
    rw = [name for name, spec in arrays.items() if spec["mode"] != "r"]
    if len(arrays) == 1 and rw:
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
        if spec["mode"] != "r":
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


# ---------------------------------------------------------------------------
# 2. parallel panel disjointness
# ---------------------------------------------------------------------------
def _regions_of_call(
    call: CallSite, templates_by_name: dict, parsed_by_name: dict, caller_arrays, name
) -> list[Region]:
    tpl = templates_by_name.get(call.name)
    fn = parsed_by_name.get(call.name)
    if tpl is None or fn is None:
        return []
    regions, _ = call_regions(call, fn.params, tpl.arrays, caller_arrays, name)
    return [r for _, r in regions]


def check_parallel_disjointness(
    analysis: KernelAnalysis,
    template,
    templates_by_name: dict,
    parsed_by_name: dict,
) -> list[Finding]:
    """Prove pairwise-disjoint write sets across parallel loop iterations."""
    findings: list[Finding] = []
    # collect (parallel atom, written region, line) from calls and writes
    items: list[tuple[LoopSym, Region, int]] = []
    for call in analysis.calls:
        par = [f for f in call.frames if f.parallel]
        if not par:
            continue
        atom = par[-1].atom
        for region in _regions_of_call(
            call, templates_by_name, parsed_by_name, template.arrays, analysis.name
        ):
            if region.write:
                items.append((atom, region, call.line))
    for acc in analysis.accesses:
        par = [f for f in acc.frames if f.parallel]
        if not (par and acc.write):
            continue
        spec = template.arrays.get(acc.array)
        if spec is None:
            continue
        decomp = decompose_offset(acc.offset, spec["stride"])
        if decomp is None:
            continue
        row, col = decomp
        items.append(
            (par[-1].atom, Region(acc.array, row, row, col, col, True), acc.line)
        )
    for i, (atom, r1, line1) in enumerate(items):
        for atom2, r2, _line2 in items[i:]:
            if atom != atom2 or r1.array != r2.array:
                continue
            if not _disjoint_under_shift(r1, r2, atom):
                findings.append(
                    Finding(
                        "panels",
                        analysis.name,
                        line1,
                        f"cannot prove parallel iterations write disjoint "
                        f"regions of {r1.array!r} (panel overlap)",
                    )
                )
    return findings


def _disjoint_under_shift(r1: Region, r2: Region, atom: LoopSym) -> bool:
    """Regions at iterations ``t`` and ``t + 1 + d`` never overlap."""
    gap = _atom_poly(Sym(f"__shift_{atom.name}"))  # fresh nonnegative d
    shifted_t = _atom_poly(atom) + gap + 1

    def shift(p: Poly) -> Poly:
        return _substitute_atom(p, atom, shifted_t)

    # disjoint if row intervals or column intervals cannot meet, in
    # either order of the two iterations
    later_r2 = prove_ge0(shift(r2.row_lo) - r1.row_hi - 1) or prove_ge0(
        shift(r2.col_lo) - r1.col_hi - 1
    )
    later_r1 = prove_ge0(shift(r1.row_lo) - r2.row_hi - 1) or prove_ge0(
        shift(r1.col_lo) - r2.col_hi - 1
    )
    return later_r2 and later_r1


# ---------------------------------------------------------------------------
# 3. call-site alias soundness
# ---------------------------------------------------------------------------
def check_call_aliasing(
    analysis: KernelAnalysis,
    template,
    templates_by_name: dict,
    parsed_by_name: dict,
    derived_classes: dict[str, str],
) -> list[Finding]:
    """Overlapping call regions must target alias-tolerant callees."""
    findings: list[Finding] = []
    for call in analysis.calls:
        callee_class = derived_classes.get(call.name, "disjoint")
        regions = _regions_of_call(
            call, templates_by_name, parsed_by_name, template.arrays, analysis.name
        )
        written = [r for r in regions if r.write]
        read = [r for r in regions if not r.write]
        overlapping = False
        for w in written:
            for r in read:
                if w.array != r.array:
                    continue
                if w == r:
                    # the callee's own rw array seen through both modes
                    continue
                if not _rect_disjoint(w, r, call.facts):
                    overlapping = True
        if overlapping and callee_class not in _TOLERANT:
            findings.append(
                Finding(
                    "alias",
                    analysis.name,
                    call.line,
                    f"possibly-overlapping operand regions passed to "
                    f"{call.name!r}, which requires disjoint operands",
                )
            )
    return findings


def _rect_disjoint(a: Region, b: Region, facts: tuple[Poly, ...]) -> bool:
    """Same-iteration rectangles disjoint on the row or column axis."""
    return (
        prove_ge0(b.row_lo - a.row_hi - 1, facts)
        or prove_ge0(a.row_lo - b.row_hi - 1, facts)
        or prove_ge0(b.col_lo - a.col_hi - 1, facts)
        or prove_ge0(a.col_lo - b.col_hi - 1, facts)
    )
