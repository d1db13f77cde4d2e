"""Top-level verification pipeline: static proofs + sanitizer legs + defects.

:func:`verify_kernels` is what the CLI (``repro verify-kernels``) and the
autotuner consume. It composes:

- the **static pass** (:func:`static_findings`): affine bounds proofs
  and alias-class derivation per kernel — purely symbolic, no compiler
  needed;
- optional **sanitizer legs** (ASan/UBSan matrix replays), skipped with
  an honest record when the toolchain lacks a mode;
- the optional **seeded-defect cross-validation**: every defect in
  :data:`repro.verifykernel.defects.DEFECTS` must be flagged by the
  static pass *and* by its dynamic catcher — zero false negatives on
  the seeded suite, zero findings on clean kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backends.jit import KERNEL_TEMPLATES
from repro.verifykernel import cparse
from repro.verifykernel.alias import derive_alias_class
from repro.verifykernel.bounds import Finding, check_kernel_bounds
from repro.verifykernel.defects import DEFECTS, SeededDefect
from repro.verifykernel.sanitizers import SanitizerRunResult, run_matrix

__all__ = [
    "SCHEMA_VERSION",
    "DefectResult",
    "KernelVerification",
    "static_findings",
    "verify_kernels",
]

SCHEMA_VERSION = 1


def static_findings(overrides: dict[str, str] | None = None) -> list[Finding]:
    """Run the full static pass; returns every finding (empty = proven).

    ``overrides`` substitutes kernel template sources (seeded defects).
    """
    overrides = overrides or {}
    findings: list[Finding] = []
    for t in KERNEL_TEMPLATES:
        try:
            parsed = cparse.parse_kernel(overrides.get(t.name, t.source))
        except cparse.CParseError as exc:
            findings.append(Finding("parse", t.name, 0, str(exc)))
            continue
        analysis, bounds_findings = check_kernel_bounds(t, parsed)
        findings.extend(bounds_findings)
        findings.extend(derive_alias_class(analysis, t)[1])
    return findings


@dataclass
class DefectResult:
    """Cross-validation outcome for one seeded defect."""

    defect: SeededDefect
    static_caught: bool
    static_findings: list[Finding]
    dynamic: SanitizerRunResult | None  # None = leg unavailable, skipped
    ok: bool

    def to_dict(self) -> dict:
        return {
            "name": self.defect.name,
            "static_caught": self.static_caught,
            "static_findings": [f.to_dict() for f in self.static_findings],
            "dynamic": self.dynamic.to_dict() if self.dynamic else None,
            "dynamic_skipped": self.dynamic is None,
            "ok": self.ok,
        }


def _run_defect(defect: SeededDefect, *, fast: bool) -> DefectResult:
    overrides = defect.overrides({t.name: t for t in KERNEL_TEMPLATES})
    relevant = [f for f in static_findings(overrides) if f.check == defect.static_check]
    static_caught = bool(relevant)
    dynamic: SanitizerRunResult | None = run_matrix(
        defect.dynamic, overrides=overrides, fast=fast
    )
    if not dynamic.available:
        dynamic = None  # toolchain can't run the leg: skip, don't fail
    ok = static_caught and (dynamic is None or dynamic.caught)
    return DefectResult(defect, static_caught, relevant, dynamic, ok)


@dataclass
class KernelVerification:
    """Aggregated result of one ``verify-kernels`` run."""

    findings: list[Finding] = field(default_factory=list)
    sanitizers: list[SanitizerRunResult] = field(default_factory=list)
    defects: list[DefectResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        static_ok = not self.findings
        legs_ok = all(s.clean for s in self.sanitizers if s.ran)
        defects_ok = all(d.ok for d in self.defects)
        return static_ok and legs_ok and defects_ok

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "ok": self.ok,
            "kernels": [t.name for t in KERNEL_TEMPLATES],
            "findings": [f.to_dict() for f in self.findings],
            "sanitizers": [s.to_dict() for s in self.sanitizers],
            "defects": [d.to_dict() for d in self.defects],
        }


def verify_kernels(
    *,
    sanitize: tuple[str, ...] = (),
    defects: bool = False,
    fast: bool = True,
) -> KernelVerification:
    """Verify every shipped kernel flavor; see module docstring."""
    result = KernelVerification(findings=static_findings())
    for mode in sanitize:
        result.sanitizers.append(run_matrix(mode, fast=fast))
    if defects:
        for defect in DEFECTS:
            result.defects.append(_run_defect(defect, fast=fast))
    return result
