"""The repo lint pass (:mod:`repro.sanitize.lint`).

An AST checker for repository-specific contracts (engine-bypassing
min-plus, float64 operands at engine call sites, wall-clock timing in
benchmarks, mutable default arguments, missing ``__all__``, undeclared
FFI contracts, dead event records, stale solved-state mutation). Run
with ``python -m repro lint``; see ``docs/STATIC_ANALYSIS.md``.

Schedules are proven race-free statically, by
:mod:`repro.verifyplan` (``python -m repro verify-plan``).
"""

from repro.sanitize.lint import Violation, format_violations, lint_file, lint_paths

__all__ = [
    "Violation",
    "format_violations",
    "lint_file",
    "lint_paths",
]
