"""Static + dynamic verification of the JIT-compiled C kernels.

Submodules: :mod:`cparse` (restricted-C parser for the kernel
templates), :mod:`bounds` (symbolic affine bounds prover and abstract
interpreter), :mod:`alias` (alias-class derivation), :mod:`defects`
(seeded-bug registry), :mod:`sanitizers` (ASan/UBSan harness),
:mod:`matrixrun` (the instrumented-process kernel test matrix), and
:mod:`report` (the ``repro verify-kernels`` pipeline).
"""

from repro.verifykernel.bounds import Finding
from repro.verifykernel.defects import DEFECTS, SeededDefect
from repro.verifykernel.report import (
    SCHEMA_VERSION,
    DefectResult,
    KernelVerification,
    static_findings,
    verify_kernels,
)
from repro.verifykernel.sanitizers import (
    SanitizerRunResult,
    run_matrix,
    sanitizer_available,
)

__all__ = [
    "DEFECTS",
    "SCHEMA_VERSION",
    "DefectResult",
    "Finding",
    "KernelVerification",
    "SanitizerRunResult",
    "SeededDefect",
    "run_matrix",
    "sanitizer_available",
    "static_findings",
    "verify_kernels",
]
