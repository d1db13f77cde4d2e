"""Min-plus (tropical) matrix multiplication.

The workhorse of both the blocked Floyd–Warshall algorithm (stages 2 and 3
of Algorithm 1) and the boundary algorithm's ``dist4`` step (Algorithm 3,
lines 16–17): ``C[i,j] = min(C[i,j], min_k A[i,k] + B[k,j])``.

The GPU implements this with shared-memory tiling [Katz & Kider]; on the
host the computation is dispatched through the kernel engine
(:mod:`repro.core.engine`), which runs the compiled C kernel, or the
original rank-1 numpy loop under ``REPRO_JIT=off`` or without a C
compiler — bit-identical on distance tiles, they differ only in
wall-clock speed; the engine splits a large product across cores. ``C``
must not share memory with ``A`` or ``B``; the engine rejects
overlapping operands. An explicit ``engine=`` argument overrides the
process-wide engine.

Dense distance tiles use **float32** throughout the library
(:data:`DIST_DTYPE`): the paper stores 4-byte ``int`` distances, and with
integer edge weights ≤ 100 every finite path length stays far below 2²⁴, so
float32 arithmetic is exact here while halving memory traffic. Operands of
other dtypes or layouts are coerced (or routed to the generic numpy path
for non-float32 accumulators) so a Fortran-ordered or float64 tile can't
silently change the result dtype or fall off the fast path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DIST_DTYPE", "minplus", "minplus_update", "minplus_ops"]

#: dtype of dense distance tiles (see module docstring)
DIST_DTYPE = np.float32


def minplus(a: np.ndarray, b: np.ndarray, *, engine=None) -> np.ndarray:
    """Return the min-plus product ``A ⊗ B`` (no accumulation)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} ⊗ {b.shape}")
    out = np.full((a.shape[0], b.shape[1]), np.inf, dtype=np.result_type(a, b))
    return minplus_update(out, a, b, engine=engine)


def minplus_update(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, *, engine=None
) -> np.ndarray:
    """In-place ``C = min(C, A ⊗ B)``; returns ``C``.

    ``inf + inf = inf`` in IEEE arithmetic, so unreachable entries propagate
    correctly without sentinel handling. ``engine`` overrides the
    process-wide default :class:`~repro.core.engine.KernelEngine`.
    """
    if engine is None:
        from repro.core.engine import default_engine

        engine = default_engine()
    return engine.update(c, a, b)


def minplus_ops(bi: int, bk: int, bj: int) -> int:
    """Scalar operation count of one product (2 ops per inner element)."""
    return 2 * bi * bk * bj
