"""The numpy min-plus and FW tile kernels.

The two numeric primitives every APSP driver in this repository bottoms
out in, as the kernel engine (:class:`~repro.core.engine.KernelEngine`)
runs them when :func:`repro.core.backends.jit.compiled_kernels` returns
no compiled kernels (``REPRO_JIT=off``, or no C compiler):

* :func:`rank1_update` — the in-place min-plus accumulate
  ``C = min(C, A ⊗ B)`` (stages 2–3 of blocked FW, the boundary
  algorithm's ``dist4`` chain, dynamic decrease patches);
* :func:`numpy_fw_inplace` — the Floyd–Warshall closure of one square
  tile (stage 1 / diagonal blocks; the engine blocks anything larger
  than one closure block).

Operand contract (enforced by the engine, which coerces on the way in):
2-D :data:`~repro.core.minplus.DIST_DTYPE` arrays whose **last axis has
unit stride**, with ``C`` sharing no memory with ``A`` or ``B``. Row
strides may be arbitrary so disjoint tile *views* of one larger matrix
pass through without copies. Inputs are assumed free of
``-inf``/``NaN`` (the library's distance domain is ``[0, +inf]``), which
is what makes the all-``inf`` column fast path and the compiled kernels'
early-exit bit-identical to the plain formulation.

The compiled kernels must be **bit-identical** to these on that domain —
the cross-path equivalence suite (``tests/test_kernel_backends.py``)
enforces it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "finite_column_indices",
    "numpy_fw_inplace",
    "rank1_update",
]


def finite_column_indices(a: np.ndarray) -> np.ndarray | None:
    """Indices of columns of ``a`` that are *not* entirely ``+inf``.

    Returns ``None`` when every column holds at least one finite entry, so
    callers can keep the zero-overhead contiguous loop in the common case.
    A column that is all ``+inf`` contributes only ``inf + b[k, j] = inf``
    candidates, which can never lower ``C`` — skipping it is a pure win for
    the sparse/boundary tiles that dominate early out-of-core iterations.
    """
    if a.size == 0:
        return None
    dead = np.isposinf(a).all(axis=0)
    if not dead.any():
        return None
    return np.flatnonzero(~dead)


def rank1_update(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, *, skip_inf_columns: bool = True
) -> np.ndarray:
    """The reference formulation: ``k`` rank-1 broadcast min-updates.

    This is the profiled-fastest *plain numpy* formulation (see
    :mod:`repro.core.minplus`) and the semantics the compiled kernel must
    reproduce bit-for-bit. ``skip_inf_columns`` enables the all-``inf``
    column fast path; it never changes the result on the distance domain.
    """
    nk = a.shape[1]
    if skip_inf_columns and c.shape[1] >= 4:
        cols = finite_column_indices(a)
        if cols is not None:
            for k in cols:
                np.minimum(c, a[:, k : k + 1] + b[k : k + 1, :], out=c)
            return c
    for k in range(nk):
        np.minimum(c, a[:, k : k + 1] + b[k : k + 1, :], out=c)
    return c


def numpy_fw_inplace(dist: np.ndarray) -> np.ndarray:
    """Plain vectorised Floyd–Warshall, one rank-1 min-update per pivot."""
    for k in range(dist.shape[0]):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist
