"""Backend interface and shared numpy building blocks.

A :class:`KernelBackend` implements the two numeric primitives every APSP
driver in this repository bottoms out in:

* :meth:`KernelBackend.update` — the in-place min-plus accumulate
  ``C = min(C, A ⊗ B)`` (stages 2–3 of blocked FW, the boundary
  algorithm's ``dist4`` chain, dynamic decrease patches);
* :meth:`KernelBackend.fw_inplace` — the Floyd–Warshall closure of one
  square tile (stage 1 / diagonal blocks; the engine blocks anything
  larger than one closure block).

Operand contract (enforced by :class:`~repro.core.engine.KernelEngine`,
which coerces on the way in): 2-D :data:`~repro.core.minplus.DIST_DTYPE`
arrays whose **last axis has unit stride**, with ``C`` sharing no memory
with ``A`` or ``B``. Row strides may be arbitrary so disjoint tile *views*
of one larger matrix pass through without copies. Inputs are
assumed free of ``-inf``/``NaN`` (the library's distance domain is
``[0, +inf]``), which is what makes the all-``inf`` column fast path and
the compiled kernels' early-exit bit-identical to the plain formulation.

Backends must be **bit-identical** to :func:`rank1_update` on that domain —
the cross-backend equivalence suite (``tests/test_kernel_backends.py``)
enforces it on every registered backend.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "INT32_INF",
    "KernelBackend",
    "finite_column_indices",
    "int32_rank1_update",
    "numpy_fw_inplace",
    "rank1_update",
]

#: sentinel playing the role of ``+inf`` in the int32 semiring
INT32_INF = np.int32(np.iinfo(np.int32).max)


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
    :mod:`repro.core.minplus`) and the semantics every other backend must
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


def int32_rank1_update(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference int32 min-plus: :data:`INT32_INF` sentinel, saturating add.

    The numpy oracle the compiled int32 kernels must match **exactly** —
    the semiring is integral, so there is no tolerance: sums go through
    int64 and clamp to the sentinel instead of wrapping.
    """
    for k in range(a.shape[1]):
        wide = a[:, k : k + 1].astype(np.int64) + b[k : k + 1, :].astype(np.int64)
        cand = np.minimum(wide, np.int64(INT32_INF)).astype(np.int32)
        np.minimum(c, cand, out=c)
    return c


def numpy_fw_inplace(dist: np.ndarray) -> np.ndarray:
    """Plain vectorised Floyd–Warshall, one rank-1 min-update per pivot."""
    for k in range(dist.shape[0]):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist


class KernelBackend(abc.ABC):
    """One interchangeable implementation of the min-plus/FW-tile kernels.

    Subclasses set :attr:`name` (the registry key) and :attr:`summary` (one
    line for benchmark tables) and implement :meth:`update`. The default
    :meth:`fw_inplace` is the numpy pivot loop; compiled backends override
    it with a fused kernel.
    """

    #: registry key (``REPRO_KERNEL_BACKEND`` value)
    name: str = "?"
    #: one-line description shown by ``python -m repro bench-kernels``
    summary: str = ""

    @property
    def flavor(self) -> str:
        """The concrete implementation in use (differs from :attr:`name`
        only for backends with internal fallbacks, e.g. ``jit``)."""
        return self.name

    @abc.abstractmethod
    def update(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """In-place ``C = min(C, A ⊗ B)``; returns ``C``."""

    def fw_inplace(self, dist: np.ndarray) -> np.ndarray:
        """Floyd–Warshall closure of a square tile, in place."""
        return numpy_fw_inplace(dist)

    def update_i32(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact int32 semiring update (:data:`INT32_INF` = ``+inf``).

        Default is the numpy oracle; compiled backends override with a
        saturating C kernel. Must match :func:`int32_rank1_update`
        bit-for-bit (the semiring is integral — no tolerance).
        """
        return int32_rank1_update(c, a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flavor = f" ({self.flavor})" if self.flavor != self.name else ""
        return f"<{type(self).__name__} {self.name!r}{flavor}>"
