"""Floyd–Warshall: the plain entry points and the blocked (tiled) closure.

The blocked scheme (Section II-A of the paper, after Venkataraman et al. and
Katz & Kider) runs, per pivot block ``[k0, k1)``:

1. close the diagonal block ``D = A(k,k)`` in place;
2. replace the row panels ``A(k,j)`` by ``D ⊗ A(k,j)`` and the column
   panels ``A(i,k)`` by ``A(i,k) ⊗ D``. One product suffices because the
   closed ``D`` already holds the multi-hop paths through the pivot
   block, and because ``D`` has a zero diagonal the fresh product is
   never above the panel it replaces (``D ⊗ T ≤ T``);
3. rank-update the four quadrants around the pivot cross,
   ``A(i,j) ⊦ A(i,k) ⊗ A(k,j)``.

This is the Kleene form of blocked FW: every product has disjoint
operands, so one kernel serves all of them. It needs a zero diagonal,
which every distance matrix in the library has, and on integer weights
whose finite path sums stay below 2²⁴ it is bit-identical to the plain
pivot loop. The out-of-core driver (:mod:`repro.core.ooc_fw`) applies
the same three stages to device-resident tiles. All numeric work goes
through the kernel engine (:mod:`repro.core.engine`), whose
``fw_inplace`` runs this closure for every matrix larger than one
closure block.
"""

from __future__ import annotations

import numpy as np

__all__ = ["floyd_warshall", "floyd_warshall_inplace", "blocked_floyd_warshall", "fw_ops"]


def _engine(engine):
    if engine is None:
        from repro.core.engine import default_engine

        return default_engine()
    return engine


def floyd_warshall_inplace(dist: np.ndarray, *, engine=None) -> np.ndarray:
    """FW closure of a square matrix with a zero diagonal, in place."""
    return _engine(engine).fw_inplace(dist)


def floyd_warshall(weights: np.ndarray, *, engine=None) -> np.ndarray:
    """FW on a copy; input is a dense weight matrix (inf = no edge)."""
    dist = np.array(weights, copy=True)
    np.fill_diagonal(dist, np.minimum(np.diag(dist), 0.0))
    return floyd_warshall_inplace(dist, engine=engine)


def blocked_floyd_warshall(dist: np.ndarray, block_size: int, *, engine=None) -> np.ndarray:
    """Blocked FW in place on a host matrix with a zero diagonal; returns
    ``dist``.

    Bit-identical to the plain pivot loop on the library's integer-weight
    domain for every block size (property-tested).
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("dist must be square")
    if block_size < 1:
        raise ValueError("block_size must be positive")
    eng = _engine(engine)
    for k0 in range(0, n, block_size):
        k1 = min(k0 + block_size, n)
        pivot = slice(k0, k1)
        sides = (slice(0, k0), slice(k1, n))
        diag = dist[pivot, pivot]
        eng.fw_inplace(diag)
        for side in sides:
            dist[pivot, side] = eng.minplus(diag, dist[pivot, side])
            dist[side, pivot] = eng.minplus(dist[side, pivot], diag)
        for rows in sides:
            for cols in sides:
                eng.update(dist[rows, cols], dist[rows, pivot], dist[pivot, cols])
    return dist


def fw_ops(n: int) -> int:
    """Scalar operation count of FW on ``n`` vertices (2 per inner iter)."""
    return 2 * n**3
