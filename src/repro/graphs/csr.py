"""Weighted directed graph in compressed sparse row (CSR) form.

The CSR layout is the one the paper's GPU kernels consume: an ``indptr``
array of length ``n + 1``, an ``indices`` array of the out-neighbour ids, and
a parallel ``weights`` array. All APSP code in :mod:`repro.core` and all SSSP
code in :mod:`repro.sssp` operate directly on these three arrays.

Distances use ``float64`` with ``numpy.inf`` for "no path" throughout the
library (the paper uses ``int`` + ``atomicMin`` on the GPU; with vectorised
numpy there is no atomicity concern and floats avoid sentinel arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["CSRGraph"]


def _check_not_nan(weights: np.ndarray) -> None:
    # ``weights.min() < 0`` is False for NaN, so NaN needs its own check
    if np.isnan(weights).any():
        raise ValueError("edge weights must not be NaN")


@dataclass(frozen=True)
class CSRGraph:
    """An immutable weighted directed graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of shape ``(n + 1,)``; row ``u``'s out-edges live at
        ``indices[indptr[u]:indptr[u + 1]]``.
    indices:
        ``int64`` array of the head vertex of each edge.
    weights:
        ``float64`` array of non-negative edge weights, parallel to
        ``indices``.
    name:
        Optional label used by the benchmark harness and ``repr``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if indptr.ndim != 1 or indices.ndim != 1 or weights.ndim != 1:
            raise ValueError("indptr, indices, weights must be 1-D arrays")
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if indices.shape != weights.shape:
            raise ValueError("indices and weights must have the same length")
        if indptr[-1] != indices.size:
            raise ValueError("indptr[-1] must equal the number of edges")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("edge head out of range")
        _check_not_nan(weights)
        if weights.size and weights.min() < 0:
            raise ValueError("edge weights must be non-negative")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", weights)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return self.indices.size

    @property
    def density(self) -> float:
        """``m / n²`` — the paper's density measure (Section IV-C)."""
        n = self.num_vertices
        return self.num_edges / float(n * n) if n else 0.0

    def out_degree(self, u: int | None = None) -> np.ndarray | int:
        """Out-degree of vertex ``u``, or the full degree array if ``None``."""
        if u is None:
            return np.diff(self.indptr)
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of (head vertices, weights) of ``u``'s out-edges."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, weight)`` arrays in CSR order."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr))
        return src, self.indices.copy(), self.weights.copy()

    @property
    def nbytes(self) -> int:
        """Bytes needed to hold the CSR arrays (the paper's graph size ``S``)."""
        return self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
        *,
        name: str = "",
        dedupe: str = "min",
    ) -> "CSRGraph":
        """Build a graph from parallel edge arrays.

        Duplicate ``(src, dst)`` pairs are merged; ``dedupe`` selects the kept
        weight (``"min"``, ``"first"``, or ``"sum"``). Self-loops are dropped
        (they never participate in a shortest path with non-negative
        weights).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (src.shape == dst.shape == weights.shape):
            raise ValueError("src, dst, weights must have equal length")
        # before dedupe and self-loop removal can drop a NaN silently
        _check_not_nan(weights)
        if src.size:
            if src.min() < 0 or src.max() >= num_vertices:
                raise ValueError("src vertex out of range")
            if dst.min() < 0 or dst.max() >= num_vertices:
                raise ValueError("dst vertex out of range")
        keep = src != dst
        src, dst, weights = src[keep], dst[keep], weights[keep]

        if src.size:
            key = src * np.int64(num_vertices) + dst
            if dedupe == "min":
                order = np.lexsort((weights, key))
            else:
                order = np.argsort(key, kind="stable")
            key, src, dst, weights = key[order], src[order], dst[order], weights[order]
            first = np.ones(key.size, dtype=bool)
            first[1:] = key[1:] != key[:-1]
            if dedupe == "sum":
                group = np.cumsum(first) - 1
                weights = np.bincount(group, weights=weights)
                src, dst = src[first], dst[first]
            else:
                src, dst, weights = src[first], dst[first], weights[first]

        counts = np.bincount(src, minlength=num_vertices) if src.size else np.zeros(num_vertices, dtype=np.int64)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst, weights, name=name)

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix | sp.sparray, *, name: str = "") -> "CSRGraph":
        """Build from any scipy sparse matrix (converted to CSR)."""
        csr = sp.csr_matrix(mat)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError("adjacency matrix must be square")
        csr.sort_indices()
        src = np.repeat(np.arange(csr.shape[0], dtype=np.int64), np.diff(csr.indptr))
        return cls.from_edges(
            csr.shape[0], src, csr.indices.astype(np.int64), np.abs(csr.data), name=name
        )

    def to_scipy(self) -> sp.csr_matrix:
        """Convert to a ``scipy.sparse.csr_matrix`` (weights as data)."""
        n = self.num_vertices
        return sp.csr_matrix((self.weights, self.indices, self.indptr), shape=(n, n))

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        """Dense weight matrix with ``inf`` off-edges and ``0`` diagonal.

        This is the initial ``dist`` matrix of the Floyd–Warshall family.
        """
        n = self.num_vertices
        dist = np.full((n, n), np.inf, dtype=dtype)
        src, dst, w = self.edge_array()
        # CSRGraph dedupes to the min weight already, but parallel edges can
        # still reach here via subgraph extraction; keep the min defensively.
        np.minimum.at(dist, (src, dst), w)
        np.fill_diagonal(dist, 0.0)
        return dist

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """Graph with every edge reversed."""
        src, dst, w = self.edge_array()
        return CSRGraph.from_edges(self.num_vertices, dst, src, w, name=self.name)

    def symmetrize(self) -> "CSRGraph":
        """Union of the graph and its reverse (min weight on duplicates)."""
        src, dst, w = self.edge_array()
        return CSRGraph.from_edges(
            self.num_vertices,
            np.concatenate([src, dst]),
            np.concatenate([dst, src]),
            np.concatenate([w, w]),
            name=self.name,
        )

    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices: new id of old vertex ``v`` is ``perm[v]``.

        The boundary algorithm uses this to make each component contiguous
        with its boundary vertices first (Figure 1 of the paper).
        """
        perm = np.asarray(perm, dtype=np.int64)
        n = self.num_vertices
        if perm.shape != (n,) or np.sort(perm).tolist() != list(range(n)):
            raise ValueError("perm must be a permutation of range(n)")
        src, dst, w = self.edge_array()
        return CSRGraph.from_edges(n, perm[src], perm[dst], w, name=self.name)

    def subgraph(self, vertices: np.ndarray) -> "CSRGraph":
        """Induced subgraph; vertex ``vertices[i]`` becomes vertex ``i``."""
        vertices = np.asarray(vertices, dtype=np.int64)
        n = self.num_vertices
        local = np.full(n, -1, dtype=np.int64)
        local[vertices] = np.arange(vertices.size)
        src, dst, w = self.edge_array()
        keep = (local[src] >= 0) & (local[dst] >= 0)
        return CSRGraph.from_edges(
            vertices.size, local[src[keep]], local[dst[keep]], w[keep], name=self.name
        )

    def with_name(self, name: str) -> "CSRGraph":
        """Copy of the graph carrying a new label."""
        return CSRGraph(self.indptr, self.indices, self.weights, name=name)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"CSRGraph({label} n={self.num_vertices} m={self.num_edges} "
            f"density={self.density:.4%})"
        )
