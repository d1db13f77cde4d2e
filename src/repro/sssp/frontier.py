"""Vectorised worklist primitives shared by the SSSP implementations.

These are the numpy equivalents of the GPU kernels' data-parallel steps:
:func:`expand_frontier` gathers the out-edges of every frontier vertex
(the coalesced edge-list walk; :func:`edge_positions` is the same walk
as CSR positions plus per-vertex degrees) and :func:`scatter_min`
performs the ``atomicMin`` reduction into the distance array. ``scatter_min`` first
drops the candidates that cannot beat their target, then groups the rest
with an unstable sort and reduces each group with ``np.minimum.reduceat``
— the semantics of ``np.minimum.at``, an order of magnitude faster at the
batch sizes Johnson's algorithm produces. A minimum does not depend on
the order of its operands, so sort stability would buy nothing.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph

__all__ = ["edge_positions", "expand_frontier", "scatter_min", "segmented_arange", "suggest_delta"]


def segmented_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]-1, 0..counts[1]-1, ...]`` without a Python loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def edge_positions(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of all out-edges of ``vertices``.

    Returns ``(deg, pos)`` — ``deg[i]`` is the out-degree of
    ``vertices[i]`` and ``pos`` lists the edge positions vertex by vertex,
    in input order, so ``np.repeat(state, deg)`` lines per-vertex state up
    with ``graph.indices[pos]``.
    """
    lo = graph.indptr[vertices]
    deg = graph.indptr[vertices + 1] - lo
    ends = np.cumsum(deg)
    # edge j of vertex i sits at lo[i] + j, and at output slot ends[i] - deg[i] + j
    pos = np.repeat(lo - (ends - deg), deg)
    pos += np.arange(pos.size, dtype=np.int64)
    return deg, pos


def expand_frontier(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather all out-edges of ``vertices``.

    Returns ``(tails, heads, weights)`` — ``tails[i]`` is the *position in
    the input array* (not the vertex id) owning edge ``i``, so callers can
    map edges back to per-frontier-entry state (e.g. the source row in a
    batched MSSP).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    deg, pos = edge_positions(graph, vertices)
    tails = np.repeat(np.arange(vertices.size, dtype=np.int64), deg)
    return tails, graph.indices[pos], graph.weights[pos]


def scatter_min(
    target: np.ndarray, idx: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``target[idx] = min(target[idx], vals)`` with duplicate indices.

    Returns ``(improved_idx, improved_vals)`` — the positions whose value
    strictly decreased, unique and in ascending order, with their new
    values. This is the vectorised ``atomicMin`` + "did I win" check of the
    GPU relax kernel. A NaN candidate never wins (NaN compares false), so
    callers must keep NaN out of their inputs.
    """
    hits = np.flatnonzero(vals < target[idx])
    idx = idx[hits]
    vals = vals[hits]
    if idx.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=target.dtype)
    order = np.argsort(idx)
    idx_s = idx[order]
    first = np.ones(idx_s.size, dtype=bool)
    first[1:] = idx_s[1:] != idx_s[:-1]
    starts = np.flatnonzero(first)
    winners = idx_s[starts]
    reduced = np.minimum.reduceat(vals[order], starts)
    target[winners] = reduced
    return winners, reduced


def suggest_delta(graph: CSRGraph) -> float:
    """Heuristic Δ for Near-Far / delta-stepping: mean edge weight.

    Davidson et al. recommend Δ near the average weight divided by the
    average degree for dense frontiers; the paper does not report its Δ, and
    the mean weight is a robust default across our graph families (tests
    sweep Δ to confirm correctness is Δ-independent).
    """
    if graph.num_edges == 0:
        return 1.0
    mean_w = float(graph.weights.mean())
    avg_deg = graph.num_edges / max(1, graph.num_vertices)
    return max(mean_w / max(1.0, np.sqrt(avg_deg)), 1e-6)
