"""Boundary refinement: greedy Kernighan–Lin-style vertex moves.

Given a k-way labelling, repeatedly move boundary vertices to the
neighbouring part with the largest cut-reduction *gain*, subject to a
balance constraint on weighted part sizes. This is the uncoarsening-phase
refinement of the multilevel scheme (METIS calls it greedy k-way
refinement); a few passes per level recover most of the cut quality of a
full FM implementation at a fraction of the complexity.

Each pass makes one draw, ``rng.permutation(boundary)``, the visit order
of that pass's boundary vertices (sources of cut out-edges, ascending).
A vertex's connectivity to each part sums its out-edge strengths in CSR
order; it moves to the part of largest connectivity among the parts with
room, the *first in part order* on ties, and only for a positive gain.
The loop walks memoryviews of the CSR arrays with plain Python scalars.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph

__all__ = ["refine_partition", "edge_cut"]


def edge_cut(graph: CSRGraph, labels: np.ndarray) -> float:
    """Total strength of edges crossing parts (each direction counted once)."""
    src, dst, w = graph.edge_array()
    return float(w[labels[src] != labels[dst]].sum())


def refine_partition(
    graph: CSRGraph,
    labels: np.ndarray,
    num_parts: int,
    *,
    vertex_weight: np.ndarray | None = None,
    balance_tol: float = 1.10,
    max_passes: int = 4,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Refine ``labels`` in place-ish (returns a new array).

    A move of vertex ``v`` from part ``a`` to ``b`` has gain
    ``conn(v, b) − conn(v, a)`` where ``conn`` sums strengths of ``v``'s
    edges into a part. Moves must keep every part's weight at most
    ``balance_tol · (total/num_parts)`` and no part may be emptied.
    """
    labels = np.asarray(labels, dtype=np.int64).copy()
    n = graph.num_vertices
    if vertex_weight is None:
        vertex_weight = np.ones(n)
    if rng is None:
        rng = np.random.default_rng(0)
    part_weight = np.bincount(labels, weights=vertex_weight, minlength=num_parts).tolist()
    max_weight = float(balance_tol * vertex_weight.sum() / num_parts)
    part_count = np.bincount(labels, minlength=num_parts).tolist()

    src, dst, _ = graph.edge_array()
    label = memoryview(labels)
    vw = memoryview(np.ascontiguousarray(vertex_weight))
    indptr, indices, weights = map(memoryview, (graph.indptr, graph.indices, graph.weights))

    for _pass in range(max_passes):
        moved = 0
        boundary = np.unique(src[labels[src] != labels[dst]])
        if boundary.size == 0:
            break
        for v in memoryview(rng.permutation(boundary)):
            a = label[v]
            if part_count[a] <= 1:
                continue
            conn: dict[int, float] = {}
            for e in range(indptr[v], indptr[v + 1]):
                p = label[indices[e]]
                conn[p] = conn.get(p, 0.0) + weights[e]
            # the best part with room: only a neighbour part can gain
            w_v = vw[v]
            b, conn_b = -1, -np.inf
            for p, c in conn.items():
                if (
                    p != a
                    and (c > conn_b or (c == conn_b and p < b))
                    and part_weight[p] + w_v <= max_weight
                ):
                    b, conn_b = p, c
            if b >= 0 and conn_b - conn.get(a, 0.0) > 0:
                label[v] = b
                part_weight[a] -= w_v
                part_weight[b] += w_v
                part_count[a] -= 1
                part_count[b] += 1
                moved += 1
        if moved == 0:
            break
    return labels
