"""Graph coarsening by heavy-edge matching.

Each coarsening level matches vertices with their heaviest-connectivity
unmatched neighbour and contracts matched pairs. Vertex weights accumulate
(so balance on the coarse graph reflects fine-graph sizes) and parallel
edges merge with summed connectivity. Edge *weights* here are connectivity
strengths for the partitioner, not shortest-path lengths — the partitioner
treats every input edge as strength 1, the standard choice for minimising
the boundary-vertex count.

A matching is fixed by one draw, ``rng.permutation(n)`` (the visit
order), and one tie-break: a vertex takes the *first strictly heavier*
unmatched neighbour in CSR order, so among equal strengths the earliest
edge wins. The greedy loop walks memoryviews of the CSR arrays with plain
Python scalars; contraction is vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph

__all__ = ["CoarseLevel", "coarsen_graph", "heavy_edge_matching"]


@dataclass(frozen=True)
class CoarseLevel:
    """One level of the coarsening hierarchy."""

    graph: CSRGraph  # coarse graph (edge weights = connectivity strengths)
    vertex_weight: np.ndarray  # fine vertices contained in each coarse vertex
    fine_to_coarse: np.ndarray  # map from the previous level's vertices


def heavy_edge_matching(
    graph: CSRGraph, *, rng: np.random.Generator
) -> np.ndarray:
    """Greedy heavy-edge matching; returns ``match[v]`` (= v if unmatched).

    Vertices are visited in random order; each unmatched vertex matches its
    heaviest-strength unmatched neighbour.
    """
    n = graph.num_vertices
    match = np.arange(n, dtype=np.int64)
    mate = memoryview(match)
    matched = bytearray(n)
    indptr, indices, weights = map(memoryview, (graph.indptr, graph.indices, graph.weights))
    for u in memoryview(rng.permutation(n)):
        if matched[u]:
            continue
        best = -1
        best_w = -np.inf
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            if v != u and not matched[v] and weights[e] > best_w:
                best = v
                best_w = weights[e]
        if best >= 0:
            mate[u] = best
            mate[best] = u
            matched[u] = matched[best] = 1
    return match


def coarsen_graph(
    graph: CSRGraph,
    vertex_weight: np.ndarray,
    *,
    rng: np.random.Generator,
) -> CoarseLevel:
    """Contract a heavy-edge matching into a coarser graph."""
    n = graph.num_vertices
    match = heavy_edge_matching(graph, rng=rng)

    # Assign coarse ids: the lower endpoint of each pair owns the id.
    owner = np.minimum(np.arange(n), match)
    is_owner = owner == np.arange(n)
    coarse_id = np.cumsum(is_owner) - 1
    fine_to_coarse = coarse_id[owner]

    nc = int(is_owner.sum())
    cw = np.bincount(fine_to_coarse, weights=vertex_weight, minlength=nc)

    src, dst, w = graph.edge_array()
    cs, cd = fine_to_coarse[src], fine_to_coarse[dst]
    keep = cs != cd  # drop edges internal to a contracted pair
    coarse = CSRGraph.from_edges(nc, cs[keep], cd[keep], w[keep], dedupe="sum")
    return CoarseLevel(graph=coarse, vertex_weight=cw, fine_to_coarse=fine_to_coarse)
