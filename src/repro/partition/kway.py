"""Multilevel k-way partitioner.

``partition_kway(graph, k)`` is the METIS_PartGraphKway stand-in the
boundary algorithm calls (Algorithm 3, step 1): coarsen by heavy-edge
matching, partition the coarsest graph by greedy region growing from
spread-out seeds, then uncoarsen with boundary refinement at every level.

Directed inputs are symmetrised for partitioning (cut direction is
irrelevant to the boundary-vertex definition) and connectivity strengths are
uniform, which minimises the *number* of cut edges — a proxy for the number
of boundary vertices the paper's algorithm cares about.

Labels depend on the graph, ``k`` and the seed alone. One generator makes
every draw, in this order: a ``permutation`` of each level's vertices as it
is coarsened; ``integers(n)`` for the first seed and, for a later seed, a
``choice`` of an unseeded vertex only when every vertex the seeds reach is a
seed; a ``permutation(k)`` per round of region growing; and a
``permutation`` of the boundary per refinement pass, coarsest level first.
Ties go to the lower id: the next seed is the farthest vertex in hops; a
part grows its frontier in labelling order, neighbours in CSR order; an
unreached vertex joins the lightest part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.partition.coarsen import CoarseLevel, coarsen_graph
from repro.partition.refine import edge_cut, refine_partition

__all__ = ["PartitionResult", "partition_kway"]


@dataclass(frozen=True)
class PartitionResult:
    """A k-way partition and its quality measures."""

    labels: np.ndarray  # part id per vertex, in [0, num_parts)
    num_parts: int
    edge_cut: float
    part_sizes: np.ndarray

    @property
    def imbalance(self) -> float:
        """max part size / ideal part size."""
        ideal = self.part_sizes.mean()
        return float(self.part_sizes.max() / ideal) if ideal else 1.0


def _spread_seeds(graph: CSRGraph, k: int, rng: np.random.Generator) -> np.ndarray:
    """k seeds chosen by repeated farthest-point BFS (hop distance)."""
    # imported here: at module load scipy.sparse.csgraph would add ~9 MB RSS
    from scipy.sparse.csgraph import shortest_path

    adjacency = graph.to_scipy()

    def hops(source: int) -> np.ndarray:
        return shortest_path(adjacency, method="D", unweighted=True, indices=source)

    n = graph.num_vertices
    seeds = [int(rng.integers(n))]
    hop = hops(seeds[0])
    for _ in range(1, k):
        cand = int(np.argmax(np.where(np.isfinite(hop), hop, -1.0)))
        if hop[cand] <= 0:  # disconnected or exhausted: random unseeded vertex
            unused = np.setdiff1d(np.arange(n), np.array(seeds))
            cand = int(rng.choice(unused)) if unused.size else int(rng.integers(n))
        seeds.append(cand)
        hop = np.minimum(hop, hops(cand))
    return np.array(seeds, dtype=np.int64)


def _grow_regions(
    graph: CSRGraph,
    seeds: np.ndarray,
    vertex_weight: np.ndarray,
    balance_tol: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy multi-source region growing with per-part weight budgets."""
    n = graph.num_vertices
    k = seeds.size
    labels = np.full(n, -1, dtype=np.int64)
    budget = float(balance_tol * vertex_weight.sum() / k)
    label = memoryview(labels)
    vw = memoryview(np.ascontiguousarray(vertex_weight))
    indptr, indices = memoryview(graph.indptr), memoryview(graph.indices)
    weight = [0.0] * k
    frontiers = [[s] for s in memoryview(seeds)]
    for p, s in enumerate(memoryview(seeds)):
        label[s] = p
        weight[p] += vw[s]

    active = True
    while active:
        active = False
        for p in memoryview(rng.permutation(k)):
            if weight[p] >= budget or not frontiers[p]:
                continue
            new_frontier: list[int] = []
            for u in frontiers[p]:
                for v in indices[indptr[u] : indptr[u + 1]]:
                    if label[v] < 0 and weight[p] + vw[v] <= budget:
                        label[v] = p
                        weight[p] += vw[v]
                        new_frontier.append(v)
            frontiers[p] = new_frontier
            if new_frontier:
                active = True

    # Unreached vertices (disconnected or budget-blocked) go to the lightest part.
    for v in memoryview(np.flatnonzero(labels < 0)):
        p = min(range(k), key=weight.__getitem__)
        label[v] = p
        weight[p] += vw[v]
    return labels


def partition_kway(
    graph: CSRGraph,
    num_parts: int,
    *,
    balance_tol: float = 1.10,
    coarsen_to: int | None = None,
    seed: int = 0,
    refine_passes: int = 4,
) -> PartitionResult:
    """Partition ``graph`` into ``num_parts`` balanced parts.

    Returns a :class:`PartitionResult`; ``labels[v]`` is ``v``'s part.
    ``coarsen_to`` stops coarsening once the graph has at most that many
    vertices (default ``max(20·k, 200)``).
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    n = graph.num_vertices
    # Partition on the symmetrised graph with uniform strengths.
    src, dst, _ = graph.edge_array()
    work = CSRGraph.from_edges(
        n, np.concatenate([src, dst]), np.concatenate([dst, src]), np.ones(2 * src.size)
    )
    if num_parts == 1 or n <= num_parts:
        labels = np.zeros(n, dtype=np.int64) if num_parts == 1 else np.arange(n) % num_parts
        return PartitionResult(
            labels=labels,
            num_parts=num_parts,
            edge_cut=edge_cut(work, labels) / 2.0,
            part_sizes=np.bincount(labels, minlength=num_parts),
        )

    rng = np.random.default_rng(seed)

    if coarsen_to is None:
        coarsen_to = max(20 * num_parts, 200)

    levels: list[CoarseLevel] = []
    cur = work
    cur_weight = np.ones(n)
    while cur.num_vertices > coarsen_to:
        level = coarsen_graph(cur, cur_weight, rng=rng)
        if level.graph.num_vertices >= cur.num_vertices * 0.95:
            break  # matching stalled (e.g. star graphs) — stop coarsening
        levels.append(level)
        cur = level.graph
        cur_weight = level.vertex_weight

    seeds = _spread_seeds(cur, num_parts, rng)
    labels = _grow_regions(cur, seeds, cur_weight, balance_tol, rng)
    labels = refine_partition(
        cur, labels, num_parts,
        vertex_weight=cur_weight, balance_tol=balance_tol,
        max_passes=refine_passes, rng=rng,
    )

    for idx in range(len(levels) - 1, -1, -1):
        level = levels[idx]
        labels = labels[level.fine_to_coarse]
        if idx == 0:
            finer, finer_weight = work, np.ones(n)
        else:
            finer = levels[idx - 1].graph
            finer_weight = levels[idx - 1].vertex_weight
        labels = refine_partition(
            finer, labels, num_parts,
            vertex_weight=finer_weight, balance_tol=balance_tol,
            max_passes=refine_passes, rng=rng,
        )

    sizes = np.bincount(labels, minlength=num_parts)
    return PartitionResult(
        labels=labels,
        num_parts=num_parts,
        edge_cut=edge_cut(work, labels) / 2.0,
        part_sizes=sizes,
    )
