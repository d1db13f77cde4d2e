"""Near-Far worklist SSSP — the paper's GPU method (Section II-B).

Near-Far [Davidson et al., PPoPP'14] simplifies delta-stepping to two
queues: the *Near* queue holds vertices whose tentative distance is below
the current split ``(i+1)·Δ``, the *Far* queue holds everything else.
Near is drained with repeated relax iterations; when empty, the split
advances and Far is filtered into Near (stale entries — whose distance
improved since insertion — are dropped).

Two entry points:

* :func:`near_far` — one source, mirroring the per-thread-block procedure
  ``Near_Far_TB`` of the paper's Algorithm 2.
* :func:`near_far_batch` — ``bat`` sources at once, vectorised over a
  ``(bat, n)`` distance matrix exactly as the MSSP kernel processes one
  batch. Collects the workload statistics (relaxations, heavy-vertex
  relaxations, iteration count, would-be child-kernel launches) that
  :func:`repro.gpu.kernels.mssp_batch_cost` turns into simulated kernel
  time.

The batch keeps both queues as worklists of flat positions
``row · n + vertex`` into the distance matrix, so an iteration costs
time in proportion to its frontier and relaxations, not to ``bat · n``:

* **Near** is a sorted, duplicate-free array. After a relax step it is
  exactly the set of improved positions whose new distance is below the
  split — :func:`~repro.sssp.frontier.scatter_min` already returns those
  unique and in ascending order — so relaxations run in row-major order.
* **Far** is a list of position chunks, deduplicated by one ``bat × n``
  membership mask: an iteration appends only the positions not already
  in it, and the chunks are concatenated only when the split advances.
  A refill moves the positions below the new split to Near (sorted back
  into row-major order) and drops stale ones.

Both are label-correcting and exact for non-negative weights (property
tests compare against Dijkstra and scipy under Δ sweeps). With float64
weights a row equals the per-source Dijkstra row bit for bit: both reach
the minimum over paths of the left-to-right path sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.sssp.frontier import edge_positions, scatter_min, suggest_delta

__all__ = ["NearFarStats", "near_far", "near_far_batch", "DEFAULT_HEAVY_DEGREE", "EDGES_PER_CHILD_BLOCK"]

#: out-degree above which the paper's dynamic-parallelism path would launch a
#: child kernel for the vertex's edge list ("vertices with a large
#: out-degree", §III-B — one warp's worth of edges)
DEFAULT_HEAVY_DEGREE = 32
#: edge-list partition size handed to each child thread block (Section III-B
#: partitions concatenated heavy edge lists into equal chunks)
EDGES_PER_CHILD_BLOCK = 256


@dataclass(frozen=True)
class NearFarStats:
    """Workload record of a Near-Far execution (single source or batch)."""

    relaxations: int
    heavy_relaxations: int
    iterations: int
    child_launches: int
    splits_advanced: int


def near_far(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    heavy_degree: int = DEFAULT_HEAVY_DEGREE,
) -> tuple[np.ndarray, NearFarStats]:
    """Exact shortest distances from one source via Near-Far."""
    dist, stats = near_far_batch(graph, np.array([source]), delta=delta, heavy_degree=heavy_degree)
    return dist[0], stats


def near_far_batch(
    graph: CSRGraph,
    sources: np.ndarray,
    *,
    delta: float | None = None,
    heavy_degree: int = DEFAULT_HEAVY_DEGREE,
) -> tuple[np.ndarray, NearFarStats]:
    """Shortest distances from every source in ``sources`` (one MSSP batch).

    Returns ``(dist, stats)`` where ``dist`` has shape ``(len(sources), n)``.
    The batch shares a split level: each relax iteration processes the union
    of all sources' Near queues, matching one grid-wide iteration of the
    MSSP kernel (per-block queues, grid-level synchronisation).
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = graph.num_vertices
    if sources.size == 0:
        return np.empty((0, n)), NearFarStats(0, 0, 0, 0, 0)
    if sources.min() < 0 or sources.max() >= n:
        raise ValueError("source out of range")
    if delta is None:
        delta = suggest_delta(graph)
    if delta <= 0:
        raise ValueError("delta must be positive")

    bat = sources.size
    dist = np.full((bat, n), np.inf)
    flat = dist.ravel()
    # Queue entries are flat positions ``row * n + vertex`` into ``dist``.
    # Near is unique and row-major sorted; Far is a list of chunks whose
    # union is exactly the positions set in ``in_far``.
    near = np.arange(bat, dtype=np.int64) * n + sources
    flat[near] = 0.0
    in_far = np.zeros(bat * n, dtype=bool)
    far: list[np.ndarray] = []

    split = float(delta)
    relaxations = 0
    heavy_relax = 0
    iterations = 0
    child_launches = 0
    splits_advanced = 0

    while True:
        if near.size == 0:
            # Near exhausted: advance the split past the smallest Far
            # distance (skipping empty Δ ranges) and refill Near.
            if not far:
                break
            fpos = np.concatenate(far)
            fdist = flat[fpos]
            # Drop stale Far entries (distance may have improved below the
            # current split — those were already processed via Near).
            fresh = fdist >= split
            in_far[fpos[~fresh]] = False
            fpos, fdist = fpos[fresh], fdist[fresh]
            if fpos.size == 0:
                break
            min_far = fdist.min()
            split = (np.floor(min_far / delta) + 1.0) * delta
            splits_advanced += 1
            move = fdist < split
            near = np.sort(fpos[move])
            in_far[near] = False
            far = [fpos[~move]]
            continue

        iterations += 1
        cols = near % n
        deg, pos = edge_positions(graph, cols)
        relaxations += pos.size
        if pos.size == 0:
            near = pos  # empty: no frontier vertex has an out-edge
            continue
        heads = graph.indices[pos]
        cand = np.repeat(flat[near], deg)
        cand += graph.weights[pos]

        # Dynamic-parallelism accounting: relaxations sourced at heavy
        # vertices, and the child blocks needed for their edge lists.
        heavy = deg > heavy_degree
        if heavy.any():
            heavy_edges = int(deg[heavy].sum())
            heavy_relax += heavy_edges
            child_launches += 2 + int(np.ceil(heavy_edges / EDGES_PER_CHILD_BLOCK))

        # near - cols is each entry's row offset row * n
        improved, improved_vals = scatter_min(flat, np.repeat(near - cols, deg) + heads, cand)
        go_near = improved_vals < split
        near = improved[go_near]
        to_far = improved[~go_near]
        to_far = to_far[~in_far[to_far]]
        if to_far.size:
            in_far[to_far] = True
            far.append(to_far)

    return dist, NearFarStats(
        relaxations=relaxations,
        heavy_relaxations=heavy_relax,
        iterations=iterations,
        child_launches=child_launches,
        splits_advanced=splits_advanced,
    )
