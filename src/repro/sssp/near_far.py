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

The batch runs on one of two paths with the same distances and
``NearFarStats``, bit for bit (``tests/test_near_far_pinned.py`` pins
both):

* **compiled** — the C kernel ``near_far_f64`` (in
  :mod:`repro.core.backends.jit`, proven by ``repro verify-kernels``)
  runs the whole loop whenever :func:`compiled_kernel` finds it. There
  Near is no longer a sorted array of flat positions: each row keeps its
  own Near and Far queues of vertices, as the paper's per-block queues
  do, and runs all of its relax rounds of a split level before the next
  row; round ``t`` of every row is batch iteration ``t``.
* **numpy** — the loop below, the path without a compiler (or with
  ``REPRO_JIT=off``) and the reference the tests compare against.

The numpy loop keeps both queues as worklists of flat positions
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

Both paths are label-correcting and exact for non-negative weights
(property tests compare against Dijkstra and scipy under Δ sweeps). A
Δ so small that a split level ``(⌊d / Δ⌋ + 1) · Δ`` rounds to no more
than the smallest Far distance ``d`` could never advance; both paths
raise ``ValueError`` there instead of looping. With float64 weights a
row equals the per-source Dijkstra row bit for bit: both reach the
minimum over paths of the left-to-right path sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.sssp.frontier import edge_positions, scatter_min, suggest_delta

__all__ = [
    "NearFarStats",
    "compiled_kernel",
    "near_far",
    "near_far_batch",
    "DEFAULT_HEAVY_DEGREE",
    "EDGES_PER_CHILD_BLOCK",
]

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

    Runs the compiled C kernel when one loads (see :func:`compiled_kernel`),
    else the numpy loop; both give the same distances and statistics, bit
    for bit.
    """
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    n = graph.num_vertices
    if sources.size == 0:
        return np.empty((0, n)), NearFarStats(0, 0, 0, 0, 0)
    if sources.min() < 0 or sources.max() >= n:
        raise ValueError("source out of range")
    if delta is None:
        delta = suggest_delta(graph)
    if not delta > 0:  # also rejects NaN
        raise ValueError("delta must be positive")
    if heavy_degree < 0:
        raise ValueError("heavy_degree must be non-negative")
    kernel = compiled_kernel()
    if kernel is None:
        return _numpy_batch(graph, sources, float(delta), heavy_degree)
    # no vertex has more than m out-edges, so a larger threshold counts alike
    heavy = int(min(heavy_degree, graph.num_edges))
    return _compiled_batch(kernel, graph, sources, float(delta), heavy)


def compiled_kernel():
    """The C batch kernel, or ``None`` under ``REPRO_JIT=off`` or without a compiler."""
    # imported here: repro.core imports this module
    from repro.core.backends.jit import jit_enabled, load_cc_kernels

    if not jit_enabled():
        return None
    kernels = load_cc_kernels()
    return kernels.near_far if kernels is not None else None


def _stalled_split(delta: float) -> ValueError:
    return ValueError(
        f"delta={delta!r} is too small for these distances: a split level "
        "(floor(d / delta) + 1) * delta rounds to no more than the smallest "
        "Far distance d, so the split cannot advance"
    )


def _compiled_batch(
    kernel, graph: CSRGraph, sources: np.ndarray, delta: float, heavy_degree: int
) -> tuple[np.ndarray, NearFarStats]:
    """One call of the C kernel ``near_far_f64`` over freshly allocated buffers.

    The kernel's declared contract holds here:

    * value ranges — ``0 <= indptr <= m`` and ``0 <= indices < n`` are
      enforced by ``CSRGraph.__post_init__`` (and the arrays are frozen:
      lint rule RPR011 forbids in-place stores into them);
      ``0 <= sources < n`` and ``heavy_degree >= 0`` by
      :func:`near_far_batch`. The queues the kernel writes (vertex ids in
      ``[0, n)``, Far lengths in ``[0, n]``) start zero-filled, which is
      inside those ranges as ``n >= 1``;
    * capacity — each row's Far queue holds ``n`` entries and the per-row
      round buffers ``n`` too; the kernel keeps every queue
      duplicate-free, so a correct run never reaches a capacity guard;
    * aliasing — every written array is allocated here, so no two arrays
      overlap.

    Large zero-filled arrays come from fresh zero pages, so only the part
    of the Far queues a batch uses costs memory.
    """
    n = graph.num_vertices
    bat = sources.size
    dist = np.full((bat, n), np.inf)
    far_v = np.zeros((bat, n), dtype=np.int64)
    far_d = np.empty((bat, n))
    far_n = np.zeros(bat, dtype=np.int64)
    far_min = np.empty(bat)
    in_far = np.zeros((bat, n), dtype=np.int32)
    cur_v, imp_v = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    cur_d = np.empty(n)
    seen = np.zeros(n, dtype=np.int32)
    round_hv = np.zeros(n + 1, dtype=np.int64)
    round_ran = np.zeros(n + 1, dtype=np.int32)
    stats = np.zeros(6, dtype=np.int64)
    # every split level but the last moves at least one entry out of Far
    # for good, and each of the bat * n positions enters Far at most once;
    # the kernel itself bounds a row's relax rounds per level by n + 1
    budget = bat * n + 2
    kernel(
        dist, graph.indptr, graph.indices, graph.weights, sources,
        n, graph.num_edges, bat, delta, heavy_degree, budget,
        far_v, far_d, far_n, far_min, in_far,
        cur_v, cur_d, imp_v, seen, round_hv, round_ran, stats,
    )
    status = int(stats[5])
    if status == 3:
        raise _stalled_split(delta)
    if status:
        reason = "a queue capacity guard failed" if status == 1 else "a step budget ran out"
        raise RuntimeError(f"compiled Near-Far kernel stopped: {reason}")
    return dist, NearFarStats(*(int(x) for x in stats[:5]))


def _numpy_batch(
    graph: CSRGraph, sources: np.ndarray, delta: float, heavy_degree: int
) -> tuple[np.ndarray, NearFarStats]:
    """The numpy loop: the path without a compiler, and the tests' reference."""
    n = graph.num_vertices
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

    split = delta
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
            if not split > min_far:
                raise _stalled_split(delta)
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
