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

A compiled batch of at least ``NEAR_FAR_SPLIT_WORK`` ``rows × edges``
(:mod:`repro.core.engine`) runs as contiguous row ranges, one per CPU:
the caller runs the first, and one worker of the engine's
``shared_executor`` each of the others, one kernel call per range and
one fork/join per batch. Each call records its split levels (split
value, round count, heavy edges per round), and one merge turns the
records of one or more ranges into the batch's ``NearFarStats``: the
levels are the union of the split values, a level's iterations are its
longest range's rounds, and child launches count the heavy edges summed
across ranges per (level, round). One call over all rows is the
one-range case of the same merge. The merge is exact because a row
waiting at Far distance ``d`` works next at the split
``(⌊d / Δ⌋ + 1) · Δ`` whatever the other rows wait at, unless
``⌊d / Δ⌋ · Δ`` rounds above ``d`` or the split steps twice (below).
The kernel flags both cases; a range that flags one, or stops on a
stalled split, a guard or a budget, reruns the batch as one range, so
the outcome is the unsplit one.

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
(property tests compare against Dijkstra and scipy under Δ sweeps).
Where the next split ``(⌊d / Δ⌋ + 1) · Δ`` rounds to no more than the
smallest Far distance ``d`` (``d = 8.1`` at ``Δ = 0.1``: ``81 · 0.1`` is
8.1), both paths take ``(⌊d / Δ⌋ + 2) · Δ`` instead. A Δ so small that
this one rounds to no more than ``d`` too could never advance; both
paths raise ``ValueError`` there instead of looping. With float64 weights a
row equals the per-source Dijkstra row bit for bit: both reach the
minimum over paths of the left-to-right path sum.
"""

from __future__ import annotations

import queue
from concurrent.futures import wait
from dataclasses import dataclass
from typing import NamedTuple

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
    split into row ranges across cores when the batch is large enough,
    else the numpy loop; all give the same distances and statistics, bit
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
    """The C batch kernel, or ``None`` under ``REPRO_JIT=off`` or without a
    compiler: asks :func:`repro.core.backends.jit.compiled_kernels`, the
    switch the kernel engine asks too."""
    # imported here: repro.core imports this module
    from repro.core.backends.jit import compiled_kernels

    kernels = compiled_kernels()
    return kernels.near_far if kernels is not None else None


def _stalled_split(delta: float) -> ValueError:
    return ValueError(
        f"delta={delta!r} is too small for these distances: the split levels "
        "(floor(d / delta) + 1) * delta and (floor(d / delta) + 2) * delta "
        "both round to no more than the smallest Far distance d, so the "
        "split cannot advance"
    )


#: records (split levels, and relax rounds) one range's kernel call has
#: room for at first; a range that ran more reruns with room for all
_RECORD_CAPACITY = 1024


class _RangeRecord(NamedTuple):
    """What one ``near_far_f64`` call over a range of rows reports."""

    relaxations: int
    splits: np.ndarray  # float64: the split of each level the range ran
    rounds: np.ndarray  # int64: relax rounds of each of those levels
    heavy: np.ndarray  # int64: heavy edges of each round, level after level
    status: int  # 0 done, 1 a queue guard failed, 2 a budget ran out, 3 stalled
    rounded: bool  # a Far distance d had floor(d / delta) * delta > d, or a split stepped twice


def _compiled_batch(
    kernel,
    graph: CSRGraph,
    sources: np.ndarray,
    delta: float,
    heavy_degree: int,
    *,
    ranges: int | None = None,
    capacity: int = _RECORD_CAPACITY,
) -> tuple[np.ndarray, NearFarStats]:
    """The C kernel ``near_far_f64`` over contiguous row ranges of the batch.

    ``ranges`` defaults to :func:`repro.core.engine.range_count`: one call
    for a batch below ``NEAR_FAR_SPLIT_WORK`` ``rows × edges``, else one
    range per CPU, each on its own rows of the batch's distances and Far
    queues — one fork/join per batch. Workers of
    :func:`repro.core.engine.shared_executor` run every range but the
    first; once they have all started, the caller runs the first, bound
    for that call to a CPU none of them is bound to
    (:func:`repro.core.engine.bound_apart`): it computes instead of
    sleeping in the join, and never on a worker's CPU. The ranges' level
    records merge into the
    batch's :class:`NearFarStats` (:func:`_merge_records`); one call over
    all rows is the one-range case. The merge is exact because a row's
    work depends only on its own smallest Far distance, which the kernel
    checks; a range that flags the rounding case or stops with a
    non-zero status reruns the batch as one range, which gives the
    unsplit outcome, result or error. ``capacity`` is the record room a
    call starts with (the kernel-matrix harness passes 1).
    """
    # imported here: repro.core imports this module
    from repro.core import engine

    n = graph.num_vertices
    bat = sources.size
    # each row's distances and Far queue (far_v, far_d, far_n, far_min,
    # in_far); a range reads and writes only its own rows
    rows = (
        np.full((bat, n), np.inf),
        np.zeros((bat, n), dtype=np.int64),
        np.empty((bat, n)),
        np.zeros(bat, dtype=np.int64),
        np.empty(bat),
        np.zeros((bat, n), dtype=np.int32),
    )
    if ranges is None:
        ranges = engine.range_count(bat, graph.num_edges)
    ranges = max(1, min(ranges, bat))
    if ranges > 1:
        bounds = np.linspace(0, bat, ranges + 1, dtype=np.int64)

        def run(i: int) -> _RangeRecord:
            lo, hi = bounds[i], bounds[i + 1]
            return _run_range(
                kernel, graph, sources[lo:hi], delta, heavy_degree,
                tuple(a[lo:hi] for a in rows), capacity,
            )

        started: queue.SimpleQueue[int | None] = queue.SimpleQueue()

        def on_worker(i: int) -> _RangeRecord:
            started.put(engine.worker_cpu())
            return run(i)

        pool = engine.shared_executor(ranges - 1)
        futures = [pool.submit(on_worker, i) for i in range(1, ranges)]
        try:
            taken = {started.get() for _ in futures}
            with engine.bound_apart(taken):
                records = [run(0)]
        finally:
            wait(futures)  # no worker still writes rows when an error propagates
        records += [fut.result() for fut in futures]  # re-raises a range's exception
        if all(rec.status == 0 and not rec.rounded for rec in records):
            return rows[0], _merge_records(records)
        _restart(rows)
    record = _run_range(kernel, graph, sources, delta, heavy_degree, rows, capacity)
    if record.status == 3:
        raise _stalled_split(delta)
    if record.status:
        reason = "a queue capacity guard failed" if record.status == 1 else "a step budget ran out"
        raise RuntimeError(f"compiled Near-Far kernel stopped: {reason}")
    return rows[0], _merge_records([record])


def _restart(rows: tuple[np.ndarray, ...]) -> None:
    """Return rows a kernel call ran on to the state a call starts from:
    distances ``inf`` and no position marked as having entered Far. The
    Far queues need no reset: the call sets every row's length, and the
    entries it left are vertex ids, inside their declared range."""
    dist, _far_v, _far_d, _far_n, _far_min, in_far = rows
    dist.fill(np.inf)
    in_far.fill(0)


def _run_range(
    kernel,
    graph: CSRGraph,
    sources: np.ndarray,
    delta: float,
    heavy_degree: int,
    rows: tuple[np.ndarray, ...],
    capacity: int,
) -> _RangeRecord:
    """One kernel call over ``rows``, the distance and Far-queue rows of
    ``sources`` (as :func:`_compiled_batch` allocates them, or as a call
    left them after :func:`_restart`), with private scratch and records.

    The kernel's declared contract holds here:

    * value ranges — ``0 <= indptr <= m`` and ``0 <= indices < n`` are
      enforced by ``CSRGraph.__post_init__`` (and the arrays are frozen:
      lint rule RPR011 forbids in-place stores into them);
      ``0 <= sources < n`` and ``heavy_degree >= 0`` by
      :func:`near_far_batch`. The queues the kernel writes (vertex ids in
      ``[0, n)``, Far lengths in ``[0, n]``) start zero-filled, or hold
      what an earlier call wrote, which is inside those ranges as
      ``n >= 1``;
    * capacity — each row's Far queue holds ``n`` entries and the per-row
      round buffers ``n`` too; the kernel keeps every queue
      duplicate-free, so a correct run never reaches a capacity guard.
      The records hold ``capacity`` levels and rounds; the kernel counts
      past that without writing, and the call reruns with room for all;
    * aliasing — ``rows`` are disjoint arrays (or the same rows of them)
      and the scratch and records are allocated here, so no two arrays
      overlap; two ranges of one batch pass disjoint rows.

    Large zero-filled arrays come from fresh zero pages, so only the part
    of the Far queues a batch uses costs memory.
    """
    dist, far_v, far_d, far_n, far_min, in_far = rows
    n = graph.num_vertices
    count = sources.size
    # every split level but the last moves at least one entry out of Far
    # for good, and each of the count * n positions enters Far at most
    # once; the kernel itself bounds a row's relax rounds per level by n + 1
    budget = count * n + 2
    while True:
        cur_v, imp_v = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        cur_d = np.empty(n)
        seen = np.zeros(n, dtype=np.int32)
        round_hv = np.zeros(n + 1, dtype=np.int64)
        round_ran = np.zeros(n + 1, dtype=np.int32)
        splits = np.empty(capacity)
        rounds = np.empty(capacity, dtype=np.int64)
        heavy = np.empty(capacity, dtype=np.int64)
        stats = np.zeros(5, dtype=np.int64)
        kernel(
            dist, graph.indptr, graph.indices, graph.weights, sources,
            n, graph.num_edges, count, delta, heavy_degree, budget,
            far_v, far_d, far_n, far_min, in_far,
            cur_v, cur_d, imp_v, seen, round_hv, round_ran,
            capacity, splits, rounds, heavy, stats,
        )
        levels, total_rounds, status = int(stats[1]), int(stats[2]), int(stats[4])
        if status or max(levels, total_rounds) <= capacity:
            break
        capacity = max(levels, total_rounds)
        _restart(rows)
    return _RangeRecord(
        relaxations=int(stats[0]),
        splits=splits[:levels],
        rounds=rounds[:levels],
        heavy=heavy[:total_rounds],
        status=status,
        rounded=bool(stats[3]),
    )


def _merge_records(records: list[_RangeRecord]) -> NearFarStats:
    """The batch's :class:`NearFarStats` from its ranges' level records.

    The batch's split levels are the union of the ranges' split values;
    a level runs as many batch iterations as its longest range, and its
    round ``t`` launches child blocks for the heavy edges every range
    relaxed in round ``t``, summed before the ``EDGES_PER_CHILD_BLOCK``
    rounding.
    """
    splits = np.concatenate([rec.splits for rec in records])
    rounds = np.concatenate([rec.rounds for rec in records])
    heavy = np.concatenate([rec.heavy for rec in records])
    levels, level_of = np.unique(splits, return_inverse=True)
    longest = np.zeros(levels.size, dtype=np.int64)
    np.maximum.at(longest, level_of, rounds)
    # each recorded round's slot among the batch's (level, round) pairs
    first = np.cumsum(longest) - longest
    within = np.arange(heavy.size) - np.repeat(np.cumsum(rounds) - rounds, rounds)
    per_round = np.zeros(int(longest.sum()), dtype=np.int64)
    np.add.at(per_round, np.repeat(first[level_of], rounds) + within, heavy)
    launched = per_round[per_round > 0]
    return NearFarStats(
        relaxations=sum(rec.relaxations for rec in records),
        heavy_relaxations=int(heavy.sum()),
        iterations=int(longest.sum()),
        child_launches=int((2 + -(-launched // EDGES_PER_CHILD_BLOCK)).sum()),
        splits_advanced=levels.size - 1,
    )


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
                # rounded onto min_far (8.1 at delta 0.1): one step further
                split = (np.floor(min_far / delta) + 2.0) * delta
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
