"""Compiled Near-Far batches split into row ranges across the pool.

``near_far_batch`` runs a batch at or above ``NEAR_FAR_SPLIT_WORK`` as
one kernel call per contiguous row range and merges the ranges' level
records into the batch's ``NearFarStats``. Every pinned case must give
the pinned stats and distance digest at 2, 3 and one range per row; the
merge sums heavy edges across ranges before rounding them up to child
blocks; and a range that flags a rounding case (a split below its own
value, or one stepped twice) or stops (a stalled split) reruns the batch
as one range, so the outcome is the unsplit one.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
import threading

import numpy as np
import pytest

import repro.core.engine as engine
from repro.graphs.csr import CSRGraph
from repro.sssp.near_far import (
    EDGES_PER_CHILD_BLOCK,
    NearFarStats,
    _merge_records,
    _RangeRecord,
    compiled_kernel,
    near_far_batch,
)
from tests.conftest import forced_split
from tests.test_near_far_pinned import BATCHES, GRAPHS, PINNED, _graph

# the package re-exports the function ``near_far`` under the module's name
near_far_module = importlib.import_module("repro.sssp.near_far")

needs_kernel = pytest.mark.skipif(compiled_kernel() is None, reason="no C compiler loads")


@pytest.fixture
def range_calls(monkeypatch):
    """Every kernel call's row count, in call order."""
    calls: list[int] = []
    run_range = near_far_module._run_range

    def spy(kernel, graph, sources, *args):
        calls.append(sources.size)
        return run_range(kernel, graph, sources, *args)

    monkeypatch.setattr(near_far_module, "_run_range", spy)
    return calls


def _split_sizes(bat: int, ranges: int) -> list[int]:
    return np.diff(np.linspace(0, bat, ranges + 1, dtype=np.int64)).tolist()


@needs_kernel
@pytest.mark.parametrize("ranges", [2, 3, "bat"])
@pytest.mark.parametrize(
    "graph_name, batch, heavy_degree, stats, digest",
    PINNED,
    ids=[f"{g}-{b}-hd{h}" for g, b, h, _, _ in PINNED],
)
def test_pinned_cases_split_into_ranges(
    graph_name, batch, heavy_degree, stats, digest, ranges, range_calls, monkeypatch
):
    monkeypatch.delenv("REPRO_JIT", raising=False)
    graph = _graph(graph_name)
    sources = BATCHES[batch](graph.num_vertices)
    count = sources.size if ranges == "bat" else ranges
    with forced_split(count):
        dist, got = near_far_batch(
            graph, sources, delta=GRAPHS[graph_name][1], heavy_degree=heavy_degree
        )
    # the ranges run concurrently, so their calls come in any order
    assert sorted(range_calls) == sorted(_split_sizes(sources.size, min(count, sources.size)))
    assert (
        got.relaxations,
        got.heavy_relaxations,
        got.iterations,
        got.child_launches,
        got.splits_advanced,
    ) == stats
    assert hashlib.sha256(np.ascontiguousarray(dist).tobytes()).hexdigest()[:16] == digest


@needs_kernel
@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs",
)
def test_caller_runs_the_first_range_on_a_cpu_apart_from_the_worker(monkeypatch):
    """Of two ranges, a pool worker runs the second and the caller the
    first, bound for that call to a CPU other than the worker's (a caller
    sharing the worker's CPU would run the ranges one after the other);
    the caller's own mask is back afterwards."""
    monkeypatch.delenv("REPRO_JIT", raising=False)
    own = sorted(os.sched_getaffinity(0))
    calls = []
    run_range = near_far_module._run_range

    def spy(kernel, graph, sources, *args):
        mask = sorted(os.sched_getaffinity(0))
        calls.append((threading.get_ident(), engine.worker_cpu(), mask, sources.size))
        return run_range(kernel, graph, sources, *args)

    monkeypatch.setattr(near_far_module, "_run_range", spy)
    graph = _graph("rmat300")
    sources = BATCHES["strided"](graph.num_vertices)
    with forced_split(2):
        near_far_batch(graph, sources, delta=0.37)
    assert sorted(os.sched_getaffinity(0)) == own
    ((caller, none, caller_mask, first), (worker, cpu, worker_mask, second)) = sorted(
        calls, key=lambda call: call[0] != threading.get_ident()
    )
    assert caller == threading.get_ident() and none is None
    assert worker != caller and worker_mask == [cpu]
    assert len(caller_mask) == 1 and caller_mask != worker_mask
    assert [first, second] == _split_sizes(sources.size, 2)


def test_range_count_one_below_cutoff_one_per_worker_at_or_above(monkeypatch):
    monkeypatch.setattr(engine, "default_workers", lambda: 4)
    work = engine.NEAR_FAR_SPLIT_WORK
    assert engine.range_count(1, work - 1) == 1
    assert engine.range_count(2, work // 2) == 2
    assert engine.range_count(8, work) == 4
    assert engine.range_count(3, work) == 3  # at most one range per row


def _record(splits, rounds, heavy, relaxations=0):
    return _RangeRecord(
        relaxations=relaxations,
        splits=np.array(splits, dtype=np.float64),
        rounds=np.array(rounds, dtype=np.int64),
        heavy=np.array(heavy, dtype=np.int64),
        status=0,
        rounded=False,
    )


def test_merge_sums_heavy_edges_across_ranges_before_rounding():
    """Round 0 of split 1.0 relaxes 200 heavy edges in one range and 100
    in the other: one child block each alone, two for the batch's 300."""
    a = _record([1.0, 2.0], [2, 1], [200, 0, 5], relaxations=40)
    b = _record([1.0, 3.0], [1, 1], [100, 7], relaxations=2)
    assert 200 <= EDGES_PER_CHILD_BLOCK and 100 <= EDGES_PER_CHILD_BLOCK < 300
    # levels 1.0, 2.0 and 3.0 run 2, 1 and 1 iterations; the rounds with
    # heavy edges are (1.0, 0): 300, (2.0, 0): 5 and (3.0, 0): 7
    assert _merge_records([a, b]) == NearFarStats(
        relaxations=42,
        heavy_relaxations=312,
        iterations=4,
        child_launches=(2 + 2) + (2 + 1) + (2 + 1),
        splits_advanced=2,
    )
    # each range alone rounds its own 200 and 100 up to a block
    assert _merge_records([a]).child_launches == (2 + 1) + (2 + 1)
    assert _merge_records([b]).child_launches == (2 + 1) + (2 + 1)


def _one_range(graph, sources, delta, heavy=32):
    return near_far_module._compiled_batch(
        compiled_kernel(), graph, sources, delta, heavy, ranges=1
    )


def _rounding_pair() -> tuple[float, float]:
    """A Far distance ``d`` and a Δ below it with ``floor(d / Δ) · Δ > d``."""
    rng = np.random.default_rng(3)
    for _ in range(100_000):
        delta = float(rng.uniform(0.01, 1.0))
        d = float(np.floor(rng.uniform(2, 50)) * delta)
        d = float(np.nextafter(d, 0.0))
        if d >= delta and np.floor(d / delta) * delta > d:
            return d, delta
    raise AssertionError("no rounding pair found")


@needs_kernel
def test_rounding_case_reruns_as_one_range(range_calls, monkeypatch):
    """A row waiting at a Far distance ``d`` with ``floor(d / Δ) · Δ > d``
    could work at another split than its own: the range flags it, and
    the batch reruns as one range."""
    monkeypatch.delenv("REPRO_JIT", raising=False)
    d, delta = _rounding_pair()
    # row 0 waits in Far at exactly d; row 1 runs a long path of Δ/3 steps
    steps = 40
    src = [0] + list(range(2, 2 + steps))
    dst = [1] + list(range(3, 3 + steps))
    weights = [d] + [delta / 3] * steps
    graph = CSRGraph.from_edges(3 + steps, src, dst, weights)
    sources = np.array([0, 2])
    with forced_split(2):
        dist, stats = near_far_batch(graph, sources, delta=delta)
    assert range_calls == [1, 1, 2]  # two ranges, then the batch as one
    want_dist, want_stats = _one_range(graph, sources, delta)
    assert dist.tobytes() == want_dist.tobytes() and stats == want_stats
    assert dist[0, 1] == d


@needs_kernel
def test_second_split_step_reruns_as_one_range(range_calls, monkeypatch):
    """Row 0 waits at the Far distance 8.1, where the split ``81 · 0.1``
    rounds onto 8.1 and steps to ``82 · 0.1``: the range flags it, and
    the batch reruns as one range, with the numpy loop's outcome."""
    monkeypatch.delenv("REPRO_JIT", raising=False)
    graph = CSRGraph.from_edges(4, [0, 2], [1, 3], [8.1, 0.05])
    sources = np.array([0, 2])
    with forced_split(2):
        dist, stats = near_far_batch(graph, sources, delta=0.1)
    assert range_calls == [1, 1, 2]  # two ranges, then the batch as one
    want_dist, want_stats = near_far_module._numpy_batch(graph, sources, 0.1, 32)
    assert dist.tobytes() == want_dist.tobytes() and stats == want_stats
    assert dist[0, 1] == 8.1


@needs_kernel
def test_stalled_split_reruns_as_one_range_and_raises(range_calls, monkeypatch):
    """Δ = 1e-15 cannot pass the Far distance 37 of row 0's path; row 1
    (a sink source) finishes. The unsplit call raises, and so does the split."""
    monkeypatch.delenv("REPRO_JIT", raising=False)
    graph = CSRGraph.from_edges(3, [0, 1], [1, 2], [37.0, 5.0])
    sources = np.array([0, 2])
    with pytest.raises(ValueError, match="delta=1e-15") as unsplit:
        _one_range(graph, sources, 1e-15)
    range_calls.clear()
    with forced_split(2), pytest.raises(ValueError, match="delta=1e-15") as split:
        near_far_batch(graph, sources, delta=1e-15)
    assert str(split.value) == str(unsplit.value)
    assert range_calls == [1, 1, 2]


@needs_kernel
def test_record_overflow_reruns_with_room_for_all():
    """A range with room for one level record reruns with room for every
    level and round it ran, and returns what the default room returns."""
    calls = []
    kernel = compiled_kernel()

    def counting(*args):
        calls.append(args[22])  # the record capacity
        return kernel(*args)

    graph = _graph("rmat300")
    sources = BATCHES["strided"](graph.num_vertices)
    want = near_far_module._compiled_batch(kernel, graph, sources, 0.37, 32, ranges=2)
    got = near_far_module._compiled_batch(
        counting, graph, sources, 0.37, 32, ranges=2, capacity=1
    )
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    # the two ranges run concurrently, so their calls interleave
    first, rerun = sorted(calls)[:2], sorted(calls)[2:]
    assert first == [1, 1] and len(rerun) == 2 and min(rerun) > 1


@needs_kernel
def test_concurrent_callers_stress(monkeypatch):
    """Four caller threads split their batches into three ranges each (more
    workers than cores) with a short switch interval: a range lost, run
    twice or writing another's rows would change a result."""
    monkeypatch.delenv("REPRO_JIT", raising=False)
    graph = _graph("rmat300")
    batches = [np.arange(s, graph.num_vertices, 9) for s in range(4)]
    expected = [_one_range(graph, sources, 0.37) for sources in batches]
    failures = []

    def client(sources, want):
        for _ in range(10):
            dist, stats = near_far_batch(graph, sources, delta=0.37)
            if stats != want[1] or dist.tobytes() != want[0].tobytes():
                failures.append(sources[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_split(3):
            threads = [
                threading.Thread(target=client, args=case) for case in zip(batches, expected)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
