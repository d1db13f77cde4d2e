"""Unit tests for the four SSSP implementations (oracle: scipy Dijkstra)."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.backends.jit import cc_compiler, load_cc_kernels
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import rmat
from repro.sssp import (
    bellman_ford,
    delta_stepping,
    dijkstra,
    near_far,
    near_far_batch,
)
from repro.sssp.frontier import suggest_delta
from tests.conftest import oracle_sssp

#: the module, not the function ``repro.sssp`` re-exports under its name
near_far_module = importlib.import_module("repro.sssp.near_far")


ALGORITHMS = {
    "dijkstra": lambda g, s: dijkstra(g, s),
    "bellman-ford": lambda g, s: bellman_ford(g, s),
    "delta-stepping": lambda g, s: delta_stepping(g, s),
    "near-far": lambda g, s: near_far(g, s),
}


@pytest.mark.parametrize("alg", sorted(ALGORITHMS))
class TestCorrectness:
    def test_matches_oracle(self, alg, any_graph):
        dist, _ = ALGORITHMS[alg](any_graph, 0)
        expected = oracle_sssp(any_graph, [0])[0]
        assert np.allclose(dist, expected)

    def test_multiple_sources(self, alg, small_rmat):
        for s in (0, 17, 63, small_rmat.num_vertices - 1):
            dist, _ = ALGORITHMS[alg](small_rmat, s)
            expected = oracle_sssp(small_rmat, [s])[0]
            assert np.allclose(dist, expected), f"source {s}"

    def test_source_distance_zero(self, alg, small_planar):
        dist, _ = ALGORITHMS[alg](small_planar, 5)
        assert dist[5] == 0.0

    def test_unreachable_is_inf(self, alg):
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]), np.array([2.0]))
        dist, _ = ALGORITHMS[alg](g, 0)
        assert dist[1] == 2.0
        assert np.isinf(dist[2])

    def test_source_out_of_range(self, alg, small_rmat):
        with pytest.raises(ValueError):
            ALGORITHMS[alg](small_rmat, small_rmat.num_vertices)
        with pytest.raises(ValueError):
            ALGORITHMS[alg](small_rmat, -1)

    def test_single_vertex_graph(self, alg):
        g = CSRGraph.from_edges(1, np.array([]), np.array([]), np.array([]))
        dist, _ = ALGORITHMS[alg](g, 0)
        assert dist[0] == 0.0


class TestDijkstra:
    def test_stats_counts(self, small_rmat):
        _, stats = dijkstra(small_rmat, 0)
        assert stats.pops <= stats.pushes
        assert stats.relaxations > 0
        assert stats.heap_ops == stats.pushes + stats.pops

    def test_predecessors_form_tree(self, small_planar):
        dist, pred, _ = dijkstra(small_planar, 0, with_predecessors=True)
        assert pred[0] == -1
        # walking predecessors from any reachable vertex terminates at source
        for v in (10, 50, 100):
            hops = 0
            u = v
            while pred[u] != -1:
                u = pred[u]
                hops += 1
                assert hops <= small_planar.num_vertices
            assert u == 0 or np.isinf(dist[v])

    def test_predecessor_edge_consistency(self, small_rmat):
        dist, pred, _ = dijkstra(small_rmat, 0, with_predecessors=True)
        for v in range(small_rmat.num_vertices):
            if pred[v] >= 0:
                nbrs, w = small_rmat.neighbors(int(pred[v]))
                idx = np.nonzero(nbrs == v)[0]
                assert idx.size
                assert dist[v] == pytest.approx(dist[pred[v]] + w[idx].min())


class TestBellmanFord:
    def test_rounds_bounded(self, small_planar):
        _, stats = bellman_ford(small_planar, 0)
        assert stats.rounds <= small_planar.num_vertices

    def test_max_rounds_enforced(self, small_road):
        # road graphs have huge hop diameters; 2 rounds cannot converge
        with pytest.raises(RuntimeError):
            bellman_ford(small_road, 0, max_rounds=2)


class TestDeltaStepping:
    @pytest.mark.parametrize("delta", [0.5, 5.0, 50.0, 1e6])
    def test_delta_independence(self, small_rmat, delta):
        dist, _ = delta_stepping(small_rmat, 0, delta=delta)
        expected = oracle_sssp(small_rmat, [0])[0]
        assert np.allclose(dist, expected)

    def test_large_delta_degenerates_to_fewer_buckets(self, small_rmat):
        _, few = delta_stepping(small_rmat, 0, delta=1e9)
        _, many = delta_stepping(small_rmat, 0, delta=1.0)
        assert few.buckets_processed <= many.buckets_processed

    def test_invalid_delta(self, small_rmat):
        with pytest.raises(ValueError):
            delta_stepping(small_rmat, 0, delta=0.0)


class TestNearFar:
    @pytest.mark.parametrize("delta", [1.0, 20.0, 500.0])
    def test_delta_independence(self, small_planar, delta):
        dist, _ = near_far(small_planar, 0, delta=delta)
        expected = oracle_sssp(small_planar, [0])[0]
        assert np.allclose(dist, expected)

    def test_batch_matches_oracle(self, any_graph):
        sources = np.array([0, 3, 9])
        dist, _ = near_far_batch(any_graph, sources)
        expected = oracle_sssp(any_graph, sources)
        assert np.allclose(dist, expected)

    def test_batch_equals_singles(self, small_rmat):
        sources = np.array([1, 2, 3, 4])
        batch, _ = near_far_batch(small_rmat, sources)
        for i, s in enumerate(sources):
            single, _ = near_far(small_rmat, int(s))
            assert np.allclose(batch[i], single)

    def test_empty_batch(self, small_rmat):
        dist, stats = near_far_batch(small_rmat, np.array([], dtype=np.int64))
        assert dist.shape == (0, small_rmat.num_vertices)
        assert stats.relaxations == 0

    def test_heavy_stats_counted(self):
        # star graph: hub with out-degree 100 > threshold
        n = 101
        src = np.concatenate([[i for i in range(1, n)], np.zeros(n - 1, dtype=int)])
        dst = np.concatenate([np.zeros(n - 1, dtype=int), [i for i in range(1, n)]])
        g = CSRGraph.from_edges(n, src, dst, np.ones(2 * (n - 1)))
        _, stats = near_far(g, 1, heavy_degree=50)
        assert stats.heavy_relaxations > 0
        assert stats.child_launches > 0

    def test_no_heavy_below_threshold(self, small_planar):
        _, stats = near_far(small_planar, 0, heavy_degree=10**6)
        assert stats.heavy_relaxations == 0
        assert stats.child_launches == 0

    def test_stats_relaxations_at_least_reachable_edges(self, small_planar):
        _, stats = near_far(small_planar, 0)
        assert stats.relaxations >= small_planar.num_edges  # connected graph

    def test_invalid_delta(self, small_rmat):
        with pytest.raises(ValueError):
            near_far(small_rmat, 0, delta=-1.0)


def _two_edge_path() -> CSRGraph:
    return CSRGraph.from_edges(3, [0, 1], [1, 2], [37.0, 5.0])


class TestNearFarInputs:
    """Inputs that used to hang or mislead fail loudly, on both paths."""

    def test_nan_delta_rejected(self, near_far_path):
        # NaN passed ``delta <= 0`` and gave 43 finite distances of 189
        with pytest.raises(ValueError, match="delta"):
            near_far(rmat(200, 1600), 0, delta=float("nan"))

    def test_negative_heavy_degree_rejected(self, near_far_path, small_rmat):
        with pytest.raises(ValueError, match="heavy_degree"):
            near_far(small_rmat, 0, heavy_degree=-1)

    def test_small_delta_that_still_advances(self, near_far_path):
        dist, _ = near_far(_two_edge_path(), 0, delta=1e-12)
        assert dist.tolist() == [0.0, 37.0, 42.0]

    def test_split_that_rounds_onto_a_decimal_distance(self, near_far_path):
        """``81 * 0.1`` rounds to 8.1, so the split after the Far distance
        8.1, ``(floor(8.1 / 0.1) + 1) * 0.1``, does not pass it; the split
        steps once more to ``82 * 0.1`` instead of raising."""
        g = CSRGraph.from_edges(2, [0], [1], [8.1])
        assert not (np.floor(8.1 / 0.1) + 1) * 0.1 > 8.1
        dist, _ = near_far(g, 0, delta=0.1)
        assert np.array_equal(dist, oracle_sssp(g, [0])[0])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_decimal_weights_match_scipy(self, near_far_path, data):
        """Decimal Δ (one or two digits) and decimal weights that are
        whole multiples of it, each the double nearest its decimal value,
        so Δ is at least 1e-6 × the largest weight: every row equals
        scipy's. Their path sums keep landing on a split that rounds onto
        them (``81 · 0.1`` is 8.1)."""
        n = data.draw(st.integers(2, 16))
        num, den = data.draw(st.integers(1, 20)), data.draw(st.sampled_from([10, 100]))
        delta = num / den
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 100)),
            min_size=1, max_size=4 * n,
        ))
        src, dst, steps = (list(col) for col in zip(*edges))
        weights = np.array(steps) * num / den
        g = CSRGraph.from_edges(n, src, dst, weights)
        assert delta >= 1e-6 * weights.max()
        dist, _ = near_far_batch(g, np.arange(n), delta=delta)
        assert np.allclose(dist, oracle_sssp(g, np.arange(n)), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("jit", ["on", "off"])
    def test_stalled_split_raises(self, jit):
        """``(floor(37 / 1e-15) + 1) * 1e-15`` rounds to 37.0, so the split
        never passes the Far distance 37. A subprocess, because a loop
        without the check never returns."""
        code = (
            "from repro.graphs.csr import CSRGraph\n"
            "from repro.sssp import near_far\n"
            "near_far(CSRGraph.from_edges(3, [0, 1], [1, 2], [37.0, 5.0]), 0, delta=1e-15)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, REPRO_JIT=jit)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, timeout=60
        )
        assert proc.returncode != 0
        assert b"ValueError: delta=1e-15" in proc.stderr, proc.stderr[-500:]


def test_repro_jit_off_runs_the_numpy_loop(monkeypatch, small_rmat):
    monkeypatch.setenv("REPRO_JIT", "off")
    calls = []
    numpy_batch = near_far_module._numpy_batch

    def spy(*args):
        calls.append(args)
        return numpy_batch(*args)

    def unreachable(*args):
        raise AssertionError("the compiled kernel ran under REPRO_JIT=off")

    monkeypatch.setattr(near_far_module, "_numpy_batch", spy)
    monkeypatch.setattr(near_far_module, "_compiled_batch", unreachable)
    dist, _ = near_far_batch(small_rmat, np.array([0, 5]))
    assert len(calls) == 1
    assert np.allclose(dist, oracle_sssp(small_rmat, [0, 5]))


@st.composite
def real_weight_graphs(draw, max_n=24, max_edges=90):
    """CSR graphs built as drawn, without ``from_edges``' dedupe: real
    non-negative weights with exact zeros, duplicate edges and self-loops,
    and no edge between vertices ``[0, cut)`` and ``[cut, n)``."""
    n = draw(st.integers(1, max_n))
    cut = draw(st.integers(1, n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=max_edges))
    pairs = [(u, v) for u, v in pairs if (u < cut) == (v < cut)]
    pairs += pairs[: draw(st.integers(0, len(pairs)))]  # duplicates, new weights
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))
    w = np.array(draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs))), dtype=np.float64)
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRGraph(indptr, dst[order], w[order])


class TestBatchEqualsDijkstra:
    """Batched Near-Far rows are per-source Dijkstra rows, bit for bit, in
    float64 — the dynamic increase path writes them back as such. Both
    reach the minimum over paths of the left-to-right path sum, whatever
    the Δ and the order of relaxations."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(real_weight_graphs(), st.one_of(st.none(), st.floats(1e-3, 1e3)))
    def test_rows_bitwise_equal(self, graph, delta):
        n = graph.num_vertices
        dist, _ = near_far_batch(graph, np.arange(n), delta=delta)
        expected = np.stack([dijkstra(graph, s)[0] for s in range(n)])
        assert dist.dtype == expected.dtype == np.float64
        assert np.array_equal(dist, expected)


@pytest.mark.skipif(cc_compiler() is None, reason="needs a C compiler")
class TestCompiledMatchesNumpy:
    """The C batch kernel returns the numpy loop's distance bytes and
    ``NearFarStats``: same split levels, iterations and heavy accounting,
    with duplicate sources, zero weights, self-loops and duplicate edges."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(real_weight_graphs(), st.data())
    def test_same_bytes_and_stats(self, graph, data):
        kernels = load_cc_kernels()
        assert kernels is not None
        n = graph.num_vertices
        sources = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)),
            dtype=np.int64,
        )
        delta = data.draw(st.one_of(st.none(), st.floats(1e-3, 1e3), st.just(np.inf)))
        delta = suggest_delta(graph) if delta is None else delta
        heavy = data.draw(st.integers(0, 6))
        want_dist, want_stats = near_far_module._numpy_batch(graph, sources, delta, heavy)
        got_dist, got_stats = near_far_module._compiled_batch(
            kernels.near_far, graph, sources, delta, heavy
        )
        assert got_dist.tobytes() == want_dist.tobytes()
        assert got_stats == want_stats


class TestWorkEfficiency:
    def test_near_far_less_work_than_bellman_ford(self, small_road):
        """Near-Far's bucket ordering should beat Bellman-Ford's flood on
        high-diameter graphs (the paper's §II-B work-efficiency argument)."""
        _, nf = near_far(small_road, 0)
        _, bf = bellman_ford(small_road, 0)
        assert nf.relaxations < bf.relaxations
