"""Unit tests for the CSR graph type."""

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph


def build(n, edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    return CSRGraph.from_edges(n, src, dst, w)


class TestConstruction:
    def test_basic_counts(self):
        g = build(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0)])
        assert g.num_vertices == 4
        assert g.num_edges == 3
        assert g.density == pytest.approx(3 / 16)

    def test_self_loops_dropped(self):
        g = build(3, [(0, 0, 1.0), (0, 1, 2.0), (2, 2, 5.0)])
        assert g.num_edges == 1

    def test_duplicate_edges_keep_min(self):
        g = build(3, [(0, 1, 5.0), (0, 1, 2.0), (0, 1, 9.0)])
        assert g.num_edges == 1
        _, w = g.neighbors(0)
        assert w[0] == 2.0

    def test_duplicate_edges_sum_mode(self):
        g = CSRGraph.from_edges(
            3,
            np.array([0, 0]),
            np.array([1, 1]),
            np.array([2.0, 3.0]),
            dedupe="sum",
        )
        _, w = g.neighbors(0)
        assert w[0] == 5.0

    def test_empty_graph(self):
        g = CSRGraph.from_edges(5, np.array([]), np.array([]), np.array([]))
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.to_dense().shape == (5, 5)

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build(2, [(0, 5, 1.0)])
        with pytest.raises(ValueError):
            build(2, [(5, 0, 1.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            build(2, [(0, 1, -1.0)])

    def test_nan_weight_rejected(self):
        # a 3-cycle with one NaN edge: ``min() < 0`` is False for NaN
        with pytest.raises(ValueError, match="NaN"):
            build(3, [(0, 1, 1.0), (1, 2, np.nan), (2, 0, 1.0)])
        with pytest.raises(ValueError, match="NaN"):
            CSRGraph(np.array([0, 1, 2, 3]), np.array([1, 2, 0]), np.array([1.0, np.nan, 1.0]))
        # a NaN that dedupe or self-loop removal would drop is still refused
        with pytest.raises(ValueError, match="NaN"):
            build(2, [(0, 1, 1.0), (0, 1, np.nan)])
        with pytest.raises(ValueError, match="NaN"):
            build(2, [(0, 1, 1.0), (1, 1, np.nan)])

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))

    def test_indices_weights_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([0, 1]), np.array([1.0]))


class TestAccessors:
    def test_neighbors_sorted_within_row(self):
        g = build(4, [(0, 3, 1.0), (0, 1, 2.0), (0, 2, 3.0)])
        nbrs, w = g.neighbors(0)
        assert list(nbrs) == [1, 2, 3]
        assert list(w) == [2.0, 3.0, 1.0]

    def test_out_degree(self):
        g = build(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        assert g.out_degree(0) == 2
        assert g.out_degree(2) == 0
        assert list(g.out_degree()) == [2, 1, 0]

    def test_edge_array_round_trip(self):
        g = build(5, [(0, 1, 2.0), (3, 4, 7.0), (1, 0, 1.0)])
        src, dst, w = g.edge_array()
        g2 = CSRGraph.from_edges(5, src, dst, w)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)
        assert np.array_equal(g.weights, g2.weights)

    def test_to_dense(self):
        g = build(3, [(0, 1, 4.0), (1, 2, 5.0)])
        d = g.to_dense()
        assert d[0, 1] == 4.0
        assert d[1, 2] == 5.0
        assert d[0, 2] == np.inf
        assert d[0, 0] == 0.0 and d[1, 1] == 0.0

    def test_to_dense_dtype(self):
        g = build(2, [(0, 1, 4.0)])
        assert g.to_dense(dtype=np.float32).dtype == np.float32

    def test_nbytes_positive(self):
        g = build(3, [(0, 1, 1.0)])
        assert g.nbytes > 0


class TestTransforms:
    def test_reverse(self):
        g = build(3, [(0, 1, 2.0), (1, 2, 3.0)])
        r = g.reverse()
        nbrs, w = r.neighbors(1)
        assert list(nbrs) == [0]
        assert w[0] == 2.0

    def test_reverse_involution(self):
        g = build(4, [(0, 1, 2.0), (1, 3, 3.0), (2, 0, 1.0)])
        rr = g.reverse().reverse()
        assert np.array_equal(g.indices, rr.indices)
        assert np.array_equal(g.weights, rr.weights)

    def test_symmetrize(self):
        g = build(3, [(0, 1, 2.0)])
        s = g.symmetrize()
        assert s.num_edges == 2
        nbrs, _ = s.neighbors(1)
        assert list(nbrs) == [0]

    def test_symmetrize_keeps_min_of_antiparallel(self):
        g = build(2, [(0, 1, 5.0), (1, 0, 2.0)])
        s = g.symmetrize()
        _, w01 = s.neighbors(0)
        _, w10 = s.neighbors(1)
        assert w01[0] == 2.0 and w10[0] == 2.0

    def test_permute_identity(self):
        g = build(3, [(0, 1, 2.0), (1, 2, 3.0)])
        p = g.permute(np.arange(3))
        assert np.array_equal(p.indices, g.indices)

    def test_permute_relabels(self):
        g = build(3, [(0, 1, 2.0)])
        p = g.permute(np.array([2, 0, 1]))  # old 0 -> new 2, old 1 -> new 0
        nbrs, w = p.neighbors(2)
        assert list(nbrs) == [0]
        assert w[0] == 2.0

    def test_permute_rejects_non_permutation(self):
        g = build(3, [(0, 1, 2.0)])
        with pytest.raises(ValueError):
            g.permute(np.array([0, 0, 1]))

    def test_subgraph(self):
        g = build(5, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 3.0), (1, 4, 9.0)])
        sub = g.subgraph(np.array([1, 2, 4]))
        # local ids: 1->0, 2->1, 4->2; edges (1,2) and (1,4) survive
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        nbrs, _ = sub.neighbors(0)
        assert sorted(nbrs.tolist()) == [1, 2]

    def test_scipy_round_trip(self):
        g = build(4, [(0, 1, 1.5), (2, 3, 2.5), (3, 0, 0.5)])
        g2 = CSRGraph.from_scipy(g.to_scipy())
        assert np.allclose(g.to_dense(), g2.to_dense())

    def test_with_name(self):
        g = build(2, [(0, 1, 1.0)]).with_name("xyz")
        assert g.name == "xyz"
