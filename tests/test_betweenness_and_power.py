"""Tests for Brandes betweenness centrality."""

import networkx as nx
import numpy as np
import pytest

from repro.analysis.betweenness import betweenness_centrality
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, planar_like, rmat
from tests.test_analysis import to_networkx


class TestBetweenness:
    @pytest.mark.parametrize("maker", [
        lambda: planar_like(60, seed=1),
        lambda: rmat(70, 600, seed=2),
        lambda: erdos_renyi(50, 400, seed=3),
    ])
    def test_matches_networkx(self, maker):
        g = maker()
        ours = betweenness_centrality(g, normalized=True)
        theirs = nx.betweenness_centrality(
            to_networkx(g), weight="weight", normalized=True
        )
        for v, b in theirs.items():
            assert ours[v] == pytest.approx(b, abs=1e-9), v

    def test_path_graph_analytic(self):
        # directed path 0->1->2->3: betweenness counts interior pairs
        g = CSRGraph.from_edges(
            4, np.array([0, 1, 2]), np.array([1, 2, 3]), np.ones(3)
        )
        b = betweenness_centrality(g, normalized=False)
        # vertex 1 lies on paths 0->2, 0->3; vertex 2 on 0->3, 1->3
        assert b[0] == 0 and b[3] == 0
        assert b[1] == pytest.approx(2.0)
        assert b[2] == pytest.approx(2.0)

    def test_equal_path_splitting(self):
        # diamond: 0->1->3 and 0->2->3 with equal weight: sigma splits
        g = CSRGraph.from_edges(
            4,
            np.array([0, 0, 1, 2]),
            np.array([1, 2, 3, 3]),
            np.ones(4),
        )
        b = betweenness_centrality(g, normalized=False)
        assert b[1] == pytest.approx(0.5)
        assert b[2] == pytest.approx(0.5)

    def test_sampled_estimate_close(self):
        g = planar_like(150, seed=4)
        exact = betweenness_centrality(g)
        approx = betweenness_centrality(g, num_pivots=60, seed=5)
        # unbiased estimator: top-decile overlap and bounded error
        top_exact = set(np.argsort(-exact)[:15].tolist())
        top_approx = set(np.argsort(-approx)[:15].tolist())
        assert len(top_exact & top_approx) >= 8
        assert np.abs(approx - exact).max() < 0.15

    def test_tiny_graphs(self):
        g = CSRGraph.from_edges(2, np.array([0]), np.array([1]), np.ones(1))
        assert np.all(betweenness_centrality(g) == 0)

    def test_pivots_ge_n_equals_exact(self):
        g = rmat(40, 250, seed=6)
        assert np.allclose(
            betweenness_centrality(g, num_pivots=1000),
            betweenness_centrality(g),
        )
