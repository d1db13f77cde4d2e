"""Unit tests for the vectorised worklist primitives."""

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.sssp.frontier import (
    edge_positions,
    expand_frontier,
    scatter_min,
    segmented_arange,
    suggest_delta,
)


class TestSegmentedArange:
    def test_basic(self):
        out = segmented_arange(np.array([3, 0, 2]))
        assert out.tolist() == [0, 1, 2, 0, 1]

    def test_empty(self):
        assert segmented_arange(np.array([], dtype=np.int64)).size == 0

    def test_all_zero(self):
        assert segmented_arange(np.array([0, 0])).size == 0

    def test_matches_python_loop(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 7, size=50)
        expected = [i for c in counts for i in range(c)]
        assert segmented_arange(counts).tolist() == expected


class TestExpandFrontier:
    def graph(self):
        return CSRGraph.from_edges(
            4,
            np.array([0, 0, 1, 2]),
            np.array([1, 2, 3, 3]),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )

    def test_gathers_all_edges(self):
        tails, heads, w = expand_frontier(self.graph(), np.array([0, 2]))
        assert tails.tolist() == [0, 0, 1]  # positions in the input array
        assert heads.tolist() == [1, 2, 3]
        assert w.tolist() == [1.0, 2.0, 4.0]

    def test_empty_frontier(self):
        tails, heads, w = expand_frontier(self.graph(), np.array([], dtype=np.int64))
        assert tails.size == heads.size == w.size == 0

    def test_vertex_without_edges(self):
        tails, heads, _ = expand_frontier(self.graph(), np.array([3]))
        assert heads.size == 0

    def test_duplicate_frontier_entries(self):
        tails, heads, _ = expand_frontier(self.graph(), np.array([0, 0]))
        assert heads.tolist() == [1, 2, 1, 2]
        assert tails.tolist() == [0, 0, 1, 1]

    def test_edge_positions_follow_input_order(self):
        deg, pos = edge_positions(self.graph(), np.array([2, 3, 0, 2]))
        assert deg.tolist() == [1, 0, 2, 1]
        assert pos.tolist() == [3, 0, 1, 3]
        deg, pos = edge_positions(self.graph(), np.array([], dtype=np.int64))
        assert deg.size == pos.size == 0


class TestScatterMin:
    def test_simple_improvement(self):
        target = np.array([10.0, 10.0, 10.0])
        idx = np.array([0, 2])
        improved, vals = scatter_min(target, idx, np.array([5.0, 20.0]))
        assert improved.tolist() == [0]
        assert vals.tolist() == [5.0]
        assert target.tolist() == [5.0, 10.0, 10.0]

    def test_duplicates_take_min(self):
        target = np.array([np.inf])
        improved, vals = scatter_min(
            target, np.array([0, 0, 0]), np.array([3.0, 1.0, 2.0])
        )
        assert target[0] == 1.0
        assert improved.tolist() == [0]
        assert vals.tolist() == [1.0]

    def test_no_improvement(self):
        target = np.array([1.0, 2.0])
        improved, _ = scatter_min(target, np.array([0, 1]), np.array([5.0, 5.0]))
        assert improved.size == 0
        assert target.tolist() == [1.0, 2.0]

    def test_no_candidate_improves(self):
        # duplicates, ties and losers: nothing decreases, nothing is written
        target = np.array([1.0, 2.0, np.inf])
        improved, vals = scatter_min(
            target, np.array([1, 0, 1, 0]), np.array([2.0, 7.0, 3.0, 1.0])
        )
        assert improved.size == 0 and vals.size == 0
        assert improved.dtype == np.int64 and vals.dtype == np.float64
        assert target.tolist() == [1.0, 2.0, np.inf]

    def test_nan_candidates_never_win(self):
        # a NaN loses to every value, and does not poison its group's minimum
        target = np.array([5.0, 5.0, np.inf])
        improved, vals = scatter_min(
            target, np.array([0, 0, 1, 2]), np.array([np.nan, 3.0, np.nan, np.nan])
        )
        assert improved.tolist() == [0]
        assert vals.tolist() == [3.0]
        assert target.tolist() == [3.0, 5.0, np.inf]

    def test_empty_input(self):
        target = np.array([1.0])
        improved, vals = scatter_min(
            target, np.array([], dtype=np.int64), np.array([])
        )
        assert improved.size == 0 and vals.size == 0

    def test_ties_do_not_count_as_improvement(self):
        target = np.array([3.0])
        improved, _ = scatter_min(target, np.array([0]), np.array([3.0]))
        assert improved.size == 0

    def test_matches_minimum_at(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            target = rng.random(50) * 10
            target[rng.integers(0, 50, size=5)] = np.inf
            before = target.copy()
            ref = target.copy()
            idx = rng.integers(0, 50, size=500)
            vals = rng.random(500) * 10
            vals[::7] = before[idx[::7]]  # ties never count as improvements
            improved, new_vals = scatter_min(target, idx, vals)
            np.minimum.at(ref, idx, vals)
            assert np.array_equal(target, ref)
            # the winners are exactly the positions that decreased, ascending
            assert improved.tolist() == np.flatnonzero(ref < before).tolist()
            assert np.array_equal(new_vals, ref[improved])


class TestSuggestDelta:
    def test_positive(self):
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]), np.array([4.0]))
        assert suggest_delta(g) > 0

    def test_empty_graph(self):
        g = CSRGraph.from_edges(3, np.array([]), np.array([]), np.array([]))
        assert suggest_delta(g) == 1.0
