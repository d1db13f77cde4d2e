"""Edge-case tests across the stack: zero weights, degenerate graphs,
dtype boundaries, and exotic-but-legal inputs."""

import numpy as np
import pytest

from repro.core import (
    ooc_boundary,
    ooc_floyd_warshall,
    ooc_johnson,
    solve_apsp,
)
from repro.gpu.device import TEST_DEVICE, Device, V100
from repro.graphs.csr import CSRGraph
from repro.sssp import bellman_ford, delta_stepping, dijkstra, near_far
from tests.conftest import oracle_apsp, oracle_sssp


def graph_of(n, edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    return CSRGraph.from_edges(n, src, dst, w)


class TestZeroWeights:
    """Weight 0 is legal (non-negative); label-correcting algorithms must
    not loop on zero-weight cycles."""

    @pytest.fixture
    def zero_cycle(self):
        # 0 -> 1 -> 2 -> 0 all weight 0, plus a weighted exit
        return graph_of(4, [(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0), (2, 3, 5.0)])

    def test_sssp_all_terminate_and_agree(self, zero_cycle):
        expected = oracle_sssp(zero_cycle, [0])[0]
        for fn in (dijkstra, bellman_ford, delta_stepping, near_far):
            dist, _ = fn(zero_cycle, 0)
            assert np.allclose(dist, expected), fn.__name__

    def test_apsp_drivers(self, zero_cycle):
        expected = oracle_apsp(zero_cycle)
        assert np.allclose(
            ooc_floyd_warshall(zero_cycle, Device(TEST_DEVICE)).to_array(), expected
        )
        assert np.allclose(
            ooc_johnson(zero_cycle, Device(TEST_DEVICE)).to_array(), expected
        )

    def test_all_zero_weights(self):
        g = graph_of(5, [(i, (i + 1) % 5, 0.0) for i in range(5)])
        dist = ooc_johnson(g, Device(TEST_DEVICE)).to_array()
        assert np.all(dist == 0.0)


class TestDegenerateGraphs:
    def test_single_vertex_all_drivers(self):
        g = graph_of(1, [])
        # at n = 1 the FW driver runs its one-block (in-core) plan
        for driver in (ooc_floyd_warshall, ooc_johnson):
            res = driver(g, Device(TEST_DEVICE))
            assert res.to_array().shape == (1, 1)
            assert res.to_array()[0, 0] == 0.0
        res = ooc_boundary(g, Device(V100.scaled(1 / 64)))
        assert res.to_array()[0, 0] == 0.0

    def test_edgeless_graph(self):
        g = graph_of(6, [])
        res = ooc_johnson(g, Device(TEST_DEVICE))
        arr = res.to_array()
        assert np.all(np.diag(arr) == 0)
        off = ~np.eye(6, dtype=bool)
        assert np.all(np.isinf(arr[off]))

    def test_two_vertices_one_edge(self):
        g = graph_of(2, [(0, 1, 7.0)])
        res = ooc_floyd_warshall(g, Device(TEST_DEVICE))
        assert res.distance(0, 1) == 7.0
        assert np.isinf(res.distance(1, 0))

    def test_complete_graph(self):
        n = 30
        edges = [(i, j, float(1 + (i * 7 + j) % 9)) for i in range(n) for j in range(n) if i != j]
        g = graph_of(n, edges)
        expected = oracle_apsp(g)
        assert np.allclose(ooc_johnson(g, Device(TEST_DEVICE)).to_array(), expected)
        assert np.allclose(ooc_floyd_warshall(g, Device(TEST_DEVICE)).to_array(), expected)

    def test_self_loops_ignored_everywhere(self):
        g = graph_of(3, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0), (1, 2, 3.0)])
        res = solve_apsp(g, algorithm="johnson", device=TEST_DEVICE)
        assert res.distance(0, 0) == 0.0
        assert res.distance(0, 2) == 5.0

    def test_long_path_graph(self):
        """A pure path exercises the worst case for bucket advancement."""
        n = 300
        g = graph_of(n, [(i, i + 1, 10.0) for i in range(n - 1)])
        dist, stats = near_far(g, 0)
        assert dist[n - 1] == 10.0 * (n - 1)
        assert stats.splits_advanced > 0

    def test_star_graph_boundary(self):
        """A star has a 1-vertex separator — boundary algorithm heaven."""
        n = 120
        edges = [(0, i, 1.0) for i in range(1, n)] + [(i, 0, 1.0) for i in range(1, n)]
        g = graph_of(n, edges)
        res = ooc_boundary(g, Device(V100.scaled(1 / 64)), num_components=4)
        assert np.allclose(res.to_array(), oracle_apsp(g))


class TestNumericBoundaries:
    def test_large_integer_weights_exact_in_float32(self):
        # path sums approach but stay below 2^24, the float32 integer limit
        g = graph_of(3, [(0, 1, 8_000_000.0), (1, 2, 8_000_000.0)])
        res = ooc_floyd_warshall(g, Device(TEST_DEVICE))
        assert res.distance(0, 2) == 16_000_000.0

    def test_fractional_weights(self):
        g = graph_of(3, [(0, 1, 0.5), (1, 2, 0.25)])
        res = ooc_johnson(g, Device(TEST_DEVICE))
        assert res.distance(0, 2) == pytest.approx(0.75)

    def test_mixed_magnitudes(self):
        g = graph_of(4, [(0, 1, 1e-3), (1, 2, 1e3), (2, 3, 1.0), (0, 3, 1e4)])
        expected = oracle_apsp(g)
        got = ooc_johnson(g, Device(TEST_DEVICE)).to_array()
        assert np.allclose(got, expected, rtol=1e-5)


class TestCliExtras:
    def test_plan_command(self, capsys):
        from repro.cli import main

        rc = main(["verify-plan", "road:n=500,deg=2.6,seed=1", "--scale", "0.015625"])
        out = capsys.readouterr().out
        assert "out of core" in out or "fits in core" in out
        assert "boundary: VERIFIED" in out and "n_row=" in out
        # a ragged 457+7 FW tiling: its exact volume checks pass
        assert rc == 0
        assert "floyd-warshall: VERIFIED" in out

    def test_report_command_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.bench import ExperimentRecord
        from repro.cli import main

        rec = ExperimentRecord("fig2", "t", "e")
        rec.add(a=1)
        rec.save()
        assert main(["report", "--stdout"]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_report_command_writes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.cli import main

        assert main(["report"]) == 0
        assert (tmp_path / "RESULTS.md").exists()
