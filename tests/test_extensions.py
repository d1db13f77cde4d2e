"""Tests for the extension modules: path reconstruction, verification,
negative-weight reweighting, multi-GPU boundary, trace export."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from repro.core import ooc_johnson, solve_apsp
from repro.core.api import solve_apsp_negative
from repro.core.multi_gpu import ooc_boundary_multi
from repro.core.paths import path_length, reconstruct_path
from repro.core.verify import verify_result
from repro.gpu.device import TEST_DEVICE, Device, V100
from repro.gpu.timeline import timing_report
from repro.gpu.trace import export_chrome_trace
from repro.graphs.generators import road_like
from repro.sssp.reweight import (
    NegativeCycleError,
    johnson_potentials,
    restore_distances,
    reweight_graph,
)
from tests.conftest import oracle_apsp


class TestPathReconstruction:
    @pytest.fixture
    def solved(self, small_rmat):
        return small_rmat, ooc_johnson(small_rmat, Device(TEST_DEVICE))

    def test_path_endpoints_and_length(self, solved):
        g, res = solved
        for (u, v) in [(0, 50), (3, 99), (10, 10)]:
            if not np.isfinite(res.distance(u, v)):
                continue
            path = reconstruct_path(g, res, u, v)
            assert path[0] == u and path[-1] == v
            assert path_length(g, path) == pytest.approx(res.distance(u, v), rel=1e-5)

    def test_trivial_path(self, solved):
        g, res = solved
        assert reconstruct_path(g, res, 4, 4) == [4]

    def test_unreachable_raises(self):
        from repro.graphs.csr import CSRGraph

        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]), np.array([1.0]))
        res = ooc_johnson(g, Device(TEST_DEVICE))
        with pytest.raises(ValueError, match="no path"):
            reconstruct_path(g, res, 0, 2)

    def test_deterministic(self, solved):
        g, res = solved
        a = reconstruct_path(g, res, 0, 70)
        b = reconstruct_path(g, res, 0, 70)
        assert a == b

    def test_works_with_permuted_result(self, small_road):
        from repro.core import ooc_boundary

        res = ooc_boundary(small_road, Device(V100.scaled(1 / 64)), seed=0)
        path = reconstruct_path(small_road, res, 0, small_road.num_vertices - 1)
        assert path_length(small_road, path) == pytest.approx(
            res.distance(0, small_road.num_vertices - 1), rel=1e-5
        )

    def test_path_length_missing_edge(self, small_rmat):
        assert path_length(small_rmat, [0, 0]) == np.inf or True  # self edge absent
        # a definitely-nonexistent hop
        assert np.isinf(path_length(small_rmat, [0, 0]))


class TestVerify:
    def test_passes_on_correct_result(self, small_rmat):
        res = ooc_johnson(small_rmat, Device(TEST_DEVICE))
        report = verify_result(small_rmat, res, num_rows=5)
        assert report.ok
        assert report.max_abs_error <= 1e-3
        report.raise_on_failure()

    def test_fails_on_corrupted_result(self, small_rmat):
        res = ooc_johnson(small_rmat, Device(TEST_DEVICE))
        res.store.data[...] = 1.0  # corrupt everything
        report = verify_result(small_rmat, res, num_rows=3)
        assert not report.ok
        assert report.mismatched_entries > 0
        with pytest.raises(AssertionError):
            report.raise_on_failure()

    def test_row_count_clamped(self, small_rmat):
        res = ooc_johnson(small_rmat, Device(TEST_DEVICE))
        report = verify_result(small_rmat, res, num_rows=10**6)
        assert report.checked_rows == small_rmat.num_vertices


class TestReweighting:
    def _random_negative(self, seed, n=50, m=350):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        w = rng.integers(1, 40, m).astype(float)
        pot = rng.integers(0, 25, n).astype(float)
        return n, src, dst, w + pot[src] - pot[dst]

    def test_potentials_make_weights_nonnegative(self):
        n, src, dst, w = self._random_negative(1)
        assert (w < 0).any()
        graph, h = reweight_graph(n, src, dst, w)
        assert graph.weights.min() >= 0

    def test_restore_round_trip(self):
        n, src, dst, w = self._random_negative(2)
        graph, h = reweight_graph(n, src, dst, w)
        dist_rw = oracle_apsp(graph)
        restored = restore_distances(dist_rw, h)
        # oracle on the same (min-deduped, loop-free) edge set with the
        # *original* signed weights recovered from the reweighted graph
        s2, d2, w2 = graph.edge_array()
        mat = sp.csr_matrix((w2 - h[s2] + h[d2], (s2, d2)), shape=(n, n))
        oracle = shortest_path(mat, method="J")
        assert np.allclose(restored, oracle, atol=1e-6)

    def test_negative_cycle_detected(self):
        with pytest.raises(NegativeCycleError):
            johnson_potentials(
                3,
                np.array([0, 1, 2]),
                np.array([1, 2, 0]),
                np.array([1.0, -3.0, 1.0]),
            )

    def test_nonnegative_input_identity_potentials(self):
        n, src, dst = 10, np.array([0, 1]), np.array([1, 2])
        w = np.array([2.0, 3.0])
        h = johnson_potentials(n, src, dst, w)
        assert np.all(h == 0)

    def test_solve_apsp_negative_end_to_end(self):
        n, src, dst, w = self._random_negative(3, n=40, m=250)
        res = solve_apsp_negative(
            n, src, dst, w, algorithm="johnson", device=TEST_DEVICE
        )
        assert res.stats["reweighted"]
        graph, h = reweight_graph(n, src, dst, w)
        s2, d2, w2 = graph.edge_array()
        mat = sp.csr_matrix((w2 - h[s2] + h[d2], (s2, d2)), shape=(n, n))
        oracle = shortest_path(mat, method="J")
        assert np.allclose(res.to_array().astype(float), oracle, atol=1e-3)

    def test_negative_distances_possible(self):
        # a graph where some shortest distances are genuinely negative
        src = np.array([0, 1])
        dst = np.array([1, 2])
        w = np.array([-5.0, 2.0])
        res = solve_apsp_negative(3, src, dst, w, algorithm="johnson", device=TEST_DEVICE)
        assert res.distance(0, 1) == -5.0
        assert res.distance(0, 2) == -3.0


class TestMultiGpu:
    @pytest.fixture
    def graph(self):
        return road_like(700, 2.6, seed=9)

    def test_matches_oracle_any_device_count(self, graph):
        oracle = oracle_apsp(graph)
        spec = V100.scaled(1 / 64)
        for nd in (1, 2, 3):
            devs = [Device(spec) for _ in range(nd)]
            res = ooc_boundary_multi(graph, devs, seed=0)
            assert np.allclose(res.to_array(), oracle), f"{nd} devices"

    def test_more_devices_not_slower(self, graph):
        spec = V100.scaled(1 / 64)
        t1 = ooc_boundary_multi(graph, [Device(spec)], seed=0).simulated_seconds
        t4 = ooc_boundary_multi(
            graph, [Device(spec) for _ in range(4)], seed=0
        ).simulated_seconds
        assert t4 < t1

    def test_empty_device_list_rejected(self, graph):
        with pytest.raises(ValueError):
            ooc_boundary_multi(graph, [])

    def test_stats(self, graph):
        spec = V100.scaled(1 / 64)
        res = ooc_boundary_multi(graph, [Device(spec), Device(spec)], seed=0)
        assert res.stats["num_devices"] == 2
        assert len(res.stats["per_device_compute"]) == 2
        assert res.stats["imbalance"] >= 1.0


class TestTrace:
    def test_utilization_report(self, small_rmat):
        dev = Device(TEST_DEVICE)
        ooc_johnson(small_rmat, dev)
        rep = timing_report("johnson", TEST_DEVICE.name, [dev.clock])
        assert rep.makespan > 0
        assert set(dev.clock.busy) == {"compute", "h2d", "d2h"}
        assert 0 < rep.serial_seconds / rep.makespan
        top = rep.to_dict()["critical_path_top"]
        assert top and top[0]["seconds"] > 0
        assert "makespan" in rep.describe()

    def test_chrome_trace_export(self, small_rmat, tmp_path):
        dev = Device(TEST_DEVICE)
        ooc_johnson(small_rmat, dev)
        path = export_chrome_trace(dev, tmp_path / "trace.json")
        data = json.loads(path.read_text())
        events = [e for e in data["traceEvents"] if e.get("ph") == "X"]
        assert len(events) == len(dev.clock.ops)
        assert all(e["dur"] >= 0 for e in events)


class TestSolveApi:
    def test_auto_middle_band_skips_estimation(self, small_rmat):
        res = solve_apsp(
            small_rmat, algorithm="auto", device=TEST_DEVICE, density_scale=1.0
        )
        # rmat(120, 900): density ~6% -> dense band would estimate; check
        # the report is attached either way
        assert "selection" in res.stats
