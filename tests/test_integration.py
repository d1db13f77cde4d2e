"""End-to-end integration tests: full user flows across subsystems."""

import numpy as np
import pytest

from repro.core import solve_apsp
from repro.core.paths import path_length, reconstruct_path
from repro.core.verify import verify_result
from repro.gpu.device import Device, V100
from repro.gpu.timeline import timing_report
from repro.graphs.io import read_matrix_market, write_matrix_market
from repro.graphs.suite import get_suite_graph
from tests.conftest import oracle_apsp


SPEC = V100.scaled(1 / 64)


class TestFullFlows:
    def test_file_to_distances_pipeline(self, tmp_path, small_planar):
        """mtx file -> load -> auto-solve -> verify -> query a path."""
        path = tmp_path / "mesh.mtx"
        write_matrix_market(small_planar, path)
        graph = read_matrix_market(path)
        result = solve_apsp(
            graph, algorithm="auto", device=Device(SPEC), density_scale=1 / 64
        )
        verify_result(graph, result, num_rows=4).raise_on_failure()
        p = reconstruct_path(graph, result, 0, graph.num_vertices - 1)
        assert path_length(graph, p) == pytest.approx(
            result.distance(0, graph.num_vertices - 1), rel=1e-5
        )

    def test_suite_graph_auto_flow(self):
        """Suite stand-in -> selector -> solve -> oracle check."""
        graph = get_suite_graph("luxembourg_osm", 1 / 128)
        device = Device(V100.scaled(1 / 128))
        result = solve_apsp(
            graph, algorithm="auto", device=device, density_scale=1 / 128
        )
        assert result.stats["selection"].algorithm == "boundary"
        assert np.allclose(result.to_array(), oracle_apsp(graph))

    def test_device_reuse_across_runs(self, small_rmat, small_planar):
        """One device object can serve several solves; clocks reset."""
        device = Device(SPEC)
        r1 = solve_apsp(small_rmat, algorithm="johnson", device=device)
        used_after_first = device.memory.used
        r2 = solve_apsp(small_planar, algorithm="johnson", device=device)
        assert used_after_first == 0  # runs free their allocations
        assert np.allclose(r1.to_array(), oracle_apsp(small_rmat))
        assert np.allclose(r2.to_array(), oracle_apsp(small_planar))

    def test_trace_after_solve(self, small_rmat):
        device = Device(SPEC)
        solve_apsp(small_rmat, algorithm="floyd-warshall", device=device)
        rep = timing_report("floyd-warshall", SPEC.name, [device.clock])
        assert rep.compute_seconds > 0
        assert rep.h2d_seconds > 0 and rep.d2h_seconds > 0

    def test_disk_flow_row_queries(self, small_road, tmp_path):
        result = solve_apsp(
            small_road,
            algorithm="johnson",
            device=Device(SPEC),
            store_mode="disk",
            store_dir=tmp_path,
        )
        oracle = oracle_apsp(small_road)
        for v in (0, 17, small_road.num_vertices - 1):
            assert np.allclose(result.row(v), oracle[v])

    def test_simulated_time_reproducible(self, small_rmat):
        """Identical runs give bit-identical simulated times."""
        t1 = solve_apsp(small_rmat, algorithm="johnson", device=Device(SPEC)).simulated_seconds
        t2 = solve_apsp(small_rmat, algorithm="johnson", device=Device(SPEC)).simulated_seconds
        assert t1 == t2

    def test_three_algorithms_disagree_on_time_not_distances(self, small_road):
        times = {}
        arrays = {}
        for alg in ("floyd-warshall", "johnson", "boundary"):
            res = solve_apsp(small_road, algorithm=alg, device=Device(SPEC), seed=0)
            times[alg] = res.simulated_seconds
            arrays[alg] = res.to_array()
        assert np.allclose(arrays["floyd-warshall"], arrays["johnson"])
        assert np.allclose(arrays["johnson"], arrays["boundary"])
        assert len({round(t, 12) for t in times.values()}) == 3  # distinct times
