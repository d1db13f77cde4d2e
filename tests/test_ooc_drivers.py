"""Integration tests for the three out-of-core APSP drivers.

Every driver must produce exact shortest distances on every graph family
while respecting the device memory capacity, and the three must agree with
each other (the paper's implementations are interchangeable on results).
"""

import numpy as np
import pytest

from repro.core import (
    BoundaryInfeasibleError,
    ooc_boundary,
    ooc_floyd_warshall,
    ooc_johnson,
    plan_batch_size,
    plan_boundary,
    plan_fw_block_size,
    solve_apsp,
)
from repro.gpu.device import TEST_DEVICE, Device, V100
from repro.gpu.errors import OutOfMemoryError
from repro.graphs.generators import erdos_renyi, planar_like, rmat, road_like
from tests.conftest import oracle_apsp


@pytest.fixture
def scaled_v100():
    return V100.scaled(1 / 64)


class TestOocFloydWarshall:
    def test_correct_on_all_families(self, any_graph, device):
        res = ooc_floyd_warshall(any_graph, device)
        assert np.allclose(res.to_array(), oracle_apsp(any_graph))
        device.clock.validate()

    def test_goes_out_of_core(self, device):
        g = erdos_renyi(300, 2500, seed=42)  # 300² floats exceed the planner's tile budget
        res = ooc_floyd_warshall(g, device)
        assert res.stats["num_blocks"] >= 2
        assert np.allclose(res.to_array(), oracle_apsp(g))

    def test_memory_capacity_respected(self, small_rmat, device):
        ooc_floyd_warshall(small_rmat, device)
        assert device.memory.peak <= device.memory.capacity

    def test_memory_all_freed(self, small_rmat, device):
        ooc_floyd_warshall(small_rmat, device)
        assert device.memory.used == 0

    def test_overlap_not_slower(self, small_rmat):
        t = {}
        for overlap in (False, True):
            dev = Device(TEST_DEVICE)
            res = ooc_floyd_warshall(small_rmat, dev, overlap=overlap)
            t[overlap] = res.simulated_seconds
        assert t[True] <= t[False] * 1.02

    def test_explicit_block_size(self, small_rmat, device):
        res = ooc_floyd_warshall(small_rmat, device, block_size=40)
        assert res.stats["block_size"] == 40
        assert np.allclose(res.to_array(), oracle_apsp(small_rmat))

    def test_oversized_block_raises_oom(self, device):
        g = erdos_renyi(250, 2000, seed=43)
        with pytest.raises(OutOfMemoryError):
            # a single 250² tile fits, but stage 3 needs several
            ooc_floyd_warshall(g, device, block_size=250)

    def test_plan_block_size_fits(self, device):
        b = plan_fw_block_size(1000, device.spec, overlap=True)
        assert 5 * b * b * 4 <= device.spec.memory_bytes

    def test_data_movement_complexity(self, device):
        """Moved bytes should be ≈ 3·n_d·n²·W (Table I: O(n_d·n²))."""
        g = erdos_renyi(150, 1500, seed=3)
        res = ooc_floyd_warshall(g, device, overlap=False)
        nd = res.stats["num_blocks"]
        n = g.num_vertices
        total = res.stats["bytes_h2d"] + res.stats["bytes_d2h"]
        assert total == pytest.approx(3 * nd * n * n * 4, rel=0.35)

    def test_disk_store_mode(self, small_rmat, device, tmp_path):
        res = ooc_floyd_warshall(small_rmat, device, store_mode="disk", store_dir=tmp_path)
        assert np.allclose(res.to_array(), oracle_apsp(small_rmat))


class TestOocJohnson:
    def test_correct_on_all_families(self, any_graph, device):
        res = ooc_johnson(any_graph, device)
        assert np.allclose(res.to_array(), oracle_apsp(any_graph))
        device.clock.validate()

    def test_batched(self, small_rmat, device):
        res = ooc_johnson(small_rmat, device)
        assert res.stats["num_batches"] >= 2
        assert res.stats["batch_size"] * res.stats["num_batches"] >= small_rmat.num_vertices

    def test_memory_capacity_respected(self, small_rmat, device):
        ooc_johnson(small_rmat, device)
        assert device.memory.peak <= device.memory.capacity

    def test_dp_on_off_same_distances(self, small_rmat):
        results = {}
        for dp in (False, True):
            dev = Device(TEST_DEVICE)
            results[dp] = ooc_johnson(small_rmat, dev, dynamic_parallelism=dp)
        assert np.allclose(results[True].to_array(), results[False].to_array())

    def test_dp_helps_scale_free_low_occupancy(self):
        """Scale-free graph forced to tiny batches: DP must speed it up."""
        g = rmat(200, 6000, seed=4)
        times = {}
        for dp in (False, True):
            dev = Device(TEST_DEVICE)
            res = ooc_johnson(g, dev, batch_size=1, dynamic_parallelism=dp, heavy_degree=16)
            times[dp] = res.simulated_seconds
        assert times[True] < times[False]

    def test_explicit_batch_size(self, small_rmat, device):
        res = ooc_johnson(small_rmat, device, batch_size=7)
        assert res.stats["batch_size"] == 7
        assert np.allclose(res.to_array(), oracle_apsp(small_rmat))

    def test_plan_batch_size_raises_when_graph_too_big(self):
        g = erdos_renyi(500, 40000, seed=5)
        with pytest.raises(OutOfMemoryError):
            plan_batch_size(g, TEST_DEVICE)

    def test_batch_size_formula(self, small_rmat, device):
        bat = plan_batch_size(small_rmat, device.spec, queue_factor=4.0, num_row_buffers=2)
        m, n = small_rmat.num_edges, small_rmat.num_vertices
        s = 4 * (n + 1) + 8 * m
        expected = (device.spec.memory_bytes - s) // (4.0 * m * 4 + 2 * n * 4)
        assert bat == min(n, int(expected))

    def test_overlap_not_slower(self, small_rmat):
        t = {}
        for overlap in (False, True):
            dev = Device(TEST_DEVICE)
            t[overlap] = ooc_johnson(small_rmat, dev, overlap=overlap).simulated_seconds
        assert t[True] <= t[False] * 1.02


class TestOocBoundary:
    def test_correct_on_road(self, small_road, scaled_v100):
        res = ooc_boundary(small_road, Device(scaled_v100))
        assert np.allclose(res.to_array(), oracle_apsp(small_road))

    def test_correct_on_planar(self, small_planar, scaled_v100):
        dev = Device(scaled_v100)
        res = ooc_boundary(small_planar, dev)
        assert np.allclose(res.to_array(), oracle_apsp(small_planar))
        dev.clock.validate()

    def test_correct_on_disconnected(self, scaled_v100):
        a = planar_like(60, seed=30)
        sa, da, wa = a.edge_array()
        from repro.graphs.csr import CSRGraph

        g = CSRGraph.from_edges(
            120,
            np.concatenate([sa, sa + 60]),
            np.concatenate([da, da + 60]),
            np.concatenate([wa, wa]),
        )
        res = ooc_boundary(g, Device(scaled_v100))
        assert np.allclose(res.to_array(), oracle_apsp(g))

    @pytest.mark.parametrize("batch,overlap", [(False, False), (True, False), (True, True)])
    def test_optimization_variants_agree(self, small_road, scaled_v100, batch, overlap):
        res = ooc_boundary(
            small_road, Device(scaled_v100),
            batch_transfers=batch, overlap=overlap,
        )
        assert np.allclose(res.to_array(), oracle_apsp(small_road))

    def test_batching_faster_than_naive(self, scaled_v100):
        g = road_like(600, 2.6, seed=31)
        naive = ooc_boundary(g, Device(scaled_v100), batch_transfers=False, overlap=False)
        batched = ooc_boundary(g, Device(scaled_v100), batch_transfers=True, overlap=False)
        assert batched.simulated_seconds < naive.simulated_seconds

    def test_overlap_not_slower(self, scaled_v100):
        g = road_like(600, 2.6, seed=31)
        a = ooc_boundary(g, Device(scaled_v100), batch_transfers=True, overlap=False)
        b = ooc_boundary(g, Device(scaled_v100), batch_transfers=True, overlap=True)
        assert b.simulated_seconds <= a.simulated_seconds * 1.02

    def test_memory_capacity_respected(self, small_road, scaled_v100):
        dev = Device(scaled_v100)
        ooc_boundary(small_road, dev)
        assert dev.memory.peak <= dev.memory.capacity

    def test_explicit_num_components(self, small_road, scaled_v100):
        res = ooc_boundary(small_road, Device(scaled_v100), num_components=5)
        assert res.stats["num_components"] == 5
        assert np.allclose(res.to_array(), oracle_apsp(small_road))

    def test_infeasible_on_dense_graph_tiny_device(self):
        # dense graph: every vertex is boundary at any k, so the boundary
        # matrix can never fit — the paper's Johnson-fallback case
        g = erdos_renyi(800, 40000, seed=32, symmetric=True)
        with pytest.raises(BoundaryInfeasibleError):
            plan_boundary(g, TEST_DEVICE)

    def test_plan_reuse(self, small_road, scaled_v100):
        plan = plan_boundary(small_road, scaled_v100, seed=0)
        res = ooc_boundary(small_road, Device(scaled_v100), plan=plan)
        assert res.stats["num_components"] == plan.num_components

    def test_stats_fields(self, small_road, scaled_v100):
        res = ooc_boundary(small_road, Device(scaled_v100))
        for key in ("num_components", "num_boundary", "n_row", "bytes_d2h"):
            assert key in res.stats


class TestCrossAlgorithmAgreement:
    def test_all_three_agree(self, small_road, scaled_v100):
        fw = ooc_floyd_warshall(small_road, Device(TEST_DEVICE))
        jo = ooc_johnson(small_road, Device(TEST_DEVICE))
        bd = ooc_boundary(small_road, Device(scaled_v100))
        assert np.allclose(fw.to_array(), jo.to_array())
        assert np.allclose(jo.to_array(), bd.to_array())


class TestSolveApsp:
    def test_explicit_algorithms(self, small_rmat, device):
        for alg in ("floyd-warshall", "johnson"):
            res = solve_apsp(small_rmat, algorithm=alg, device=Device(TEST_DEVICE))
            assert res.algorithm == alg
            assert np.allclose(res.to_array(), oracle_apsp(small_rmat))

    def test_boundary_via_api(self, small_road, scaled_v100):
        res = solve_apsp(small_road, algorithm="boundary", device=scaled_v100)
        assert np.allclose(res.to_array(), oracle_apsp(small_road))

    def test_auto_selection_attaches_report(self, small_road, scaled_v100):
        res = solve_apsp(small_road, algorithm="auto", device=scaled_v100, density_scale=1 / 64)
        assert "selection" in res.stats
        assert res.algorithm == res.stats["selection"].algorithm
        assert np.allclose(res.to_array(), oracle_apsp(small_road))

    def test_unknown_algorithm(self, small_rmat):
        with pytest.raises(ValueError):
            solve_apsp(small_rmat, algorithm="bogus")

    def test_spec_accepted_as_device(self, small_rmat):
        res = solve_apsp(small_rmat, algorithm="johnson", device=TEST_DEVICE)
        assert np.allclose(res.to_array(), oracle_apsp(small_rmat))
