"""Tests for the plan parameters ``verify_plan`` derives and explains."""

from repro.gpu.device import TEST_DEVICE, V100
from repro.graphs.generators import erdos_renyi, rmat, road_like
from repro.verifyplan import verify_plan


SPEC = V100.scaled(1 / 64)


class TestExplainPlan:
    def test_all_algorithms_reported(self):
        g = road_like(900, 2.6, seed=1)
        ver = verify_plan(g, SPEC)
        assert set(ver.audits) == {"floyd-warshall", "johnson", "boundary", "multi-gpu"}

    def test_feasible_plans_match_drivers(self):
        g = road_like(900, 2.6, seed=1)
        ver = verify_plan(g, SPEC, seed=0)
        from repro.core import ooc_boundary, ooc_floyd_warshall, ooc_johnson
        from repro.gpu.device import Device

        fw = ver.audits["floyd-warshall"].parameters
        res_f = ooc_floyd_warshall(g, Device(SPEC))
        assert fw["block_size"] == res_f.stats["block_size"]
        assert fw["num_blocks"] == res_f.stats["num_blocks"]
        johnson = ver.audits["johnson"].parameters
        res_j = ooc_johnson(g, Device(SPEC))
        assert johnson["batch_size"] == res_j.stats["batch_size"]
        assert johnson["num_batches"] == res_j.stats["num_batches"]
        boundary = ver.audits["boundary"].parameters
        res_b = ooc_boundary(g, Device(SPEC), seed=0)
        assert boundary["num_components"] == res_b.stats["num_components"]
        assert boundary["num_boundary"] == res_b.stats["num_boundary"]

    def test_working_sets_fit_device(self):
        # the working set each plan needs is its proven peak residency
        g = road_like(900, 2.6, seed=1)
        ver = verify_plan(g, SPEC)
        for audit in ver.audits.values():
            if audit.feasible:
                assert 0 < audit.peak_bytes <= SPEC.memory_bytes

    def test_boundary_infeasible_reported_not_raised(self):
        g = rmat(1200, 40_000, seed=2)  # expander: huge boundary
        ver = verify_plan(g, SPEC, algorithms=["boundary"])
        audit = ver.audits["boundary"]
        assert not audit.feasible
        assert "boundary matrix" in audit.reason
        assert "infeasible" in audit.describe()

    def test_output_fits_flag(self):
        small = erdos_renyi(100, 500, seed=3)
        big = erdos_renyi(2000, 8000, seed=3)
        fits = verify_plan(small, SPEC, algorithms=["fw"])
        assert fits.header["output_bytes"] <= fits.header["device_bytes"]
        assert "(fits in core)" in fits.describe().splitlines()[0]
        spills = verify_plan(big, SPEC, algorithms=["fw"])
        assert spills.header["output_bytes"] > spills.header["device_bytes"]
        assert "(out of core)" in spills.describe().splitlines()[0]

    def test_describe_is_readable(self):
        g = road_like(500, 2.6, seed=4)
        text = verify_plan(g, SPEC).describe()
        assert "out of core" in text or "fits in core" in text
        assert "block_size=" in text
        assert "batch_size=" in text and "occupancy=" in text
        assert "n_row=" in text
        assert "predicted makespan" in text

    def test_johnson_infeasible_on_tiny_device(self):
        g = erdos_renyi(600, 50_000, seed=5)
        ver = verify_plan(g, TEST_DEVICE, algorithms=["johnson"])
        assert not ver.audits["johnson"].feasible


class TestPlannerEdgeCases:
    """Plan parameters at the tiling boundaries."""

    def test_block_size_not_dividing_n(self):
        g = road_like(220, 2.6, seed=1)  # n=200, block 161: ragged tail
        audit = verify_plan(g, TEST_DEVICE).audits["floyd-warshall"]
        n, b = g.num_vertices, audit.parameters["block_size"]
        assert n % b != 0
        assert audit.parameters["num_blocks"] == -(-n // b)
        # the exact d2h bound (n_d·n²) only holds if the ragged tiling is
        # handled correctly
        assert audit.ok

    def test_single_block_graph(self):
        g = rmat(110, 800, seed=2)  # whole matrix fits one FW block
        audit = verify_plan(g, TEST_DEVICE).audits["floyd-warshall"]
        assert audit.parameters["num_blocks"] == 1
        assert audit.ok

    def test_only_one_algorithm_feasible(self):
        g = erdos_renyi(600, 50_000, seed=5)  # dense expander on tiny device
        ver = verify_plan(g, TEST_DEVICE)
        feasible = [n for n, a in ver.audits.items() if a.feasible]
        assert feasible == ["floyd-warshall"]
        assert ver.ok  # the one feasible plan verifies
