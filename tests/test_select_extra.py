"""Additional selector coverage: K80 calibration, report serialisation,
cost-model structure, and transfer-term consistency."""

import numpy as np
import pytest

from repro.core import ooc_boundary, ooc_johnson
from repro.gpu.device import Device, K80, V100
from repro.graphs.generators import erdos_renyi, road_like
from repro.core.ooc_fw import plan_fw_block_size
from repro.select import (
    Calibration,
    Selector,
    estimate_boundary,
    estimate_fw,
    estimate_johnson,
)
from repro.verifyplan import fw_traffic


K80_SPEC = K80.scaled(1 / 64)


class TestK80Selection:
    @pytest.fixture(scope="class")
    def selector(self):
        return Selector(
            K80_SPEC,
            Calibration(K80_SPEC, fw_n0=128, boundary_n0=256),
            density_scale=1 / 64,
            seed=0,
        )

    def test_small_separator_pick(self, selector):
        g = road_like(700, 2.6, seed=51)
        report = selector.select(g)
        assert report.algorithm == "boundary"

    def test_selection_matches_measured_on_k80(self, selector):
        g = road_like(700, 2.6, seed=51)
        report = selector.select(g)
        t_j = ooc_johnson(g, Device(K80_SPEC)).simulated_seconds
        t_b = ooc_boundary(g, Device(K80_SPEC), seed=0).simulated_seconds
        best = "johnson" if t_j < t_b else "boundary"
        assert report.algorithm == best


class TestReportSerialisation:
    def test_to_dict_round_trips_json(self):
        import json

        spec = V100.scaled(1 / 64)
        selector = Selector(
            spec, Calibration(spec, fw_n0=128, boundary_n0=256),
            density_scale=1 / 64, seed=0,
        )
        g = road_like(600, 2.6, seed=52)
        d = selector.select(g).to_dict()
        parsed = json.loads(json.dumps(d))
        assert parsed["algorithm"] == d["algorithm"]
        assert set(parsed["estimates"]) == set(d["estimates"])

    def test_middle_band_dict_shape(self):
        spec = V100.scaled(1 / 64)
        selector = Selector(
            spec, Calibration(spec, fw_n0=128, boundary_n0=256), seed=0
        )
        g = erdos_renyi(300, 500, seed=53)
        d = selector.select(g).to_dict()
        assert d["band"] == "middle"
        assert d["estimates"] == {}


class TestTransferTerms:
    """Each estimator's transfer term is the bus time of the schedule the
    driver runs: the copy durations the device clock sums."""

    @staticmethod
    def _bus_seconds(device):
        return device.clock.busy["h2d"] + device.clock.busy["d2h"]

    @pytest.fixture(scope="class")
    def calibration(self):
        spec = V100.scaled(1 / 64)
        return Calibration(spec, fw_n0=128, boundary_n0=256).run(
            with_large_separator_bins=False
        )

    def test_fw_transfer_positive_and_grows(self):
        spec = V100.scaled(1 / 64)
        small, large = (
            fw_traffic(n, plan_fw_block_size(n, spec)).seconds(spec) for n in (300, 1200)
        )
        assert 0 < small < large

    def test_fw_transfer_tracks_measured_order(self, calibration):
        from repro.core import ooc_floyd_warshall

        spec = V100.scaled(1 / 64)
        g = erdos_renyi(600, 3000, seed=54)
        device = Device(spec)
        ooc_floyd_warshall(g, device)
        predicted = estimate_fw(g, spec, calibration).transfer_seconds
        assert predicted == pytest.approx(self._bus_seconds(device), rel=1e-12)

    def test_johnson_transfer_tracks_measured_order(self):
        spec = V100.scaled(1 / 64)
        g = road_like(800, 2.6, seed=55)
        device = Device(spec)
        ooc_johnson(g, device)
        predicted = estimate_johnson(g, spec).transfer_seconds
        assert predicted == pytest.approx(self._bus_seconds(device), rel=1e-12)

    def test_boundary_transfer_tracks_measured_order(self, calibration):
        from repro.core.ooc_boundary import plan_boundary

        spec = V100.scaled(1 / 64)
        g = road_like(800, 2.6, seed=55)
        plan = plan_boundary(g, spec, seed=0)
        device = Device(spec)
        ooc_boundary(g, device, plan=plan)
        predicted = estimate_boundary(g, spec, calibration, plan=plan).transfer_seconds
        assert predicted == pytest.approx(self._bus_seconds(device), rel=1e-12)


class TestEstimateShapes:
    def test_fw_estimate_detail(self):
        spec = V100.scaled(1 / 64)
        calib = Calibration(spec, fw_n0=128, boundary_n0=256).run(
            with_large_separator_bins=False
        )
        est = estimate_fw(erdos_renyi(400, 2000, seed=56), spec, calib)
        assert est.algorithm == "floyd-warshall"
        assert est.detail["n0"] == 128.0
        assert est.total_seconds == est.compute_seconds + est.transfer_seconds

    def test_boundary_estimate_small_model_tagged(self):
        spec = V100.scaled(1 / 64)
        calib = Calibration(spec, fw_n0=128, boundary_n0=256).run(
            with_large_separator_bins=False
        )
        est = estimate_boundary(road_like(700, 2.6, seed=57), spec, calib, seed=0)
        assert est.detail["model"] == "small-separator"
        assert est.detail["k"] >= 2
