"""What selection costs: the Johnson source sample, the per-process
calibration memo, and a selector that leaves the caller's device alone."""

import importlib

import numpy as np
import pytest

import repro.select.calibrate as calibrate_mod
import repro.select.cost_models as cost_models_mod
from repro.bench.runner import device_profile
from repro.core import solve_apsp
from repro.core.ooc_boundary import ooc_boundary
from repro.core.ooc_johnson import (
    SAMPLE_SOURCES,
    collect_mssp_workloads,
    sample_batch_sources,
)
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.device import V100, Device
from repro.gpu.errors import KernelFaultError
from repro.gpu.kernels import MsspWorkload
from repro.graphs.generators import rmat, road_like
from repro.graphs.suite import get_suite_graph
from repro.select import Calibration, Selector
from repro.select.cost_models import analytic_estimate_johnson, estimate_johnson
from repro.sssp.near_far import EDGES_PER_CHILD_BLOCK, near_far_batch

# ``repro.core`` re-exports the drivers under their modules' names
ooc_boundary_mod = importlib.import_module("repro.core.ooc_boundary")
ooc_fw_mod = importlib.import_module("repro.core.ooc_fw")
ooc_johnson_mod = importlib.import_module("repro.core.ooc_johnson")

SPEC = V100.scaled(1 / 64)

#: worst |sampled − unsampled| / unsampled Johnson compute price allowed
#: at ``SAMPLE_SOURCES``; the accuracy table in docs/PERFORMANCE.md
#: measured at most 2.4% over the selector benchmarks and perfbench graphs
SAMPLE_ERROR_BOUND = 0.03


class TestSourceSample:
    def test_unsampled_workloads_are_exact(self):
        g = road_like(400, 2.6, seed=3)
        bat = SAMPLE_SOURCES + 10  # batches larger than a sample stay whole
        workloads = collect_mssp_workloads(g, batch_size=bat)
        assert len(workloads) == 3
        for b, workload in enumerate(workloads):
            sources = np.arange(b * bat, min((b + 1) * bat, g.num_vertices))
            _dist, stats = near_far_batch(g, sources)
            assert workload == MsspWorkload(
                stats.relaxations, stats.heavy_relaxations,
                stats.iterations, stats.child_launches,
            )

    def test_sample_cuts_large_batches(self):
        n, bat = 1000, 400
        chosen = sample_batch_sources(n, bat, 5, seed=2)
        assert sorted(chosen) == [0, 1, 2]  # fewer batches than samples
        for b, sources in chosen.items():
            lo, hi = b * bat, min((b + 1) * bat, n)
            if hi - lo > SAMPLE_SOURCES:
                assert sources.size == SAMPLE_SOURCES
                assert np.all(np.diff(sources) > 0)
                assert lo <= sources[0] and sources[-1] < hi
            else:
                assert np.array_equal(sources, np.arange(lo, hi))
        again = sample_batch_sources(n, bat, 5, seed=2)
        assert all(np.array_equal(chosen[b], again[b]) for b in chosen)
        # unsampled: every source of every batch
        full = sample_batch_sources(n, bat, None)
        assert sum(s.size for s in full.values()) == n

    def test_sampled_batch_scales_additive_terms(self):
        g = road_like(500, 2.6, seed=4)
        bat = g.num_vertices
        (sampled,) = collect_mssp_workloads(
            g, batch_size=bat, heavy_degree=2, sample=1, seed=0
        )
        (sources,) = sample_batch_sources(g.num_vertices, bat, 1, seed=0).values()
        _dist, stats = near_far_batch(g, sources, heavy_degree=2)
        factor = bat / SAMPLE_SOURCES
        heavy = int(round(stats.heavy_relaxations * factor))
        assert sampled.relaxations == int(round(stats.relaxations * factor))
        assert sampled.heavy_relaxations == heavy
        assert sampled.iterations == stats.iterations
        assert sampled.child_launches == stats.child_launches + int(
            round((heavy - stats.heavy_relaxations) / EDGES_PER_CHILD_BLOCK)
        )

    @pytest.mark.parametrize(
        "make_graph, spec, estimate",
        [
            (lambda: rmat(1500, 12000), V100, analytic_estimate_johnson),
            (lambda: get_suite_graph("onera_dual", 1 / 64), device_profile("ratio"),
             estimate_johnson),
            (lambda: get_suite_graph("luxembourg_osm", 1 / 64), device_profile("ratio"),
             estimate_johnson),
        ],
        ids=["rmat-1500-12000-v100", "onera_dual", "luxembourg_osm"],
    )
    def test_sampled_price_within_bound(self, monkeypatch, make_graph, spec, estimate):
        graph = make_graph()
        sampled = estimate(graph, spec)
        monkeypatch.setattr(ooc_johnson_mod, "SAMPLE_SOURCES", graph.num_vertices)
        unsampled = estimate(graph, spec)
        assert sampled.compute_seconds != unsampled.compute_seconds  # it sampled
        error = abs(sampled.compute_seconds - unsampled.compute_seconds)
        assert error <= SAMPLE_ERROR_BOUND * unsampled.compute_seconds

    def test_estimate_records_what_it_priced(self):
        g = get_suite_graph("luxembourg_osm", 1 / 64)
        detail = estimate_johnson(g, device_profile("ratio")).detail
        assert detail["n_b"] == detail["sampled_batches"] == 1
        assert detail["sampled_sources"] == SAMPLE_SOURCES


class TestCalibrationMemo:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Fresh memo; counts the reference solves calibration runs."""
        monkeypatch.setattr(calibrate_mod, "_CALIBRATED", {})
        count = {"n": 0}

        def counting(orig):
            def run(*args, **kwargs):
                count["n"] += 1
                return orig(*args, **kwargs)
            return run

        monkeypatch.setattr(ooc_fw_mod, "ooc_floyd_warshall",
                            counting(ooc_fw_mod.ooc_floyd_warshall))
        monkeypatch.setattr(ooc_boundary_mod, "ooc_boundary",
                            counting(ooc_boundary_mod.ooc_boundary))
        return count

    def test_second_selector_runs_no_reference_solve(self, solves):
        first = Selector(SPEC).calibration
        assert solves["n"] > 0
        solves["n"] = 0
        second = Selector(SPEC).calibration
        assert solves["n"] == 0
        assert second.fw_reference == first.fw_reference
        assert second.boundary_reference == first.boundary_reference
        assert second.c_unit_bins == first.c_unit_bins
        # copies: no instance shares the memo's table
        assert second.c_unit_bins is not first.c_unit_bins
        second.c_unit_bins.clear()
        assert Selector(SPEC).calibration.c_unit_bins == first.c_unit_bins

    def test_other_spec_or_size_calibrates_afresh(self, solves):
        Calibration(SPEC, fw_n0=96, boundary_n0=192).run()
        solves["n"] = 0
        Calibration(SPEC, fw_n0=128, boundary_n0=192).run()
        assert solves["n"] > 0
        solves["n"] = 0
        Calibration(V100.scaled(1 / 32), fw_n0=96, boundary_n0=192).run()
        assert solves["n"] > 0
        solves["n"] = 0
        Calibration(SPEC, fw_n0=96, boundary_n0=192).run()
        assert solves["n"] == 0


class TestSelectionLeavesDeviceAlone:
    GRAPH = staticmethod(lambda: road_like(600, 2.6, seed=16))

    def test_transient_fault_hits_the_chosen_driver_once(self):
        plan = FaultPlan([FaultSpec("kernel", 0)])
        result = solve_apsp(
            self.GRAPH(), algorithm="auto", device=SPEC, density_scale=1 / 64,
            faults=plan,
        )
        assert result.algorithm == "boundary"
        assert plan.num_injected == 1
        assert result.faults.retried == 1

    def test_permanent_fault_raised_by_the_chosen_driver(self):
        with pytest.raises(KernelFaultError) as auto:
            solve_apsp(
                self.GRAPH(), algorithm="auto", device=SPEC, density_scale=1 / 64,
                faults=FaultPlan([FaultSpec("kernel", 0, count=-1)]),
            )
        with pytest.raises(KernelFaultError) as direct:
            ooc_boundary(
                self.GRAPH(),
                Device(SPEC, faults=FaultPlan([FaultSpec("kernel", 0, count=-1)])),
            )
        assert auto.value.op != "mssp"
        assert (auto.value.op, auto.value.ordinal) == (
            direct.value.op, direct.value.ordinal,
        )


class TestBoundaryPlanReuse:
    @pytest.fixture
    def plans(self, monkeypatch):
        count = {"n": 0}
        orig = ooc_boundary_mod.plan_boundary

        def counting(*args, **kwargs):
            count["n"] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(ooc_boundary_mod, "plan_boundary", counting)
        monkeypatch.setattr(cost_models_mod, "plan_boundary", counting)
        return count

    def test_solve_runs_the_plan_the_selector_priced(self, plans):
        g = road_like(700, 2.6, seed=5)
        auto = solve_apsp(g, algorithm="auto", device=SPEC, density_scale=1 / 64)
        assert auto.algorithm == "boundary"
        assert plans["n"] == 1
        direct = solve_apsp(g, algorithm="boundary", device=SPEC)
        assert auto.simulated_seconds == direct.simulated_seconds
        assert np.array_equal(auto.to_array(), direct.to_array())

    def test_driver_options_plan_afresh(self, plans):
        g = road_like(700, 2.6, seed=5)
        result = solve_apsp(
            g, algorithm="auto", device=SPEC, density_scale=1 / 64, overlap=False
        )
        assert result.algorithm == "boundary"
        assert plans["n"] == 2
