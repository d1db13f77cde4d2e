"""Happens-before model checker + symbolic timing pass (PR 4).

Three contracts:

* **soundness** — every driver's emitted schedule is proven race-,
  deadlock- and dead-event-free in *every* interleaving, in both overlap
  modes, on the four standard configs;
* **sensitivity** — removing any single event edge (a wait or a record)
  from an overlap schedule is detected: an ``unordered-conflict`` with
  the stream pair and block coordinates, an ``unsatisfiable-wait``, or a
  ``dead-event``;
* **fidelity** — the driver's run and the IR replay drive the same
  clock, so both land bit-exactly on the pinned makespans below and
  report the same timing; their critical paths cover the makespan,
  across fleet barriers and cluster messages too.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.multi_gpu import emit_multi_ir, ooc_boundary_multi
from repro.core.ooc_boundary import emit_boundary_ir, ooc_boundary
from repro.core.ooc_fw import emit_fw_ir, ooc_floyd_warshall, plan_fw_block_size
from repro.core.ooc_johnson import (
    collect_mssp_workloads,
    emit_johnson_ir,
    ooc_johnson,
    plan_batch_size,
)
from repro.cluster import ClusterSpec, emit_cluster_ir
from repro.gpu.device import Device, TEST_DEVICE, V100
from repro.gpu.timeline import timing_report
from repro.graphs.generators import erdos_renyi, rmat, road_like
from repro.select.cost_models import analytic_estimate_fw
from repro.select.selector import Selector
from repro.verifyplan import verify_plan
from repro.verifyplan.hb import analyze_hb
from repro.verifyplan.ir import KernelOp, RecordOp, Rect, WaitOp
from repro.verifyplan.timing import (
    TimingCalibration,
    kernel_duration,
    predict_timing,
)
from tests.conftest import numpy_engine

V100_64 = V100.scaled(1 / 64)

CONFIGS = [
    pytest.param(lambda: road_like(220, 2.6, seed=1), TEST_DEVICE, id="road220-test"),
    pytest.param(lambda: rmat(110, 800, seed=2), TEST_DEVICE, id="rmat110-test"),
    pytest.param(lambda: erdos_renyi(200, 1200, seed=3), TEST_DEVICE, id="er200-test"),
    pytest.param(lambda: road_like(900, 2.6, seed=3), V100_64, id="road900-v100/64"),
]

#: simulated makespans per config: fw, johnson, boundary, and 2-GPU
#: boundary with and without overlap. Driver and replay must hit them
#: bitwise; they were recorded while the two still ran separate clocks,
#: so they hold the shared clock to the old arithmetic.
PINNED = {
    "road220-test": (0.025664099999999992, 0.10070172000000001,
                     0.005468986500000001, 0.002867378, 0.003250762000000001),
    "rmat110-test": (0.0043175, 0.07574479999999999, 0.006859480000000005,
                     0.0065662200000000046, 0.006752220000000005),
    "er200-test": (0.025664099999999992, 0.24328903999999998,
                   0.034252907999999985, 0.03188506299999999, 0.03233506299999999),
    "road900-v100/64": (0.09884238743487944, 0.07501124250755878,
                        0.023200836549579187, 0.014083095106704486,
                        0.01587965586047755),
}
PINNED_CONFIGS = [
    pytest.param(*cfg.values, PINNED[cfg.id], id=cfg.id) for cfg in CONFIGS
]

#: the four ``verify-cluster`` configs CI runs: (n, nodes, devices per node)
CI_CLUSTERS = [(96, 2, 1), (96, 2, 2), (96, 4, 1), (120, 4, 2)]


def _drop_op(ir, index):
    ops = tuple(op for i, op in enumerate(ir.ops) if i != index)
    return dataclasses.replace(ir, ops=ops)


def _record_streams(ir) -> dict[int, str]:
    return {op.event: op.stream for op in ir.ops if isinstance(op, RecordOp)}


def _overlap_irs(graph, spec):
    """The three single-device overlap schedules (the event-rich ones)."""
    n = graph.num_vertices
    b = plan_fw_block_size(n, spec, overlap=True)
    bat = max(1, min(plan_batch_size(graph, spec, num_row_buffers=2), n))
    return {
        "floyd-warshall": emit_fw_ir(n, spec, block_size=b, overlap=True),
        "johnson": emit_johnson_ir(graph, spec, batch_size=bat, overlap=True),
        "boundary": emit_boundary_ir(graph, spec, seed=0, overlap=True),
    }


class TestHappensBefore:
    @pytest.mark.parametrize("graph_factory,spec", CONFIGS)
    @pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "serial"])
    def test_every_driver_clean_in_every_interleaving(
        self, graph_factory, spec, overlap
    ):
        ver = verify_plan(graph_factory(), spec, overlap=overlap)
        for name, audit in ver.audits.items():
            if not audit.feasible:
                continue
            assert audit.hb is not None
            assert audit.hb.ok, f"{name}: {audit.hb.describe()}"
            assert audit.ok

    def test_overlap_schedules_actually_use_events(self):
        irs = _overlap_irs(road_like(220, 2.6, seed=1), TEST_DEVICE)
        for name, ir in irs.items():
            report = analyze_hb([ir])
            assert report.num_streams == 2, name
            assert report.num_events > 0, name
            assert report.num_events == report.num_waits, name

    def test_removing_any_wait_is_detected(self):
        irs = _overlap_irs(road_like(220, 2.6, seed=1), TEST_DEVICE)
        for name, ir in irs.items():
            rec_streams = _record_streams(ir)
            wait_indices = [
                i for i, op in enumerate(ir.ops) if isinstance(op, WaitOp)
            ]
            assert wait_indices, name
            races_seen = 0
            for i in wait_indices:
                dropped: WaitOp = ir.ops[i]
                report = analyze_hb([_drop_op(ir, i)])
                assert not report.ok, f"{name}: wait #{i} removal undetected"
                if rec_streams[dropped.event] != dropped.stream:
                    # a cross-stream edge: either it was load-bearing (an
                    # unordered conflicting pair with both streams and the
                    # block rectangles of both sides) or it was redundant,
                    # in which case its record is now a flagged orphan
                    conflicts = [
                        f for f in report.findings if f.kind == "unordered-conflict"
                    ]
                    dead = [f for f in report.findings if f.kind == "dead-event"]
                    assert conflicts or dead, (
                        f"{name}: wait #{i} removal lost the race"
                    )
                    if conflicts:
                        races_seen += 1
                        f = conflicts[0]
                        assert len(set(f.streams)) == 2
                        assert f.buffer
                        assert "[" in f.first and "[" in f.second  # rect coords
            assert races_seen, f"{name}: every event edge was redundant"

    def test_removing_any_record_is_unsatisfiable(self):
        irs = _overlap_irs(road_like(220, 2.6, seed=1), TEST_DEVICE)
        for name, ir in irs.items():
            record_indices = [
                i for i, op in enumerate(ir.ops) if isinstance(op, RecordOp)
            ]
            assert record_indices, name
            for i in record_indices:
                report = analyze_hb([_drop_op(ir, i)])
                kinds = {f.kind for f in report.findings}
                assert "unsatisfiable-wait" in kinds, (
                    f"{name}: record #{i} removal left every wait satisfied"
                )

    def test_same_stream_pair_removal_stays_clean(self):
        """Precision: a record/wait pair on one stream is covered by that
        stream's program order, so grafting one in keeps the schedule
        clean, dropping only its wait flags the orphan record, and
        removing *both* ends must not produce a finding (no false
        positives from redundant-edge removal)."""
        ir = _overlap_irs(road_like(220, 2.6, seed=1), TEST_DEVICE)["floyd-warshall"]
        eid = 1 + max(op.event for op in ir.ops if isinstance(op, RecordOp))
        kernel_idx = next(
            i for i, op in enumerate(ir.ops)
            if isinstance(op, KernelOp) and op.stream == "default"
        )
        rec = RecordOp(event=eid, name="self", stream="default")
        wait = WaitOp(event=eid, stream="default")
        ops = list(ir.ops)
        ops.insert(kernel_idx + 1, rec)
        ops.insert(kernel_idx + 2, wait)
        grafted = dataclasses.replace(ir, ops=tuple(ops))
        assert analyze_hb([grafted]).ok
        # wait alone gone -> the record is a flagged orphan
        no_wait = tuple(op for op in grafted.ops if op is not wait)
        report = analyze_hb([dataclasses.replace(ir, ops=no_wait)])
        assert any(f.kind == "dead-event" for f in report.findings)
        # both ends gone -> pure program order, still provably clean
        neither = tuple(
            op for op in grafted.ops if op is not wait and op is not rec
        )
        assert analyze_hb([dataclasses.replace(ir, ops=neither)]).ok


class TestMultiGpuEmission:
    @pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "serial"])
    def test_fleet_clean_and_barriers_present(self, overlap):
        g = road_like(220, 2.6, seed=1)
        irs = emit_multi_ir(g, TEST_DEVICE, 2, seed=0, overlap=overlap)
        assert len(irs) == 2
        merged = analyze_hb(irs)
        assert merged.ok
        if overlap:
            assert merged.num_events > 0
            assert merged.num_events == merged.num_waits
        else:
            assert merged.num_events == 0
        for ir in irs:
            labels = [op.label for op in ir.ops if hasattr(op, "label")]
            assert labels == [
                "after-dist2", "after-bound-closure", "after-broadcast",
                "after-output",
            ]

    def test_overlap_mode_matches_serial_byte_for_byte(self):
        from repro.verifyplan.analyze import analyze_transfers

        g = road_like(220, 2.6, seed=1)
        tallies = {}
        for overlap in (False, True):
            irs = emit_multi_ir(g, TEST_DEVICE, 2, seed=0, overlap=overlap)
            tallies[overlap] = [analyze_transfers(ir)[0] for ir in irs]
        for serial, pipelined in zip(tallies[False], tallies[True]):
            assert serial.bytes_h2d == pipelined.bytes_h2d
            assert serial.bytes_d2h == pipelined.bytes_d2h
            assert serial.num_h2d == pipelined.num_h2d
            assert serial.num_d2h == pipelined.num_d2h

    def test_seeded_dropped_event_edge_is_flagged(self):
        """Defect injection: drop one device's drain wait — the checker
        must name the stream pair and the output buffer it unprotects."""
        g = road_like(220, 2.6, seed=1)
        irs = emit_multi_ir(g, TEST_DEVICE, 2, seed=0, overlap=True)
        injected = False
        for d, ir in enumerate(irs):
            wait_indices = [
                i for i, op in enumerate(ir.ops) if isinstance(op, WaitOp)
            ]
            if not wait_indices:
                continue
            injected = True
            for i in wait_indices:
                report = analyze_hb([_drop_op(ir, i)])
                conflicts = [
                    f for f in report.findings if f.kind == "unordered-conflict"
                ]
                assert conflicts, f"device {d}: dropped wait #{i} undetected"
                f = conflicts[0]
                assert set(f.streams) == {"default", "multi-copy"}
                assert f.buffer.startswith("out")
        assert injected, "no drain waits emitted — elision is over-aggressive"


class TestTimingAgreement:
    """The driver's run and the static replay of each standard schedule
    drive one clock: both land on the pinned makespan bit for bit and
    report the same timing, whose critical path covers the makespan —
    fleet barriers keep their links."""

    @staticmethod
    def _assert_pinned(expected, run_seconds, pred, clocks):
        assert run_seconds == expected
        assert pred.makespan == expected
        run = timing_report(pred.algorithm, pred.device, clocks)
        assert run.to_dict() == pred.to_dict()
        assert run.to_dict()["critical_path_seconds"] >= 0.99 * expected

    @pytest.mark.parametrize("graph_factory,spec,pinned", PINNED_CONFIGS)
    def test_fw_makespan(self, graph_factory, spec, pinned):
        g = graph_factory()
        dev = Device(spec)
        res = ooc_floyd_warshall(g, dev, engine=numpy_engine())
        b = plan_fw_block_size(g.num_vertices, spec, overlap=True)
        ir = emit_fw_ir(g.num_vertices, spec, block_size=b, overlap=True)
        self._assert_pinned(
            pinned[0], res.simulated_seconds, predict_timing([ir], spec), [dev.clock]
        )

    @pytest.mark.parametrize("graph_factory,spec,pinned", PINNED_CONFIGS)
    def test_johnson_makespan(self, graph_factory, spec, pinned):
        g = graph_factory()
        dev = Device(spec)
        res = ooc_johnson(g, dev)
        n = g.num_vertices
        bat = max(1, min(plan_batch_size(g, spec, num_row_buffers=2), n))
        workloads = collect_mssp_workloads(g, batch_size=bat)
        ir = emit_johnson_ir(g, spec, batch_size=bat, workloads=workloads)
        self._assert_pinned(
            pinned[1], res.simulated_seconds, predict_timing([ir], spec), [dev.clock]
        )

    @pytest.mark.parametrize("graph_factory,spec,pinned", PINNED_CONFIGS)
    def test_boundary_makespan(self, graph_factory, spec, pinned):
        g = graph_factory()
        dev = Device(spec)
        res = ooc_boundary(g, dev, seed=0, engine=numpy_engine())
        pred = predict_timing([emit_boundary_ir(g, spec, seed=0)], spec)
        self._assert_pinned(pinned[2], res.simulated_seconds, pred, [dev.clock])

    @pytest.mark.parametrize("graph_factory,spec,pinned", PINNED_CONFIGS)
    @pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "serial"])
    def test_multi_makespan(self, graph_factory, spec, pinned, overlap):
        g = graph_factory()
        devices = [Device(spec) for _ in range(2)]
        res = ooc_boundary_multi(g, devices, seed=0, overlap=overlap)
        irs = emit_multi_ir(g, spec, 2, seed=0, overlap=overlap)
        self._assert_pinned(
            pinned[3 if overlap else 4], res.simulated_seconds,
            predict_timing(irs, spec), [dev.clock for dev in devices],
        )

    def test_report_invariants(self):
        g = road_like(220, 2.6, seed=1)
        ir = emit_boundary_ir(g, TEST_DEVICE, seed=0, overlap=True)
        rep = predict_timing([ir], TEST_DEVICE)
        assert 0.0 <= rep.overlap_efficiency <= 1.0
        assert rep.makespan > 0
        assert rep.serial_seconds >= max(
            rep.compute_seconds, rep.h2d_seconds, rep.d2h_seconds
        )
        assert rep.critical_path, "critical path must be non-empty"
        # segments on the critical path chain backwards in time
        ends = [seg.end for seg in rep.critical_path]
        assert ends == sorted(ends)
        assert ends[-1] <= rep.makespan + 1e-12
        payload = rep.to_dict()
        assert payload["makespan_seconds"] == rep.makespan
        assert payload["critical_path_length"] == len(rep.critical_path)

    @pytest.mark.parametrize("n,nodes,devices", CI_CLUSTERS)
    def test_cluster_critical_path_covers_makespan(self, n, nodes, devices):
        """Recvs link their sends, so the path crosses ranks."""
        cluster = ClusterSpec.make(nodes, devices, device=TEST_DEVICE)
        rep = predict_timing(
            emit_cluster_ir(n, cluster), cluster.device, link_of=cluster.link_of
        )
        assert any(op.engine.startswith("net:") for op in rep.critical_path)
        assert rep.to_dict()["critical_path_seconds"] >= 0.99 * rep.makespan

    def test_mssp_without_cost_is_rejected(self):
        g = rmat(110, 800, seed=2)
        ir = emit_johnson_ir(g, TEST_DEVICE)  # no workloads -> no costs
        mssp = next(
            op for op in ir.ops
            if isinstance(op, KernelOp) and op.name == "mssp"
        )
        with pytest.raises(ValueError, match="mssp"):
            kernel_duration(mssp, TEST_DEVICE)
        with pytest.raises(ValueError, match="mssp"):
            predict_timing([ir], TEST_DEVICE)

    def test_verify_plan_timing_integration(self):
        ver = verify_plan(road_like(220, 2.6, seed=1), TEST_DEVICE)
        assert ver.ok
        for audit in ver.audits.values():
            if audit.feasible:
                assert audit.timing is not None
                assert audit.timing.makespan > 0
                assert audit.to_dict()["timing"]["makespan_seconds"] > 0


class TestCalibration:
    def test_from_bench_reads_checked_in_sweep(self):
        cal = TimingCalibration.from_bench()
        assert cal.minplus_rate is not None and cal.minplus_rate > 0
        spec = cal.apply(TEST_DEVICE)
        assert spec.minplus_rate == cal.minplus_rate
        assert TEST_DEVICE.minplus_rate != spec.minplus_rate

    def test_from_bench_propagates_unexpected_errors(self, tmp_path):
        """A corrupt sweep file is an error, not an unmeasured machine."""
        path = tmp_path / "BENCH_kernels.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            TimingCalibration.from_bench(path)

    def test_from_bench_takes_best_identical_row(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps({"rows": [
            {"gops": 4.0, "identical": True},
            {"gops": 9.0, "identical": False},
        ]}))
        assert TimingCalibration.from_bench(path).minplus_rate == 4.0e9

    def test_calibration_rescales_compute(self):
        g = road_like(220, 2.6, seed=1)
        b = plan_fw_block_size(g.num_vertices, TEST_DEVICE, overlap=True)
        ir = emit_fw_ir(g.num_vertices, TEST_DEVICE, block_size=b, overlap=True)
        base = predict_timing([ir], TEST_DEVICE)
        slow = predict_timing(
            [ir], TEST_DEVICE,
            calibration=TimingCalibration(minplus_rate=TEST_DEVICE.minplus_rate / 10),
        )
        assert slow.compute_seconds > base.compute_seconds


class TestAnalyticSelector:
    def test_skips_calibration_entirely(self):
        sel = Selector(TEST_DEVICE, analytic=True)
        assert sel.calibration is None
        assert sel.method == "analytic"

    def test_estimates_come_from_schedule_dag(self):
        sel = Selector(TEST_DEVICE, analytic=True)
        report = sel.select(road_like(220, 2.6, seed=1))
        assert report.method == "analytic"
        assert report.algorithm in report.candidates
        assert report.estimates
        for est in report.estimates.values():
            assert est.detail["model"] == "schedule-dag"
            assert est.total_seconds == pytest.approx(
                est.detail["makespan_seconds"]
            )
        assert report.to_dict()["method"] == "analytic"

    def test_total_equals_predicted_makespan(self):
        g = road_like(220, 2.6, seed=1)
        est = analytic_estimate_fw(g, TEST_DEVICE)
        b = plan_fw_block_size(g.num_vertices, TEST_DEVICE, overlap=True)
        ir = emit_fw_ir(g.num_vertices, TEST_DEVICE, block_size=b, overlap=True)
        assert est.total_seconds == pytest.approx(
            predict_timing([ir], TEST_DEVICE).makespan
        )

    def test_analytic_ranking_matches_dynamic_order(self):
        """The analytic ranking must order candidates the same way the
        dynamic simulator does on a config where the gap is wide."""
        g = road_like(220, 2.6, seed=1)
        report = Selector(TEST_DEVICE, analytic=True).select(g)
        if {"johnson", "floyd-warshall"} <= set(report.estimates):
            dyn_fw = ooc_floyd_warshall(
                g, Device(TEST_DEVICE), engine=numpy_engine()
            ).simulated_seconds
            dyn_jn = ooc_johnson(g, Device(TEST_DEVICE)).simulated_seconds
            analytic_says_fw = (
                report.estimates["floyd-warshall"].total_seconds
                < report.estimates["johnson"].total_seconds
            )
            assert analytic_says_fw == (dyn_fw < dyn_jn)
