"""Static plan verifier: analyses, bounds, and static↔dynamic agreement.

The contract under test: the symbolic :class:`PlanIR` each driver emits
must predict, *byte for byte*, what the dynamic trace of a real run
records — peak charged residency, H2D/D2H volumes, and copy counts.
Two independent analyses, one contract.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.core.multi_gpu import emit_multi_ir, ooc_boundary_multi
from repro.core.ooc_boundary import emit_boundary_ir, ooc_boundary, plan_boundary
from repro.core.ooc_fw import emit_fw_ir, ooc_floyd_warshall, transfer_stats
from repro.core.ooc_johnson import emit_johnson_ir, ooc_johnson
from repro.dynamic.patch import UpdatePlan, emit_update_ir
from repro.gpu.device import Device, K80, TEST_DEVICE, V100
from repro.gpu.transfer import copy_duration, copy_duration_2d
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, rmat, road_like
from repro.verifyplan import (
    CopyOp,
    IREmitter,
    Rect,
    analyze_def_use,
    analyze_residency,
    analyze_transfers,
    audit_ir,
    Traffic,
    audit_schedule,
    boundary_traffic,
    fw_traffic,
    johnson_traffic,
    multi_traffic,
    traffic_checks,
    update_traffic,
    verify_plan,
)
from tests.conftest import forced_split, numpy_engine, timed_op_names

V100_64 = V100.scaled(1 / 64)

#: the ≥3 graph/device configurations of the static↔dynamic contract
CONFIGS = [
    pytest.param(lambda: road_like(220, 2.6, seed=1), TEST_DEVICE, id="road220-test"),
    pytest.param(lambda: rmat(110, 800, seed=2), TEST_DEVICE, id="rmat110-test"),
    pytest.param(lambda: erdos_renyi(200, 1200, seed=3), TEST_DEVICE, id="er200-test"),
    pytest.param(lambda: road_like(900, 2.6, seed=3), V100_64, id="road900-v100/64"),
    # deliberately uneven: n=500 with block 161 leaves a 17-wide ragged
    # last block (nd=4) — the exact-mode FW bounds must still close
    pytest.param(lambda: road_like(500, 2.6, seed=4), TEST_DEVICE,
                 id="road500-test-uneven"),
]


def dynamic_stats(device):
    """(bytes_h2d, bytes_d2h, num_h2d, num_d2h, peak) from a real run's trace."""
    ts = transfer_stats(device)
    return (
        ts["bytes_h2d"],
        ts["bytes_d2h"],
        len(device.clock.engine_ops("h2d")),
        len(device.clock.engine_ops("d2h")),
        device.memory.peak,
    )


def static_stats(audit):
    return (
        audit.bytes_h2d,
        audit.bytes_d2h,
        audit.num_h2d,
        audit.num_d2h,
        audit.peak_bytes,
    )


class TestStaticDynamicAgreement:
    @pytest.mark.parametrize("build,spec", CONFIGS)
    def test_fw_prediction_matches_trace(self, build, spec):
        g = build()
        audit = verify_plan(g, spec, algorithms=["fw"]).audits["floyd-warshall"]
        assert audit.ok
        device = Device(spec)
        ooc_floyd_warshall(g, device)
        assert static_stats(audit) == dynamic_stats(device)

    @pytest.mark.parametrize("build,spec", CONFIGS)
    def test_johnson_prediction_matches_trace(self, build, spec):
        g = build()
        audit = verify_plan(g, spec, algorithms=["johnson"]).audits["johnson"]
        assert audit.ok
        device = Device(spec)
        ooc_johnson(g, device)
        assert static_stats(audit) == dynamic_stats(device)

    @pytest.mark.parametrize("build,spec", CONFIGS)
    def test_boundary_prediction_matches_trace(self, build, spec):
        g = build()
        audit = verify_plan(g, spec, algorithms=["boundary"]).audits["boundary"]
        assert audit.ok
        device = Device(spec)
        ooc_boundary(g, device, seed=0)
        assert static_stats(audit) == dynamic_stats(device)

    @pytest.mark.parametrize("build,spec", CONFIGS)
    def test_multi_gpu_prediction_matches_trace(self, build, spec):
        g = build()
        audit = verify_plan(g, spec, algorithms=["multi-gpu"]).audits["multi-gpu"]
        assert audit.ok
        devices = [Device(spec), Device(spec)]
        ooc_boundary_multi(g, devices, seed=0, overlap=True)
        h2d = d2h = nh = nd = 0
        for dv in devices:
            bh, bd, ch, cd, _ = dynamic_stats(dv)
            h2d += bh
            d2h += bd
            nh += ch
            nd += cd
        peak = max(dv.memory.peak for dv in devices)
        assert static_stats(audit) == (h2d, d2h, nh, nd, peak)

    def test_multi_gpu_follows_the_overlap_mode(self):
        # the overlapped fleet drains strips on a second stream behind
        # events, holding one more strip per device than the serial one
        g = rmat(110, 800, seed=0)
        audits = {
            overlap: verify_plan(
                g, TEST_DEVICE, algorithms=["multi-gpu"], overlap=overlap
            ).audits["multi-gpu"]
            for overlap in (True, False)
        }
        assert audits[True].ok and audits[False].ok
        assert audits[True].peak_bytes > audits[False].peak_bytes
        assert audits[True].hb.num_events > 0
        assert audits[False].hb.num_events == 0
        for overlap, audit in audits.items():
            devices = [Device(TEST_DEVICE), Device(TEST_DEVICE)]
            ooc_boundary_multi(g, devices, seed=0, overlap=overlap)
            assert audit.peak_bytes == max(dv.memory.peak for dv in devices)

    def test_fw_buffer_reuse_path_matches_trace(self):
        # n_d = 3 with double-buffered stage 3: the driver skips re-uploads
        # of a row block the rotation still holds; the mirror must skip the
        # same ones.
        g = road_like(400, 2.6, seed=7)
        for overlap in (True, False):
            audit = verify_plan(
                g, TEST_DEVICE, algorithms=["fw"], overlap=overlap
            ).audits["floyd-warshall"]
            assert audit.ok
            assert audit.redundant_bytes == 0
            device = Device(TEST_DEVICE)
            ooc_floyd_warshall(g, device, overlap=overlap)
            assert static_stats(audit) == dynamic_stats(device)

    def test_fw_fanout_engine_moves_same_bytes(self):
        # The kernel engine only changes how each block update computes,
        # never the schedule: with every product split into four row
        # panels it moves the bytes the verifier proves, in the same
        # simulated time, to the same distances as the numpy and default
        # engines.
        from repro.core.engine import KernelEngine, default_engine

        g = road_like(400, 2.6, seed=7)
        audit = verify_plan(g, TEST_DEVICE, algorithms=["fw"]).audits["floyd-warshall"]
        runs = []
        for engine, split in ((numpy_engine(), False),
                              (default_engine(), False), (KernelEngine(), True)):
            device = Device(TEST_DEVICE)
            with forced_split(workers=4) if split else contextlib.nullcontext():
                runs.append(ooc_floyd_warshall(g, device, engine=engine))
            assert static_stats(audit) == dynamic_stats(device)
        reference = runs[0]
        for result in runs[1:]:
            assert result.simulated_seconds == reference.simulated_seconds
            assert np.array_equal(result.to_array(), reference.to_array())

    @pytest.mark.parametrize(
        "run,emit",
        [
            pytest.param(ooc_floyd_warshall, lambda g: emit_fw_ir(g.num_vertices, TEST_DEVICE),
                         id="fw"),
            pytest.param(ooc_johnson, lambda g: emit_johnson_ir(g, TEST_DEVICE), id="johnson"),
            pytest.param(ooc_boundary, lambda g: emit_boundary_ir(g, TEST_DEVICE),
                         id="boundary"),
            pytest.param(
                lambda g, d: ooc_boundary(g, d, batch_transfers=False),
                lambda g: emit_boundary_ir(g, TEST_DEVICE, batch_transfers=False),
                id="boundary-unbatched",
            ),
        ],
    )
    def test_device_runs_the_emitted_schedule(self, run, emit):
        # driver and emitter share one schedule generator: the device
        # timeline is the IR's timed ops, in order
        g = road_like(220, 2.6, seed=1)
        device = Device(TEST_DEVICE)
        run(g, device)
        assert [op.name for op in device.clock.ops] == timed_op_names(emit(g))


class TestVerifyPlan:
    def test_all_algorithms_audited(self):
        ver = verify_plan(road_like(220, 2.6, seed=1), TEST_DEVICE)
        assert set(ver.audits) == {"floyd-warshall", "johnson", "boundary", "multi-gpu"}
        assert ver.ok
        for audit in ver.audits.values():
            assert audit.ok
            assert audit.redundant_bytes == 0
            assert audit.peak_bytes <= audit.capacity

    def test_describe_and_to_dict(self):
        ver = verify_plan(rmat(110, 800, seed=2), TEST_DEVICE)
        text = ver.describe()
        assert text.splitlines()[0].endswith("— VERIFIED")
        assert "bounds ok" in text
        d = ver.to_dict()
        assert d["ok"] is True
        assert d["audits"]["johnson"]["ok"] is True
        assert d["audits"]["floyd-warshall"]["bounds"][0]["ok"] is True

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            verify_plan(rmat(50, 200, seed=0), TEST_DEVICE, algorithms=["dijkstra"])

    def test_infeasible_reported_not_raised(self):
        g = rmat(1200, 40_000, seed=2)  # expander: huge boundary
        ver = verify_plan(g, V100_64)
        audit = ver.audits["boundary"]
        assert not audit.feasible
        assert "boundary matrix" in audit.reason
        assert "infeasible" in audit.describe()


class TestPlannerAgreement:
    """verify_plan proves the plans the drivers run: the same feasibility
    and the same derived parameters."""

    @pytest.mark.parametrize(
        "build,spec",
        [
            # n=200 with block 161: ragged last block (n % b != 0)
            pytest.param(lambda: road_like(220, 2.6, seed=1), TEST_DEVICE,
                         id="ragged-blocks"),
            # n=110 fits one block: single-block FW
            pytest.param(lambda: rmat(110, 800, seed=2), TEST_DEVICE,
                         id="single-block"),
            # expander on a scaled V100: boundary infeasible, others not
            pytest.param(lambda: rmat(1200, 40_000, seed=2), V100_64,
                         id="one-infeasible"),
        ],
    )
    def test_feasibility_and_parameters_agree(self, build, spec):
        from repro.gpu.errors import OutOfMemoryError

        g = build()
        ver = verify_plan(g, spec, seed=0, algorithms=["fw", "johnson", "boundary"])
        drivers = {
            "floyd-warshall": (ooc_floyd_warshall, ("block_size", "num_blocks")),
            "johnson": (ooc_johnson, ("batch_size", "num_batches")),
            "boundary": (lambda g, d: ooc_boundary(g, d, seed=0),
                         ("num_components", "num_boundary")),
        }
        for name, (run, keys) in drivers.items():
            audit = ver.audits[name]
            if not audit.feasible:
                with pytest.raises(OutOfMemoryError):
                    run(g, Device(spec))
                continue
            stats = run(g, Device(spec)).stats
            for key in keys:
                assert audit.parameters[key] == stats[key], (name, key)

    def test_single_block_graph_is_one_block(self):
        g = rmat(110, 800, seed=2)
        audit = verify_plan(g, TEST_DEVICE, algorithms=["fw"]).audits["floyd-warshall"]
        assert audit.parameters["num_blocks"] == 1
        # one upload, one download: the whole matrix moves once each way
        assert audit.num_h2d == 1 and audit.num_d2h == 1

    def test_ragged_blocks_still_tile_exactly(self):
        # n not divisible by the block size: the exact d2h bound (n_d·n²)
        # only holds if the ragged tiling is handled correctly
        g = road_like(220, 2.6, seed=1)
        audit = verify_plan(g, TEST_DEVICE, algorithms=["fw"]).audits["floyd-warshall"]
        n, b = 200, audit.parameters["block_size"]
        assert n % b != 0
        assert audit.ok

    def test_only_one_algorithm_feasible(self):
        # dense expander on the tiny device: only FW fits, and the Johnson
        # and boundary drivers refuse to run
        from repro.gpu.errors import OutOfMemoryError

        g = erdos_renyi(600, 50_000, seed=5)
        ver = verify_plan(g, TEST_DEVICE, seed=0)
        assert [n for n, a in ver.audits.items() if a.feasible] == ["floyd-warshall"]
        assert ver.ok  # the one feasible plan verifies
        for run in (ooc_johnson, ooc_boundary):
            with pytest.raises(OutOfMemoryError):
                run(g, Device(TEST_DEVICE))


class TestSeededDefects:
    """Inject schedule defects into the IR; each analysis must catch its own."""

    def test_extra_upload_reported_with_block_coordinates(self):
        # the acceptance defect: duplicate one FW stage-3 upload — the
        # verifier must name the duplicated host block and the wasted bytes
        g = road_like(220, 2.6, seed=1)
        ir = emit_fw_ir(g.num_vertices, TEST_DEVICE)
        dup_idx = next(
            i for i, op in enumerate(ir.ops)
            if isinstance(op, CopyOp) and op.kind == "h2d" and op.key[0] == "A"
        )
        dup = ir.ops[dup_idx]
        seeded = dataclasses.replace(
            ir, ops=ir.ops[: dup_idx + 1] + (dup,) + ir.ops[dup_idx + 1 :]
        )
        _, tally, findings = audit_ir(seeded)
        redundant = [f for f in findings if f.kind == "redundant-upload"]
        assert len(redundant) == 1
        finding = redundant[0]
        assert finding.block == dup.key  # ("A", i, k) coordinates
        assert finding.wasted_bytes == dup.access.nbytes
        assert tally.redundant_bytes == dup.access.nbytes
        assert str(dup.key) in finding.describe()
        # and the clean plan stays clean
        assert not [f for f in audit_ir(ir)[2]]

    def test_redundant_download_detected(self):
        em = IREmitter("toy", "test", 1 << 20)
        a = em.alloc("a", (8, 8))
        em.h2d(a, key=("A", 0, 0))
        em.d2h(a, key=("A", 0, 0))
        em.d2h(a, key=("A", 0, 0))  # nothing wrote in between
        tally, findings = analyze_transfers(em.finish())
        assert [f.kind for f in findings] == ["redundant-download"]
        assert tally.redundant_bytes == 8 * 8 * 4

    def test_kernel_write_invalidates_residency(self):
        em = IREmitter("toy", "test", 1 << 20)
        a = em.alloc("a", (8, 8))
        em.h2d(a, key=("A", 0, 0))
        em.kernel("fw", reads=(a,), writes=(a,))
        em.h2d(a, key=("A", 0, 0))  # re-upload after modification: fine
        tally, findings = analyze_transfers(em.finish())
        assert findings == []
        assert tally.redundant_bytes == 0

    def test_capacity_bomb_reported_with_live_set(self):
        em = IREmitter("toy", "test", 1000)
        em.alloc("small", (10, 10))  # 400 B
        em.alloc("bomb", (20, 20))  # +1600 B > 1000 B
        peak, findings = analyze_residency(em.finish())
        assert peak == 2000
        assert [f.kind for f in findings] == ["capacity-exceeded"]
        assert "bomb" in findings[0].detail and "small" in findings[0].detail

    def test_undefined_read_reported(self):
        em = IREmitter("toy", "test", 1 << 20)
        a = em.alloc("a", (8, 8))
        b = em.alloc("b", (8, 8))
        em.h2d(a, key=("A", 0, 0))
        em.kernel("mp", reads=(a, b), writes=(a,))  # b was never written
        findings = analyze_def_use(em.finish())
        assert [f.kind for f in findings] == ["undefined-read"]
        assert findings[0].buffer == "b"

    def test_disjoint_rects_do_not_define_each_other(self):
        em = IREmitter("toy", "test", 1 << 20)
        a = em.alloc("a", (10, 10))
        em.h2d(a, Rect(0, 5, 0, 10), key=("top",))
        em.kernel("mp", reads=((a, Rect(5, 10, 0, 10)),), writes=())
        findings = analyze_def_use(em.finish())
        assert [f.kind for f in findings] == ["undefined-read"]

    def test_dropped_download_fails_the_bound(self):
        # remove one FW download: volumes no longer tile n_d·n² exactly
        g = rmat(110, 800, seed=2)
        n = g.num_vertices
        ir = emit_fw_ir(n, TEST_DEVICE)
        drop_idx = next(
            i for i, op in enumerate(ir.ops)
            if isinstance(op, CopyOp) and op.kind == "d2h"
        )
        seeded = dataclasses.replace(
            ir, ops=ir.ops[:drop_idx] + ir.ops[drop_idx + 1 :]
        )
        _, tally, _ = audit_ir(seeded)
        checks = traffic_checks("fw", fw_traffic(n, n), tally)
        d2h = next(c for c in checks if c.name == "fw-d2h-volume")
        assert not d2h.ok
        assert "FAILED" in d2h.describe()

    def test_split_upload_fails_only_the_copy_count(self):
        # one stage-3 work-block upload of an n_d = 3 plan split into two
        # halves: the same bytes in one more copy. Bytes-only bounds
        # cannot tell; the record's h2d copy count can, and nothing else
        # in the audit objects
        n, b = 90, 30
        ir = emit_fw_ir(n, TEST_DEVICE, block_size=b)
        idx, up = next(
            (i, op) for i, op in enumerate(ir.ops)
            if isinstance(op, CopyOp) and op.kind == "h2d"
            and ir.buffers[op.access.buffer].name.startswith("work")
        )
        r = up.access.rect
        mid = (r.r0 + r.r1) // 2
        halves = tuple(
            dataclasses.replace(
                up, key=(*up.key, part),
                access=dataclasses.replace(
                    up.access, rect=half, nbytes=half.area * ir.buffers[up.access.buffer].itemsize
                ),
            )
            for part, half in (("top", Rect(r.r0, mid, r.c0, r.c1)),
                               ("bottom", Rect(mid, r.r1, r.c0, r.c1)))
        )
        split = dataclasses.replace(ir, ops=ir.ops[:idx] + halves + ir.ops[idx + 1 :])
        audit = audit_schedule(
            "floyd-warshall", [split], TEST_DEVICE,
            bounds=lambda t: traffic_checks("fw", fw_traffic(n, b), t),
        )
        assert audit.bytes_h2d == fw_traffic(n, b).bytes_h2d
        assert audit.findings == [] and audit.hb.ok
        assert [c.name for c in audit.bounds if not c.ok] == ["fw-h2d-copies"]


class TestEmitterWellFormedness:
    """Structural invariants every emitted plan must satisfy."""

    @pytest.mark.parametrize(
        "emit",
        [
            pytest.param(
                lambda g, s: emit_fw_ir(g.num_vertices, s), id="fw"
            ),
            pytest.param(emit_johnson_ir, id="johnson"),
            pytest.param(emit_boundary_ir, id="boundary"),
        ],
    )
    def test_every_buffer_allocated_then_freed(self, emit):
        from repro.verifyplan.ir import AllocOp, FreeOp, KernelOp

        g = road_like(220, 2.6, seed=1)
        ir = emit(g, TEST_DEVICE)
        allocated, freed = set(), set()
        for op in ir.ops:
            if isinstance(op, AllocOp):
                allocated.add(op.buffer)
            elif isinstance(op, FreeOp):
                assert op.buffer in allocated and op.buffer not in freed
                freed.add(op.buffer)
            elif isinstance(op, CopyOp):
                assert op.access.buffer in allocated - freed
            elif isinstance(op, KernelOp):
                for acc in (*op.reads, *op.writes):
                    assert acc.buffer in allocated - freed
        assert allocated == freed == set(ir.buffers)

    def test_multi_emits_one_ir_per_device(self):
        g = road_like(220, 2.6, seed=1)
        irs = emit_multi_ir(g, TEST_DEVICE, 3)
        assert len(irs) == 3
        assert [ir.device for ir in irs] == [f"test-gpu#{d}" for d in range(3)]
        assert [ir.rank for ir in irs] == [0, 1, 2]


def _fw_case(n, b, overlap):
    return lambda: (
        fw_traffic(n, b, overlap=overlap),
        emit_fw_ir(n, TEST_DEVICE, block_size=b, overlap=overlap),
    )


def _johnson_case(build, bat):
    def case():
        graph = build()
        return (
            johnson_traffic(graph.num_vertices, graph.num_edges, bat),
            emit_johnson_ir(graph, TEST_DEVICE, batch_size=bat),
        )

    return case


def _boundary_case(batch_transfers, n_row=None):
    def case():
        graph = road_like(220, 2.6, seed=1)
        plan = plan_boundary(graph, TEST_DEVICE, seed=0)
        assert plan.n_row >= 1
        if n_row is not None:
            plan = dataclasses.replace(plan, n_row=n_row, num_buffers=1)
        return (
            boundary_traffic(plan, batch_transfers=batch_transfers),
            emit_boundary_ir(graph, TEST_DEVICE, plan=plan, batch_transfers=batch_transfers),
        )

    return case


def _update_case(plan):
    return lambda: (update_traffic(plan), emit_update_ir(plan, TEST_DEVICE))


#: every schedule with a traffic record: FW at n_d = 1..4 in both overlap
#: modes (n = 100 leaves a ragged last block at n_d = 2, 3 and 4), Johnson
#: with and without edges, boundary batched, unbatched and with a plan
#: that has no room for one strip, and both patch passes
TRAFFIC_CASES = [
    *[
        pytest.param(_fw_case(100, b, overlap), id=f"fw-nd{nd}-{mode}")
        for nd, b in ((1, 100), (2, 60), (3, 40), (4, 30))
        for overlap, mode in ((True, "overlap"), (False, "serial"))
    ],
    pytest.param(_johnson_case(lambda: rmat(110, 800, seed=2), 17), id="johnson"),
    pytest.param(
        _johnson_case(lambda: CSRGraph.from_edges(40, [], [], []), 9),
        id="johnson-no-edges",
    ),
    pytest.param(_boundary_case(True), id="boundary-batched"),
    pytest.param(_boundary_case(False), id="boundary-unbatched"),
    pytest.param(_boundary_case(True, n_row=0), id="boundary-no-strip"),
    pytest.param(
        _update_case(UpdatePlan(kind="decrease", n=50, block_size=16, k=3)),
        id="patch-decrease",
    ),
    pytest.param(
        _update_case(UpdatePlan(
            kind="increase", n=50, block_size=16, affected_rows=(1, 5, 40), graph_m=120
        )),
        id="patch-increase",
    ),
]


class TestTrafficRecords:
    """Each schedule's traffic record is its emitted IR's tally, and its
    price is the transfer model summed over the IR's copies."""

    @pytest.mark.parametrize("case", TRAFFIC_CASES)
    def test_record_equals_ir_and_prices_its_copies(self, case):
        traffic, ir = case()
        tally, _ = analyze_transfers(ir)
        assert traffic == Traffic(
            tally.bytes_h2d, tally.bytes_d2h, tally.num_h2d, tally.num_d2h,
            tally.strided_rows,
        )
        for spec in (TEST_DEVICE, K80):
            summed = sum(
                copy_duration_2d(
                    spec, op.access.rect.rows,
                    op.access.rect.cols * ir.buffers[op.access.buffer].itemsize,
                )
                if op.strided else copy_duration(spec, op.access.nbytes)
                for op in ir.ops if isinstance(op, CopyOp)
            )
            assert traffic.seconds(spec) == pytest.approx(summed, rel=1e-12, abs=0)

    @pytest.mark.parametrize("num_devices", [1, 2, 3])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_multi_record_equals_the_fleet_tally(self, num_devices, overlap):
        g = road_like(220, 2.6, seed=1)
        plan = plan_boundary(g, TEST_DEVICE)
        irs = emit_multi_ir(g, TEST_DEVICE, num_devices, plan=plan, overlap=overlap)
        audit = audit_schedule(
            "multi-gpu", irs, TEST_DEVICE,
            bounds=lambda t: traffic_checks("multi", multi_traffic(plan, num_devices), t),
        )
        assert audit.ok and len(audit.bounds) == 5

    def test_split_multi_upload_fails_only_the_copy_count(self):
        # one device-0 upload of the two-device fleet split into two
        # halves: the same bytes in one more copy (26 -> 27 h2d copies),
        # which only the record's h2d copy count catches
        g = road_like(220, 2.6, seed=1)
        plan = plan_boundary(g, TEST_DEVICE)
        irs = emit_multi_ir(g, TEST_DEVICE, 2, plan=plan)
        ir = irs[0]
        idx, up = next(
            (i, op) for i, op in enumerate(ir.ops)
            if isinstance(op, CopyOp) and op.kind == "h2d"
        )
        r = up.access.rect
        mid = (r.r0 + r.r1) // 2
        itemsize = ir.buffers[up.access.buffer].itemsize
        halves = tuple(
            dataclasses.replace(
                up, key=(*up.key, part),
                access=dataclasses.replace(up.access, rect=half, nbytes=half.area * itemsize),
            )
            for part, half in (("top", Rect(r.r0, mid, r.c0, r.c1)),
                               ("bottom", Rect(mid, r.r1, r.c0, r.c1)))
        )
        split = dataclasses.replace(ir, ops=ir.ops[:idx] + halves + ir.ops[idx + 1 :])
        record = multi_traffic(plan, 2)
        audit = audit_schedule(
            "multi-gpu", [split, *irs[1:]], TEST_DEVICE,
            bounds=lambda t: traffic_checks("multi", record, t),
        )
        assert (record.num_h2d, audit.num_h2d) == (26, 27)
        assert audit.bytes_h2d == record.bytes_h2d
        assert audit.findings == [] and audit.hb.ok and not audit.ok
        assert [c.name for c in audit.bounds if not c.ok] == ["multi-h2d-copies"]

    def test_unbatched_cases_run_strided_copies(self):
        # the two unbatched boundary schedules are the ones that pay per
        # row segment: k² strided copies of k·n rows in all
        for batch_transfers, n_row in ((False, None), (True, 0)):
            traffic, _ir = _boundary_case(batch_transfers, n_row)()
            assert traffic.strided_rows > 0
