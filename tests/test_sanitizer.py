"""Schedule hazards and the static checker that catches them.

Every hazard class a double-buffered schedule can hide is seeded into an
IR here and must be caught by :func:`~repro.verifyplan.hb.analyze_hb`
(races on device buffers and host blocks, in every interleaving) or by
:func:`~repro.verifyplan.analyze.audit_ir` (undefined reads and
use-after-free). The drivers' own schedules must come back clean on
every graph family, and the device must run exactly the IR that was
proven.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.multi_gpu import emit_multi_ir, ooc_boundary_multi
from repro.core.ooc_boundary import emit_boundary_ir, ooc_boundary
from repro.core.ooc_fw import emit_fw_ir, ooc_floyd_warshall
from repro.core.ooc_johnson import emit_johnson_ir, ooc_johnson
from repro.gpu.device import TEST_DEVICE, Device
from repro.gpu.executor import DeviceEmitter
from repro.verifyplan import IREmitter, Rect, analyze_hb, audit_ir
from repro.verifyplan.hb import keys_overlap
from repro.verifyplan.ir import RecordOp, WaitOp
from tests.conftest import timed_op_names


def _assert_clean(irs) -> None:
    hb = analyze_hb(irs)
    assert hb.ok, hb.describe()
    for ir in irs:
        findings = audit_ir(ir)[2]
        assert findings == [], [f.describe() for f in findings]


def _assert_runs(devices, irs) -> None:
    """Each device ran its IR's timed ops, in order."""
    for device, ir in zip(devices, irs, strict=True):
        assert [op.name for op in device.clock.ops] == timed_op_names(ir)


def _conflicts(report):
    return [f for f in report.findings if f.kind == "unordered-conflict"]


# ---------------------------------------------------------------------------
# Production schedules are hazard-free, and they are what the device runs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("overlap", [True, False])
def test_ooc_fw_schedule_is_clean(any_graph, overlap):
    # force several blocks so the double-buffered stage 3 actually runs
    ir = emit_fw_ir(any_graph.num_vertices, TEST_DEVICE, overlap=overlap, block_size=40)
    _assert_clean([ir])
    device = Device(TEST_DEVICE)
    ooc_floyd_warshall(any_graph, device, overlap=overlap, block_size=40)
    _assert_runs([device], [ir])


@pytest.mark.parametrize("overlap", [True, False])
def test_ooc_boundary_schedule_is_clean(any_graph, overlap):
    ir = emit_boundary_ir(any_graph, TEST_DEVICE, overlap=overlap)
    _assert_clean([ir])
    device = Device(TEST_DEVICE)
    ooc_boundary(any_graph, device, overlap=overlap)
    _assert_runs([device], [ir])


def test_ooc_boundary_unbatched_schedule_is_clean(small_rmat):
    ir = emit_boundary_ir(small_rmat, TEST_DEVICE, batch_transfers=False)
    _assert_clean([ir])
    device = Device(TEST_DEVICE)
    ooc_boundary(small_rmat, device, batch_transfers=False)
    _assert_runs([device], [ir])


@pytest.mark.parametrize("overlap", [True, False])
def test_ooc_johnson_schedule_is_clean(any_graph, overlap):
    ir = emit_johnson_ir(any_graph, TEST_DEVICE, overlap=overlap)
    _assert_clean([ir])
    device = Device(TEST_DEVICE)
    ooc_johnson(any_graph, device, overlap=overlap)
    _assert_runs([device], [ir])


def test_multi_gpu_overlapped_drain_is_clean(any_graph):
    irs = emit_multi_ir(any_graph, TEST_DEVICE, 2, overlap=True)
    _assert_clean(irs)
    devices = [Device(TEST_DEVICE) for _ in range(2)]
    ooc_boundary_multi(any_graph, devices, overlap=True)
    _assert_runs(devices, irs)


def test_multi_gpu_merged_report_counts(small_rmat):
    irs = emit_multi_ir(small_rmat, TEST_DEVICE, 3)
    report = analyze_hb(irs)
    assert report.ok, report.describe()
    # one report over the fleet, counting every device's ops and streams
    assert report.device == f"{TEST_DEVICE.name}×3"
    alone = [analyze_hb([ir]) for ir in irs]
    assert report.num_ops == sum(r.num_ops for r in alone) > 0
    assert report.num_streams == sum(r.num_streams for r in alone) == 3


def test_multi_gpu_zero_devices_rejected(small_rmat):
    with pytest.raises(ValueError, match="at least one device"):
        emit_multi_ir(small_rmat, TEST_DEVICE, 0)


def test_cli_multi_gpu_follows_the_overlap_mode(capsys):
    # `repro verify-plan` audits the multi-GPU drain it is asked for: the
    # overlapped fleet double-buffers one strip per device
    from repro.cli import main

    streams = {}
    for flags in ((), ("--no-overlap",)):
        argv = ["verify-plan", "rmat:n=110,m=800", "--device", "test", "--scale", "1",
                "--algorithm", "multi-gpu", "--json", *flags]
        assert main(argv) == 0
        audit = json.loads(capsys.readouterr().out)["audits"]["multi-gpu"]
        assert audit["ok"]
        streams[flags] = audit["hb"]["num_streams"]
    assert streams[()] == streams[("--no-overlap",)] + 2


# ---------------------------------------------------------------------------
# Seeded hazards: strip one event edge, the checker must name the bug
# ---------------------------------------------------------------------------
def _drop_waits_on(ir, event_name: str):
    """``ir`` with every wait on an event called ``event_name`` removed."""
    names = {op.event: op.name for op in ir.ops if isinstance(op, RecordOp)}
    ops = tuple(
        op for op in ir.ops
        if not (isinstance(op, WaitOp) and names[op.event] == event_name)
    )
    assert len(ops) < len(ir.ops), f"no wait on {event_name!r} to drop"
    return dataclasses.replace(ir, ops=ops)


def test_boundary_missing_strip_ready_is_flagged(small_rmat):
    """Dropping the compute→copier handoff in the double-buffered flush
    races the async download against the min-plus writes."""
    ir = emit_boundary_ir(small_rmat, TEST_DEVICE, overlap=True)
    races = _conflicts(analyze_hb([_drop_waits_on(ir, "strip-ready")]))
    assert races
    race = races[0]
    # names the offending stream pair and the accumulation buffer
    assert set(race.streams) == {"default", "bound-copy"}
    assert race.buffer.startswith("out")
    assert "d2h" in race.second and "write-read" in race.detail


def test_multi_gpu_missing_strip_ready_is_flagged(small_rmat):
    """Dropping the compute→copier handoff in the multi-GPU overlapped
    drain races each device's async strip download against the min-plus
    writes into the same output strip."""
    for ir in emit_multi_ir(small_rmat, TEST_DEVICE, 2, overlap=True):
        races = _conflicts(analyze_hb([_drop_waits_on(ir, "strip-ready")]))
        assert races
        for race in races:
            assert set(race.streams) == {"default", "multi-copy"}
            assert race.buffer.startswith("out")
            assert "write-read" in race.detail


def test_johnson_missing_mssp_done_is_flagged(small_rmat):
    ir = emit_johnson_ir(small_rmat, TEST_DEVICE, overlap=True, batch_size=30)
    races = _conflicts(analyze_hb([_drop_waits_on(ir, "mssp-done")]))
    assert any("write-read" in f.detail for f in races)
    assert any(f.buffer.startswith("rows") for f in races)


def test_fw_missing_up_event_is_flagged(small_rmat):
    """Dropping the copier→compute upload edge in stage 3 races the
    rank-update reads against the async uploads."""
    ir = emit_fw_ir(small_rmat.num_vertices, TEST_DEVICE, overlap=True, block_size=40)
    assert _conflicts(analyze_hb([_drop_waits_on(ir, "up")]))


# ---------------------------------------------------------------------------
# Unit-level hazards on a hand-built schedule
# ---------------------------------------------------------------------------
def _emitter(rank: int = 0) -> IREmitter:
    return IREmitter("unit", TEST_DEVICE.name, TEST_DEVICE.memory_bytes, rank=rank)


def test_unordered_cross_stream_write_read_is_a_race():
    em = _emitter()
    tile = em.alloc("tile", (8, 8))
    em.h2d(tile, key=("A", 0), sync=False)
    em.kernel("consume", reads=(tile,), stream="other")  # no wait: race
    (race,) = _conflicts(analyze_hb([em.finish()]))
    assert race.buffer == "tile"
    assert set(race.streams) == {"default", "other"}
    assert "write-read" in race.detail


def test_event_edge_orders_the_same_schedule():
    em = _emitter()
    tile = em.alloc("tile", (8, 8))
    em.h2d(tile, key=("A", 0), sync=False)
    em.wait(em.record("ready"), stream="other")
    em.kernel("consume", reads=(tile,), stream="other")
    _assert_clean([em.finish()])


def test_disjoint_regions_do_not_race():
    em = _emitter()
    tile = em.alloc("tile", (8, 8), prefilled=True)
    em.kernel("top", writes=((tile, Rect(0, 4, 0, 8)),))
    em.kernel("bottom", writes=((tile, Rect(4, 8, 0, 8)),), stream="other")
    assert analyze_hb([em.finish()]).ok  # unordered but disjoint


def test_overlapping_unordered_writes_race():
    em = _emitter()
    tile = em.alloc("tile", (8, 8), prefilled=True)
    em.kernel("a", writes=((tile, Rect(0, 6, 0, 8)),))
    em.kernel("b", writes=((tile, Rect(4, 8, 0, 8)),), stream="other")
    (race,) = _conflicts(analyze_hb([em.finish()]))
    assert "write-write" in race.detail


def _after_free(touch) -> list:
    """audit_ir findings of: upload a tile, free it, then ``touch(em, tile)``."""
    em = _emitter()
    tile = em.alloc("tile", (4, 4))
    em.h2d(tile, key=("A", 0))
    em.free(tile)
    touch(em, tile)
    return audit_ir(em.finish())[2]


def test_use_after_free_is_flagged():
    findings = _after_free(lambda em, t: em.kernel("stale", reads=(t,)))
    assert [(f.kind, f.buffer) for f in findings] == [("use-after-free", "tile")]
    assert "reads" in findings[0].detail and "op #2" in findings[0].detail


def test_write_after_free_is_flagged():
    findings = _after_free(lambda em, t: em.h2d(t, key=("A", 0)))
    assert [(f.kind, f.buffer) for f in findings] == [("use-after-free", "tile")]
    assert "writes" in findings[0].detail


def test_double_free_is_flagged():
    findings = _after_free(lambda em, t: em.free(t))
    assert [(f.kind, f.op_index) for f in findings] == [("use-after-free", 3)]
    assert findings[0].detail.startswith("free after")


def test_uninitialized_device_read_is_flagged():
    em = _emitter()
    tile = em.alloc("tile", (4, 4))  # never written
    em.kernel("consume", reads=(tile,))
    assert [f.kind for f in audit_ir(em.finish())[2]] == ["undefined-read"]


def test_filled_allocation_counts_as_initialized():
    em = _emitter()
    tile = em.alloc("tile", (4, 4), prefilled=True)
    em.kernel("consume", reads=(tile,))
    _assert_clean([em.finish()])


def test_sync_copy_orders_across_streams_via_host():
    """cudaMemcpy semantics: a synchronous copy blocks the host, so work
    enqueued afterwards on any stream is ordered after it."""
    em = _emitter()
    tile = em.alloc("tile", (4, 4))
    em.h2d(tile, key=("A", 0))  # sync
    em.kernel("consume", reads=(tile,), stream="other")
    _assert_clean([em.finish()])


# ---------------------------------------------------------------------------
# Host blocks: a copy reads (h2d) or writes (d2h) the block its key names
# ---------------------------------------------------------------------------
def _download_then_upload(d2h_key, h2d_key, *, ordered: bool = False):
    """An async download into ``d2h_key`` on ``copy``, then an async
    upload from ``h2d_key`` on ``default`` into a different buffer."""
    em = _emitter()
    out = em.alloc("out", (4, 4), prefilled=True)
    tile = em.alloc("tile", (4, 4))
    em.d2h(out, key=d2h_key, stream="copy", sync=False)
    if ordered:
        em.wait(em.record("down", stream="copy"))
    em.h2d(tile, key=h2d_key, sync=False)
    return analyze_hb([em.finish()])


def test_host_block_race_is_flagged():
    (race,) = _conflicts(_download_then_upload(("A", 1), ("A", 1)))
    assert race.buffer == "host"
    assert set(race.streams) == {"copy", "default"}
    assert race.first.endswith("writes host('A', 1)")
    assert race.second.endswith("reads host('A', 1)")
    assert "write-read" in race.detail


def test_host_block_race_through_a_key_prefix():
    # ("A", 1) holds its sub-block ("A", 1, 2), so they share bytes
    assert _conflicts(_download_then_upload(("A", 1), ("A", 1, 2)))
    assert _conflicts(_download_then_upload(("A", 1, 2), ("A", 1)))


def test_host_blocks_apart_or_ordered_do_not_race():
    assert _download_then_upload(("A", 1), ("A", 2)).ok
    assert _download_then_upload(("A", 1), ("B", 1)).ok
    assert _download_then_upload(("A", 1), ("A", 1), ordered=True).ok


def test_host_is_shared_across_the_fleet():
    """Two devices of one schedule copy through one host: a download on
    one and an upload of the same block on the other race unless a
    fleet barrier orders them."""
    for barrier in (False, True):
        ems = [_emitter(rank=r) for r in range(2)]
        out = ems[0].alloc("out", (4, 4), prefilled=True)
        tile = ems[1].alloc("tile", (4, 4))
        ems[0].d2h(out, key=("A", 1), sync=False)
        if barrier:
            for em in ems:
                em.barrier("handoff")
        ems[1].h2d(tile, key=("A", 1), sync=False)
        races = _conflicts(analyze_hb([em.finish() for em in ems]))
        if barrier:
            assert races == []
        else:
            (race,) = races
            assert set(race.streams) == {"r0/default", "r1/default"}


def _shares(a: np.ndarray, b: np.ndarray) -> bool:
    return a.size > 0 and b.size > 0 and bool(np.shares_memory(a, b))


def test_host_keys_name_the_bytes_they_copy(monkeypatch):
    """The prefix rule is sound for every schedule the repository runs:
    two copies whose host arrays share bytes, at least one of them a
    download, have overlapping keys. Seen through a recording host
    resolver on every driver (both overlap modes, unbatched boundary, a
    two-device fleet), a decrease-then-delete dynamic update and a
    service drain."""
    from repro.dynamic import DynamicAPSP, EdgeUpdate
    from repro.graphs.generators import rmat
    from repro.serve import APSPService, Query

    seen: list[tuple[str, tuple, np.ndarray]] = []
    for kind in ("h2d", "d2h"):
        orig = getattr(DeviceEmitter, kind)

        def copy(self, buf, rect=None, *, key, _orig=orig, _kind=kind, **kw):
            seen.append((_kind, tuple(key), self._host(key)))
            return _orig(self, buf, rect, key=key, **kw)

        monkeypatch.setattr(DeviceEmitter, kind, copy)

    shared: dict[str, int] = {}

    def check(label: str) -> None:
        """Assert the rule over one run's copies (one host); count the
        byte-sharing pairs with a download among them."""
        copies = list({
            (kind, key, a.ctypes.data, a.shape, a.strides): (kind, key, a)
            for kind, key, a in seen
        }.values())
        seen.clear()
        assert copies, label
        downloads = 0
        for i, (k1, key1, a1) in enumerate(copies):
            for k2, key2, a2 in copies[i + 1:]:
                if not _shares(a1, a2):
                    continue
                if "d2h" in (k1, k2):
                    downloads += 1
                    assert keys_overlap(key1, key2), (label, k1, key1, k2, key2)
                elif not keys_overlap(key1, key2):
                    # the one non-prefix pair: a block's two extract uploads
                    assert {key1[-1], key2[-1]} == {"c2b", "b2c"}, (label, key1, key2)
        shared[label] = downloads

    g = rmat(110, 800, seed=3)
    for overlap in (True, False):
        ooc_floyd_warshall(g, Device(TEST_DEVICE), overlap=overlap, block_size=40)
        check(f"fw overlap={overlap}")
        ooc_johnson(g, Device(TEST_DEVICE), overlap=overlap, batch_size=30)
        check(f"johnson overlap={overlap}")
        ooc_boundary(g, Device(TEST_DEVICE), overlap=overlap)
        check(f"boundary overlap={overlap}")
        ooc_boundary_multi(g, [Device(TEST_DEVICE) for _ in range(2)], overlap=overlap)
        check(f"multi overlap={overlap}")
    ooc_boundary(g, Device(TEST_DEVICE), batch_transfers=False)
    check("boundary unbatched")

    dyn = DynamicAPSP(rmat(48, 288, seed=8), spec=TEST_DEVICE, block_size=16)
    src, dst, w = dyn.graph.edge_array()
    result = dyn.apply([
        EdgeUpdate(int(src[0]), int(dst[0]), float(w[0]) // 2),
        EdgeUpdate.delete(int(src[1]), int(dst[1])),
    ])
    assert sorted(p.plan.kind for p in result.passes) == ["decrease", "increase"]
    check("dynamic")

    service = APSPService(g, spec=TEST_DEVICE)
    for u in range(0, 40, 3):
        service.submit(Query.sssp(u))
        service.submit(Query.point(u, (u + 5) % g.num_vertices))
    service.drain()
    check("service drain")
    # the drivers that re-read downloaded blocks exercise the rule
    assert all(v > 0 for k, v in shared.items() if k.split()[0] in ("fw", "boundary", "multi"))
