"""Schedule-sanitizer tests: clean drivers, seeded hazards, unit hazards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ooc_boundary import ooc_boundary
from repro.core.ooc_fw import ooc_floyd_warshall
from repro.core.ooc_johnson import ooc_johnson
from repro.gpu.device import TEST_DEVICE, Device
from repro.gpu.stream import Event, Stream
from repro.sanitize import DRIVER_NAMES, sanitize_driver


# ---------------------------------------------------------------------------
# Production schedules are hazard-free
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("overlap", [True, False])
def test_ooc_fw_schedule_is_clean(any_graph, overlap):
    device = Device(TEST_DEVICE, sanitize=True)
    # force several blocks so the double-buffered stage 3 actually runs
    ooc_floyd_warshall(any_graph, device, overlap=overlap, block_size=40)
    report = device.hazard_report()
    assert report.clean, report.describe()
    assert report.num_ops > 10


@pytest.mark.parametrize("overlap", [True, False])
def test_ooc_boundary_schedule_is_clean(any_graph, overlap):
    device = Device(TEST_DEVICE, sanitize=True)
    ooc_boundary(any_graph, device, overlap=overlap)
    report = device.hazard_report()
    assert report.clean, report.describe()


def test_ooc_boundary_unbatched_schedule_is_clean(small_rmat):
    device = Device(TEST_DEVICE, sanitize=True)
    ooc_boundary(small_rmat, device, batch_transfers=False)
    assert device.hazard_report().clean


@pytest.mark.parametrize("overlap", [True, False])
def test_ooc_johnson_schedule_is_clean(any_graph, overlap):
    device = Device(TEST_DEVICE, sanitize=True)
    ooc_johnson(any_graph, device, overlap=overlap)
    report = device.hazard_report()
    assert report.clean, report.describe()


@pytest.mark.parametrize("name", DRIVER_NAMES)
def test_sanitize_driver_runner_all_clean(small_rmat, name):
    report, result = sanitize_driver(name, small_rmat, TEST_DEVICE)
    assert report.clean, report.describe()
    assert result.simulated_seconds > 0
    assert report.num_ops > 0


def test_multi_gpu_overlapped_drain_is_clean(any_graph):
    report, _ = sanitize_driver("multi-gpu", any_graph, TEST_DEVICE, overlap=True)
    assert report.clean, report.describe()


def test_multi_gpu_merged_report_counts(small_rmat):
    report, _ = sanitize_driver("multi-gpu", small_rmat, TEST_DEVICE, num_devices=3)
    assert report.clean
    # merged over three devices, each with its own op/buffer tally
    assert "+" in report.device


def test_multi_gpu_zero_devices_rejected(small_rmat):
    with pytest.raises(ValueError, match="at least one device"):
        sanitize_driver("multi-gpu", small_rmat, TEST_DEVICE, num_devices=0)


def test_cli_multi_gpu_follows_the_overlap_mode(capsys):
    # `repro sanitize` runs the multi-GPU drain it is asked for: the
    # overlapped fleet double-buffers one strip per device
    import json

    from repro.cli import main

    buffers = {}
    for flags in ((), ("--no-overlap",)):
        argv = ["sanitize", "rmat:n=110,m=800", "--device", "test", "--scale", "1",
                "--driver", "multi-gpu", "--json", *flags]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)["drivers"]["multi-gpu"]
        assert report["clean"]
        buffers[flags] = report["num_buffers"]
    assert buffers[()] == buffers[("--no-overlap",)] + 2


# ---------------------------------------------------------------------------
# Seeded hazards: strip one event edge, the sanitizer must name the bug
# ---------------------------------------------------------------------------
def _drop_waits_on(monkeypatch, event_name: str) -> None:
    orig_wait = Stream.wait

    def broken_wait(self, event):
        if event.name == event_name:
            return  # the seeded bug: handoff edge silently dropped
        return orig_wait(self, event)

    monkeypatch.setattr(Stream, "wait", broken_wait)


def test_boundary_missing_strip_ready_is_flagged(small_rmat, monkeypatch):
    """Dropping the compute→copier handoff in the double-buffered flush
    races the async download against the min-plus writes."""
    _drop_waits_on(monkeypatch, "strip-ready")
    device = Device(TEST_DEVICE, sanitize=True)
    ooc_boundary(small_rmat, device, overlap=True)
    report = device.hazard_report()
    assert not report.clean
    races = [h for h in report.hazards if h.kind == "write-read-race"]
    assert races, report.describe()
    hazard = races[0]
    # names the offending stream pair and the accumulation buffer
    assert set(hazard.streams) == {"default", "bound-copy"}
    assert hazard.buffer.startswith("out")
    assert "d2h" in hazard.second_op


def test_multi_gpu_missing_strip_ready_is_flagged(small_rmat, monkeypatch):
    """Dropping the compute→copier handoff in the multi-GPU overlapped
    drain races each device's async strip download against the min-plus
    writes into the same output strip."""
    _drop_waits_on(monkeypatch, "strip-ready")
    report, _ = sanitize_driver("multi-gpu", small_rmat, TEST_DEVICE, overlap=True)
    assert report.kinds() == ["write-read-race"], report.describe()
    for hazard in report.hazards:
        assert set(hazard.streams) == {"default", "multi-copy"}
        assert hazard.buffer.startswith("out")


def test_johnson_missing_mssp_done_is_flagged(small_rmat, monkeypatch):
    _drop_waits_on(monkeypatch, "mssp-done")
    device = Device(TEST_DEVICE, sanitize=True)
    ooc_johnson(small_rmat, device, overlap=True, batch_size=30)
    report = device.hazard_report()
    assert "write-read-race" in report.kinds()
    buffers = {h.buffer for h in report.hazards}
    assert any(b.startswith("rows") for b in buffers)


def test_fw_missing_up_event_is_flagged(small_rmat, monkeypatch):
    """Dropping the copier→compute upload edge in stage 3 races the
    rank-update reads against the async uploads."""
    _drop_waits_on(monkeypatch, "up")
    device = Device(TEST_DEVICE, sanitize=True)
    ooc_floyd_warshall(small_rmat, device, overlap=True, block_size=40)
    report = device.hazard_report()
    assert not report.clean
    assert any("race" in k for k in report.kinds())


# ---------------------------------------------------------------------------
# Unit-level hazards on a hand-built schedule
# ---------------------------------------------------------------------------
def test_unordered_cross_stream_write_read_is_a_race():
    device = Device(TEST_DEVICE, sanitize=True)
    s1 = device.default_stream
    s2 = device.create_stream("other")
    buf = device.memory.alloc((8, 8), np.float32, name="tile")
    s1.copy_h2d_async(buf, np.zeros((8, 8), np.float32))
    s2.launch("consume", 1e-6, reads=(buf,))  # no wait: race
    report = device.hazard_report()
    # the unordered read both races the write and counts as uninitialized
    assert "write-read-race" in report.kinds()
    hazard = next(h for h in report.hazards if h.kind == "write-read-race")
    assert hazard.buffer == "tile"
    assert set(hazard.streams) == {"default", "other"}


def test_event_edge_orders_the_same_schedule():
    device = Device(TEST_DEVICE, sanitize=True)
    s1 = device.default_stream
    s2 = device.create_stream("other")
    buf = device.memory.alloc((8, 8), np.float32, name="tile")
    s1.copy_h2d_async(buf, np.zeros((8, 8), np.float32))
    s2.wait(s1.record(Event("ready")))
    s2.launch("consume", 1e-6, reads=(buf,))
    assert device.hazard_report().clean


def test_disjoint_regions_do_not_race():
    device = Device(TEST_DEVICE, sanitize=True)
    s1 = device.default_stream
    s2 = device.create_stream("other")
    buf = device.memory.alloc((8, 8), np.float32, name="tile", fill=0.0)
    s1.launch("top", 1e-6, writes=(buf.data[:4],))
    s2.launch("bottom", 1e-6, writes=(buf.data[4:],))  # unordered but disjoint
    assert device.hazard_report().clean


def test_overlapping_unordered_writes_race():
    device = Device(TEST_DEVICE, sanitize=True)
    s1 = device.default_stream
    s2 = device.create_stream("other")
    buf = device.memory.alloc((8, 8), np.float32, name="tile", fill=0.0)
    s1.launch("a", 1e-6, writes=(buf.data[:6],))
    s2.launch("b", 1e-6, writes=(buf.data[4:],))
    assert device.hazard_report().kinds() == ["write-write-race"]


def test_use_after_free_is_flagged():
    device = Device(TEST_DEVICE, sanitize=True)
    stream = device.default_stream
    buf = device.memory.alloc((4, 4), np.float32, name="tile")
    stream.copy_h2d(buf, np.zeros((4, 4), np.float32))
    data = buf.data
    buf.free()
    stream.launch("stale", 1e-6, reads=(data,))
    report = device.hazard_report()
    assert "use-after-free" in report.kinds()
    assert report.hazards[0].buffer == "tile"


def test_free_before_reset_clock_stays_freed():
    """Restarting the op numbering must not revive a freed buffer."""
    device = Device(TEST_DEVICE, sanitize=True)
    stream = device.default_stream
    buf = device.memory.alloc((4, 4), np.float32, name="tile", fill=0.0)
    stream.launch("fill", 1e-6, writes=(buf,))
    data = buf.data
    buf.free()
    device.reset_clock()
    stream.annotate("stale", reads=(data,))
    assert device.hazard_report().kinds() == ["use-after-free"]


def test_uninitialized_device_read_is_flagged():
    device = Device(TEST_DEVICE, sanitize=True)
    stream = device.default_stream
    buf = device.memory.alloc((4, 4), np.float32, name="tile")  # never written
    stream.launch("consume", 1e-6, reads=(buf,))
    report = device.hazard_report()
    assert report.kinds() == ["uninitialized-read"]


def test_filled_allocation_counts_as_initialized():
    device = Device(TEST_DEVICE, sanitize=True)
    stream = device.default_stream
    buf = device.memory.alloc((4, 4), np.float32, name="tile", fill=np.inf)
    stream.launch("consume", 1e-6, reads=(buf,))
    assert device.hazard_report().clean


def test_sync_copy_orders_across_streams_via_host():
    """cudaMemcpy semantics: a synchronous copy blocks the host, so work
    enqueued afterwards on any stream is ordered after it."""
    device = Device(TEST_DEVICE, sanitize=True)
    s1 = device.default_stream
    s2 = device.create_stream("other")
    buf = device.memory.alloc((4, 4), np.float32, name="tile")
    s1.copy_h2d(buf, np.zeros((4, 4), np.float32))  # sync
    s2.launch("consume", 1e-6, reads=(buf,))  # enqueued after the blocking copy
    assert device.hazard_report().clean


def test_reset_clock_also_resets_the_sanitizer_schedule():
    device = Device(TEST_DEVICE, sanitize=True)
    s1 = device.default_stream
    s2 = device.create_stream("other")
    buf = device.memory.alloc((4, 4), np.float32, name="tile")
    s1.copy_h2d_async(buf, np.zeros((4, 4), np.float32))
    s2.launch("consume", 1e-6, reads=(buf,))
    assert not device.hazard_report().clean
    device.reset_clock()
    assert device.hazard_report().clean  # schedule forgotten, buffers kept
    s1.copy_h2d(buf, np.zeros((4, 4), np.float32))
    s2.launch("consume", 1e-6, reads=(buf,))
    assert device.hazard_report().clean


def test_freed_buffer_id_is_not_reused_by_host_arrays():
    """A freed, never-accessed device buffer can be garbage-collected, and
    a later host array may reuse its address; the sanitizer keeps every
    tracked root alive, so the host array is never blamed on the dead
    buffer and every buffer is counted."""
    import gc

    device = Device(TEST_DEVICE, sanitize=True)
    stream = device.default_stream
    for i in range(50):
        device.memory.alloc((64, 64), np.float32, name=f"scratch{i}").free()
        gc.collect()
        with device.memory.alloc((64, 64), np.float32, name=f"tile{i}") as tile:
            stream.copy_h2d(tile, np.ones((64, 64), np.float32))
    report = device.hazard_report()
    assert report.clean, report.describe()
    assert report.num_buffers == 150


def test_hazard_report_requires_sanitize_flag():
    device = Device(TEST_DEVICE)
    assert device.sanitizer is None
    with pytest.raises(ValueError, match="sanitize=True"):
        device.hazard_report()


def test_unsanitized_device_ignores_access_annotations():
    device = Device(TEST_DEVICE)
    buf = device.memory.alloc((4, 4), np.float32)
    device.default_stream.launch("k", 1e-6, reads=(buf,), writes=(buf,))
    device.default_stream.annotate("memset", writes=(buf,))
    assert device.synchronize() >= 0
