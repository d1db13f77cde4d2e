"""Regression tests for the Chrome-trace export of the device schedule."""

from __future__ import annotations

import json

from repro.core.ooc_fw import ooc_floyd_warshall
from repro.gpu.device import TEST_DEVICE, Device
from repro.gpu.timeline import timing_report
from repro.gpu.trace import export_chrome_trace


def _traced_device(graph):
    device = Device(TEST_DEVICE)
    ooc_floyd_warshall(graph, device, block_size=40, overlap=True)
    return device


def test_export_chrome_trace_is_valid_trace_json(small_rmat, tmp_path):
    device = _traced_device(small_rmat)
    path = export_chrome_trace(device, tmp_path / "trace.json")
    assert path.exists()
    doc = json.loads(path.read_text())

    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert isinstance(events, list) and events

    meta = [e for e in events if e["ph"] == "M"]
    slices = [e for e in events if e["ph"] == "X"]
    assert meta and slices
    assert {e["ph"] for e in events} <= {"M", "X"}

    # metadata rows name every engine, and every slice maps onto one of them
    engine_pids = {e["pid"] for e in meta}
    engine_names = {e["args"]["name"] for e in meta}
    assert {"engine:compute", "engine:h2d", "engine:d2h"} <= engine_names
    for e in slices:
        assert e["pid"] in engine_pids
        assert isinstance(e["ts"], float) and e["ts"] >= 0.0
        assert isinstance(e["dur"], float) and e["dur"] >= 0.0
        assert isinstance(e["name"], str) and e["name"]
        assert "stream" in e["args"] and "nbytes" in e["args"]

    # a blocked-FW run must show kernels and both copy directions
    names = {e["name"] for e in slices}
    assert "fw_diag" in names
    assert "h2d" in names and "d2h" in names


def test_trace_slices_match_timeline_ops(small_rmat, tmp_path):
    device = _traced_device(small_rmat)
    doc = json.loads(export_chrome_trace(device, tmp_path / "t.json").read_text())
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == len(device.clock.ops)
    # timestamps are seconds->microseconds; spot check the first op
    first = device.clock.ops[0]
    assert any(
        abs(e["ts"] - first.start * 1e6) < 1e-9 and abs(e["dur"] - first.duration * 1e6) < 1e-9
        for e in slices
    )


def test_utilization_report_consistent_with_trace(small_rmat):
    device = _traced_device(small_rmat)
    report = timing_report("floyd-warshall", TEST_DEVICE.name, [device.clock])
    assert report.makespan == device.elapsed > 0
    assert report.serial_seconds > 0
    assert report.compute_seconds > 0
    assert report.h2d_seconds > 0 and report.d2h_seconds > 0
    assert report.num_timed_ops == len(device.clock.ops)
    # the run's critical path chains back in time and covers the makespan
    ends = [op.end for op in report.critical_path]
    assert ends == sorted(ends) and ends[-1] == report.makespan
    assert report.to_dict()["critical_path_seconds"] >= 0.99 * report.makespan
