"""Unit tests for the simulated clock."""

import pytest

from repro.gpu.timeline import Clock, fleet_floor, timing_report


def _at(clock: Clock, stream: str, t: float) -> str:
    """Make ``stream`` ready at ``t``; returns its name."""
    clock.wait(stream, (t, None))
    return stream


class TestScheduling:
    def test_single_op(self):
        clock = Clock()
        op = clock.schedule("compute", "s", 1.5, name="k")
        assert op.start == 0.0
        assert op.end == 1.5
        assert clock.elapsed == 1.5

    def test_engine_serialises(self):
        clock = Clock()
        clock.schedule("compute", "a", 1.0)
        op2 = clock.schedule("compute", "b", 1.0)
        assert op2.start == 1.0  # waits for the engine even if stream ready

    def test_engines_independent(self):
        clock = Clock()
        clock.schedule("compute", "a", 1.0)
        op = clock.schedule("h2d", "b", 1.0)
        assert op.start == 0.0  # different engine: overlaps

    def test_stream_ready_respected(self):
        clock = Clock()
        op = clock.schedule("compute", _at(clock, "s", 5.0), 1.0)
        assert op.start == 5.0

    def test_start_is_max_of_constraints(self):
        clock = Clock()
        clock.schedule("compute", "a", 3.0)
        op = clock.schedule("compute", _at(clock, "b", 1.0), 1.0)
        assert op.start == 3.0

    def test_engine_created_on_first_use(self):
        clock = Clock()
        assert list(clock.busy) == ["compute", "h2d", "d2h"]
        op = clock.send(0, 1, "s", "msg", 2.0)
        assert op.engine == "net:0->1" and op.end == 2.0
        assert list(clock.busy) == ["compute", "h2d", "d2h", "net:0->1"]
        assert clock.elapsed == 2.0

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError):
            Clock().schedule("compute", "s", -1.0)

    def test_zero_duration_ok(self):
        clock = Clock()
        op = clock.schedule("compute", _at(clock, "s", 2.0), 0.0)
        assert op.start == op.end == 2.0


class TestRules:
    def test_record_wait_orders_streams(self):
        clock = Clock()
        first = clock.schedule("compute", "a", 2.0)
        clock.wait("b", clock.record("a"))
        op = clock.schedule("h2d", "b", 1.0)
        assert op.start == 2.0 and op.pred is first

    def test_recv_floors_stream_at_arrival_and_links_send(self):
        sender, receiver = Clock(), Clock()
        sent = sender.send(0, 1, "default", "msg", 3.0)
        receiver.recv("default", sent)
        op = receiver.launch("default", "k", 1.0, overhead=0.0)
        assert op.start == 3.0 and op.pred is sent

    def test_tie_break_stream_then_host_then_engine(self):
        clock = Clock()
        clock.schedule("compute", "x", 1.0)
        on_stream = clock.schedule("h2d", "s", 1.0)
        clock.copy("d2h", "y", "down", 1.0)  # sync: floors the host at 1.0
        assert clock.schedule("compute", "s", 1.0).pred is on_stream
        clock = Clock()
        clock.schedule("compute", "x", 1.0)
        on_host = clock.copy("d2h", "y", "down", 1.0)
        assert clock.schedule("compute", "z", 1.0).pred is on_host

    def test_fleet_floor_links_the_op_that_set_fleet_time(self):
        slow, fast = Clock(), Clock()
        last = slow.launch("s", "k", 5.0, overhead=0.0)
        fast.launch("s", "k", 1.0, overhead=0.0)
        assert fleet_floor([slow, fast]) == 5.0
        op = fast.launch("s", "after", 1.0, overhead=0.0)
        assert op.start == 5.0 and op.pred is last
        path = fast.critical_path()
        assert [p.name for p in path] == ["k", "after"] and path[0] is last


class TestAccounting:
    def test_busy_time(self):
        clock = Clock()
        clock.schedule("compute", "a", 1.0)
        clock.schedule("compute", _at(clock, "b", 5.0), 2.0)
        assert clock.busy_time("compute") == pytest.approx(3.0)
        assert clock.busy["compute"] == 3.0

    def test_engine_ops_filter(self):
        clock = Clock()
        clock.schedule("compute", "s", 1.0, name="a")
        clock.schedule("h2d", "s", 1.0, name="b")
        assert [op.name for op in clock.engine_ops("h2d")] == ["b"]

    def test_num_ops_counts_without_trace(self):
        clock = Clock(record_trace=False)
        clock.schedule("compute", "s", 1.0)
        clock.schedule("compute", "s", 1.0)
        assert clock.num_ops == 2
        assert clock.ops == []
        assert clock.elapsed == 2.0
        assert clock.critical_path() == []

    def test_reset(self):
        clock = Clock()
        clock.schedule("compute", "s", 1.0)
        clock.stall_host(1.0, name="backoff")
        clock.reset()
        assert clock.elapsed == 0.0
        assert clock.num_ops == 0
        assert clock.ops == []
        assert list(clock.busy) == ["compute", "h2d", "d2h"]

    def test_validate_passes_on_good_schedule(self):
        clock = Clock()
        for i in range(10):
            clock.schedule("compute", _at(clock, f"s{i}", i * 0.1), 0.5)
        clock.validate()

    def test_op_metadata(self):
        clock = Clock()
        op = clock.schedule("h2d", "s1", 1.0, name="copy", nbytes=42)
        assert op.stream == "s1"
        assert op.nbytes == 42
        assert op.duration == 1.0

    def test_report_of_overlapped_clock(self):
        clock = Clock()
        clock.launch("a", "k", 2.0, overhead=0.0)
        clock.copy("h2d", "b", "up", 1.0, sync=False)
        rep = timing_report("demo", "dev", [clock])
        assert rep.makespan == 2.0
        assert (rep.compute_seconds, rep.h2d_seconds, rep.serial_seconds) == (2.0, 1.0, 3.0)
        assert rep.overlap_efficiency == 1.0  # the copy hides behind compute
        assert [op.name for op in rep.critical_path] == ["k"]
        assert rep.num_timed_ops == 2
