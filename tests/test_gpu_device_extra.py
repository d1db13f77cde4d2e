"""Additional device/timeline coverage: trace control, spec invariants
under composition of scalings, and host-clock semantics."""

import numpy as np
import pytest

from repro.gpu.device import K80, TEST_DEVICE, V100, Device
from repro.gpu.kernels import minplus_cost
from repro.gpu.timeline import timing_report


class TestTraceControl:
    def test_record_trace_false_skips_ops_list(self):
        dev = Device(TEST_DEVICE, record_trace=False)
        dev.default_stream.launch("k", 1.0)
        assert dev.clock.ops == []
        assert dev.clock.num_ops == 1
        assert dev.elapsed >= 1.0

    def test_busy_counts_without_trace(self):
        dev = Device(TEST_DEVICE, record_trace=False)
        dev.default_stream.launch("k", 1.0)
        # documented behaviour: without a trace the clock keeps no ops,
        # but the summed durations still count every one
        assert dev.clock.engine_ops("compute") == []
        assert dev.clock.busy["compute"] == 1.0

    def test_drivers_work_without_trace(self):
        from repro.core import ooc_johnson
        from repro.graphs.generators import erdos_renyi
        from tests.conftest import oracle_apsp

        g = erdos_renyi(60, 350, seed=31)
        dev = Device(TEST_DEVICE, record_trace=False)
        res = ooc_johnson(g, dev)
        assert np.allclose(res.to_array(), oracle_apsp(g))
        assert res.simulated_seconds > 0
        # transfer stats degrade gracefully to zeros
        assert res.stats["bytes_h2d"] == 0


class TestSpecComposition:
    def test_scaled_composes_multiplicatively(self):
        once = V100.scaled(1 / 4).scaled(1 / 16)
        direct = V100.scaled(1 / 64)
        assert once.minplus_rate == pytest.approx(direct.minplus_rate)
        assert once.memory_bytes == pytest.approx(direct.memory_bytes, rel=0.01)
        assert once.sparse_charge_factor == pytest.approx(direct.sparse_charge_factor)

    def test_kernel_costs_scale_inverse_to_rates(self):
        full = minplus_cost(V100, 128, 128, 128) - V100.kernel_launch_overhead
        half = (
            minplus_cost(V100.scaled(0.5), 128, 128, 128)
            - V100.scaled(0.5).kernel_launch_overhead
        )
        assert half == pytest.approx(2 * full, rel=0.01)

    def test_presets_distinct(self):
        assert V100.minplus_rate > K80.minplus_rate
        assert V100.transfer_throughput > K80.transfer_throughput
        assert V100.memory_bytes > K80.memory_bytes


class TestHostClock:
    def test_sync_copy_then_kernel_orders(self):
        dev = Device(TEST_DEVICE)
        arr = dev.memory.alloc((64, 64), np.float32)
        dev.default_stream.copy_h2d(arr, np.zeros((64, 64), np.float32), pinned=True)
        t_after_copy = dev.host_ready
        dev.default_stream.launch("k", 0.5)
        dev.synchronize()
        assert dev.elapsed >= t_after_copy + 0.5

    def test_utilization_overlap_factor_range(self):
        from repro.core import ooc_floyd_warshall
        from repro.graphs.generators import erdos_renyi

        g = erdos_renyi(150, 900, seed=32)
        dev = Device(TEST_DEVICE)
        ooc_floyd_warshall(g, dev, overlap=True)
        rep = timing_report("floyd-warshall", TEST_DEVICE.name, [dev.clock])
        # Σ busy / makespan: >1 means the engines genuinely overlapped
        assert 0.5 <= rep.serial_seconds / rep.makespan <= 3.0
        assert 0.0 <= rep.overlap_efficiency <= 1.0

    def test_elapsed_monotone(self):
        dev = Device(TEST_DEVICE)
        times = []
        for i in range(5):
            dev.default_stream.launch(f"k{i}", 0.1)
            times.append(dev.elapsed)
        assert times == sorted(times)
