"""Unit tests for the kernel cost models and device specs."""

import numpy as np
import pytest

from repro.gpu.device import K80, TEST_DEVICE, V100, Device, DeviceSpec
from repro.gpu.executor import operand_view
from repro.gpu.kernels import (
    MsspWorkload,
    extract_cost,
    fw_tile_cost,
    launch_seconds,
    minplus_cost,
    mssp_batch_cost,
)
from repro.gpu.transfer import copy_duration, copy_duration_2d
from repro.verifyplan.ir import Rect


class TestCostModels:
    def test_minplus_monotone_in_size(self):
        small = minplus_cost(V100, 64, 64, 64)
        large = minplus_cost(V100, 128, 128, 128)
        assert large > small

    def test_minplus_positive_even_empty(self):
        assert minplus_cost(V100, 0, 0, 0) >= V100.kernel_launch_overhead

    def test_fw_tile_costs_more_than_minplus(self):
        # sequential dependence factor makes FW closure dearer per op
        assert fw_tile_cost(V100, 128) > minplus_cost(V100, 128, 128, 128)

    def test_fw_tile_cubic_scaling(self):
        t1 = fw_tile_cost(V100, 256) - V100.kernel_launch_overhead
        t2 = fw_tile_cost(V100, 512) - V100.kernel_launch_overhead
        assert t2 / t1 == pytest.approx(8.0, rel=0.2)

    def test_extract_is_bandwidth_only(self):
        assert extract_cost(V100, 100, 100) < minplus_cost(V100, 100, 100, 100)

    def test_k80_slower_than_v100(self):
        assert fw_tile_cost(K80, 512) > fw_tile_cost(V100, 512)


class TestLaunchSeconds:
    """One accumulator-skip rule for every operand form: device arrays,
    host arrays and IR buffer ids, bare or with a rect."""

    FULL = Rect(0, 4, 0, 6)
    #: the 4×6 accumulator folds in a 4×2 ⊗ 2×6 product: inner dimension 2
    EXPECTED = minplus_cost(V100, 4, 2, 6)

    @staticmethod
    def _view_shape(op):
        return operand_view(op).shape

    def _price(self, acc_read, acc_write, a, b):
        return launch_seconds("mp_x", V100, (acc_read, a, b), (acc_write,), self._view_shape)

    def test_host_arrays_bare_or_full_rect(self):
        acc, a, b = np.zeros((4, 6)), np.zeros((4, 2)), np.zeros((2, 6))
        for read in (acc, (acc, self.FULL)):
            for write in (acc, (acc, self.FULL)):
                assert self._price(read, write, a, b) == self.EXPECTED

    def test_device_arrays(self):
        mem = Device(TEST_DEVICE).memory
        acc, a, b = mem.alloc((4, 6)), mem.alloc((4, 2)), mem.alloc((2, 6))
        assert self._price((acc, self.FULL), (acc, self.FULL), a, b) == self.EXPECTED
        assert self._price(acc, (acc, self.FULL), a, b) == self.EXPECTED

    def test_ir_buffer_ids_compare_by_value(self):
        def shape(op):
            return (op[1].rows, op[1].cols)

        # two distinct int objects naming the same IR buffer
        read_id, write_id = int("1000"), int("1000")
        reads = ((read_id, self.FULL), (1001, Rect(0, 4, 0, 2)), (1002, Rect(0, 2, 0, 6)))
        seconds = launch_seconds("mp_x", V100, reads, ((write_id, self.FULL),), shape)
        assert seconds == self.EXPECTED

    def test_other_buffer_or_region_is_an_operand(self):
        acc, twin = np.zeros((4, 6)), np.zeros((4, 6))
        a, b = np.zeros((4, 2)), np.zeros((2, 6))
        # a same-shaped read of another buffer conforms first: inner dim 6
        assert self._price(twin, acc, a, b) == minplus_cost(V100, 4, 6, 6)
        big = np.zeros((8, 6))
        top, bottom = (big, Rect(0, 4, 0, 6)), (big, Rect(4, 8, 0, 6))
        assert self._price(bottom, top, a, b) == minplus_cost(V100, 4, 6, 6)


class TestMsspCost:
    def workload(self, relax=10000, heavy=0, iters=10, child=0):
        return MsspWorkload(
            relaxations=relax, heavy_relaxations=heavy,
            iterations=iters, child_launches=child,
        )

    def test_full_occupancy_rate(self):
        w = self.workload(relax=int(TEST_DEVICE.relax_rate))
        bat = TEST_DEVICE.max_active_blocks
        t = mssp_batch_cost(TEST_DEVICE, w, bat, dynamic_parallelism=False)
        assert t == pytest.approx(
            1.0 + w.iterations * TEST_DEVICE.sync_overhead
            + TEST_DEVICE.kernel_launch_overhead,
            rel=0.01,
        )

    def test_low_occupancy_penalty(self):
        w = self.workload()
        full = mssp_batch_cost(TEST_DEVICE, w, TEST_DEVICE.max_active_blocks,
                               dynamic_parallelism=False)
        tiny = mssp_batch_cost(TEST_DEVICE, w, 1, dynamic_parallelism=False)
        assert tiny > full

    def test_saturation_point(self):
        # beyond the saturation fraction, more blocks do not help
        w = self.workload()
        sat = int(TEST_DEVICE.occupancy_saturation * TEST_DEVICE.max_active_blocks) + 1
        a = mssp_batch_cost(TEST_DEVICE, w, sat, dynamic_parallelism=False)
        b = mssp_batch_cost(TEST_DEVICE, w, sat * 4, dynamic_parallelism=False)
        assert a == pytest.approx(b)

    def test_dp_helps_at_low_occupancy_with_heavy_work(self):
        w = self.workload(relax=100000, heavy=90000, child=10)
        no_dp = mssp_batch_cost(TEST_DEVICE, w, 1, dynamic_parallelism=False)
        dp = mssp_batch_cost(TEST_DEVICE, w, 1, dynamic_parallelism=True)
        assert dp < no_dp

    def test_dp_noop_without_heavy(self):
        w = self.workload(heavy=0)
        a = mssp_batch_cost(TEST_DEVICE, w, 2, dynamic_parallelism=True)
        b = mssp_batch_cost(TEST_DEVICE, w, 2, dynamic_parallelism=False)
        assert a == b

    def test_invalid_bat(self):
        with pytest.raises(ValueError):
            mssp_batch_cost(TEST_DEVICE, self.workload(), 0, dynamic_parallelism=False)

    def test_heavy_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            MsspWorkload(relaxations=10, heavy_relaxations=20, iterations=1, child_launches=0)


class TestTransferModel:
    def test_latency_floor(self):
        assert copy_duration(V100, 0) == V100.transfer_latency

    def test_bandwidth_term(self):
        t = copy_duration(V100, int(11.75e9))
        assert t == pytest.approx(1.0 + V100.transfer_latency)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            copy_duration(V100, -1)

    def test_2d_pays_per_row(self):
        one_row = copy_duration_2d(V100, 1, 4096)
        many_rows = copy_duration_2d(V100, 100, 4096)
        # 99 extra rows each pay the per-row overhead on top of bandwidth
        marginal = (many_rows - one_row) / 99
        assert marginal == pytest.approx(
            V100.row_transfer_overhead + 4096 / V100.transfer_throughput
        )

    def test_2d_equals_sum_of_segments(self):
        t = copy_duration_2d(V100, 10, 1000)
        expected = V100.transfer_latency + 10 * (
            V100.row_transfer_overhead + 1000 / V100.transfer_throughput
        )
        assert t == pytest.approx(expected)


class TestScaledSpec:
    def test_memory_scales_quadratically(self):
        s = V100.scaled(0.5)
        assert s.memory_bytes == pytest.approx(V100.memory_bytes * 0.25, rel=0.01)

    def test_rates_scale_linearly(self):
        s = V100.scaled(0.5)
        assert s.minplus_rate == pytest.approx(V100.minplus_rate * 0.5)
        assert s.transfer_throughput == pytest.approx(V100.transfer_throughput * 0.5)

    def test_latency_unscaled(self):
        s = V100.scaled(1 / 64)
        assert s.transfer_latency == V100.transfer_latency
        assert s.row_transfer_overhead == V100.row_transfer_overhead

    def test_transfer_exponent_zero_keeps_throughput(self):
        s = V100.scaled(1 / 64, transfer_exponent=0.0)
        assert s.transfer_throughput == V100.transfer_throughput

    def test_relax_exponent(self):
        s = V100.scaled(1 / 4, relax_exponent=0.5)
        assert s.relax_rate == pytest.approx(V100.relax_rate * 0.5)

    def test_identity_scale(self):
        s = V100.scaled(1.0)
        assert s.memory_bytes == V100.memory_bytes
        assert s.minplus_rate == V100.minplus_rate

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            V100.scaled(0.0)
        with pytest.raises(ValueError):
            V100.scaled(2.0)

    def test_paper_throughputs(self):
        # Section V-E measured values
        assert V100.transfer_throughput == pytest.approx(11.75e9)
        assert K80.transfer_throughput == pytest.approx(7.23e9)

    def test_paper_memory_sizes(self):
        # Table II
        assert V100.memory_bytes == 16 * 1024**3
        assert K80.memory_bytes == 12 * 1024**3


def test_spec_is_frozen():
    with pytest.raises(Exception):
        V100.memory_bytes = 1  # type: ignore[misc]


def test_spec_is_dataclass_with_name():
    assert isinstance(V100, DeviceSpec)
    assert V100.name == "V100"
