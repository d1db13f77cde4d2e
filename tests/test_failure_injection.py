"""Failure-injection tests: drivers must never leak device memory.

A mid-run failure (oversized explicit parameters, planning bugs) raises —
but the device must come back with zero live allocations so it stays
reusable, and a subsequent run on the same device must succeed.
"""

import numpy as np
import pytest

from repro.core import ooc_boundary, ooc_floyd_warshall, ooc_johnson
from repro.gpu.device import TEST_DEVICE, Device, V100
from repro.gpu.errors import OutOfMemoryError
from repro.graphs.generators import erdos_renyi, road_like
from tests.conftest import oracle_apsp


class TestNoLeakOnFailure:
    def test_fw_oom_leaves_device_clean(self):
        device = Device(TEST_DEVICE)
        g = erdos_renyi(250, 2000, seed=1)
        with pytest.raises(OutOfMemoryError):
            ooc_floyd_warshall(g, device, block_size=249)  # stage 3 cannot fit
        assert device.memory.used == 0
        assert device.memory.num_live == 0

    def test_johnson_oom_leaves_device_clean(self):
        device = Device(TEST_DEVICE)
        g = erdos_renyi(200, 1500, seed=2)
        with pytest.raises(OutOfMemoryError):
            # batch so large the output rows cannot fit
            ooc_johnson(g, device, batch_size=200)
        assert device.memory.used == 0
        assert device.memory.num_live == 0

    def test_boundary_oom_leaves_device_clean(self):
        device = Device(V100.scaled(1 / 64))
        g = road_like(900, 2.6, seed=3)
        from repro.core import plan_boundary
        from dataclasses import replace

        plan = plan_boundary(g, device.spec, seed=0)
        # sabotage the plan: claim far more buffered rows than memory holds
        bad = replace(plan, n_row=plan.num_components * 10, num_buffers=2)
        with pytest.raises(OutOfMemoryError):
            ooc_boundary(g, device, plan=bad)
        assert device.memory.used == 0
        assert device.memory.num_live == 0

    def test_incore_oom_leaves_device_clean(self):
        device = Device(TEST_DEVICE)
        g = erdos_renyi(500, 3000, seed=4)
        with pytest.raises(OutOfMemoryError):
            ooc_floyd_warshall(g, device, block_size=500)  # one block
        assert device.memory.used == 0

    def test_device_reusable_after_failure(self):
        device = Device(TEST_DEVICE)
        big = erdos_renyi(250, 2000, seed=5)
        small = erdos_renyi(80, 500, seed=6)
        with pytest.raises(OutOfMemoryError):
            ooc_floyd_warshall(big, device, block_size=249)
        res = ooc_floyd_warshall(small, device)
        assert np.allclose(res.to_array(), oracle_apsp(small))
        assert device.memory.used == 0

    def test_cleanup_preserves_preexisting_allocations(self):
        device = Device(TEST_DEVICE)
        keeper = device.memory.alloc((10, 10), np.float32, name="keeper")
        g = erdos_renyi(250, 2000, seed=7)
        with pytest.raises(OutOfMemoryError):
            ooc_floyd_warshall(g, device, block_size=240)
        assert not keeper.freed
        assert device.memory.used == keeper.nbytes
        keeper.free()


class TestCleanupContext:
    def test_frees_only_inner_allocations(self):
        from repro.gpu.memory import DeviceMemory

        pool = DeviceMemory(capacity=1000)
        outer = pool.alloc(100, np.uint8)
        with pytest.raises(RuntimeError):
            with pool.cleanup_on_error():
                pool.alloc(200, np.uint8)
                raise RuntimeError("boom")
        assert pool.used == 100
        outer.free()

    def test_no_effect_on_success(self):
        from repro.gpu.memory import DeviceMemory

        pool = DeviceMemory(capacity=1000)
        with pool.cleanup_on_error():
            arr = pool.alloc(50, np.uint8)
        assert pool.used == 50  # success path leaves allocations alone
        arr.free()
