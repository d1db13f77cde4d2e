"""Unit tests for the device memory allocator."""

import numpy as np
import pytest

from repro.gpu.errors import OutOfMemoryError
from repro.gpu.memory import DeviceMemory, HostBuffer


class TestAlloc:
    def test_alloc_and_free(self):
        pool = DeviceMemory(capacity=1000)
        arr = pool.alloc((10, 10), np.float32)
        assert pool.used == 400
        arr.free()
        assert pool.used == 0
        assert arr.freed

    def test_oom_raises(self):
        pool = DeviceMemory(capacity=100)
        with pytest.raises(OutOfMemoryError) as exc:
            pool.alloc(200, np.uint8)
        assert exc.value.requested == 200
        assert exc.value.capacity == 100

    def test_oom_accounts_existing(self):
        pool = DeviceMemory(capacity=100)
        pool.alloc(80, np.uint8)
        with pytest.raises(OutOfMemoryError):
            pool.alloc(30, np.uint8)

    def test_capacity_never_exceeded(self):
        pool = DeviceMemory(capacity=1000)
        live = []
        rng = np.random.default_rng(0)
        for _ in range(200):
            size = int(rng.integers(1, 300))
            try:
                live.append(pool.alloc(size, np.uint8))
            except OutOfMemoryError:
                if live:
                    live.pop(int(rng.integers(len(live)))).free()
            assert 0 <= pool.used <= 1000

    def test_peak_tracking(self):
        pool = DeviceMemory(capacity=1000)
        a = pool.alloc(300, np.uint8)
        b = pool.alloc(400, np.uint8)
        a.free()
        b.free()
        assert pool.peak == 700
        assert pool.used == 0

    def test_double_free_raises(self):
        # a schedule that frees a buffer twice fails at run time, and the
        # second free returns no bytes to the pool
        pool = DeviceMemory(capacity=100)
        arr = pool.alloc(10, np.uint8)
        arr.free()
        with pytest.raises(ValueError, match="double free"):
            arr.free()
        assert arr.freed and pool.used == 0

    def test_fill_value(self):
        pool = DeviceMemory(capacity=1000)
        arr = pool.alloc((3, 3), np.float32, fill=np.inf)
        assert np.all(np.isinf(arr.data))

    def test_context_manager_frees(self):
        pool = DeviceMemory(capacity=100)
        with pool.alloc(10, np.uint8):
            assert pool.used == 10
        assert pool.used == 0

    def test_num_live(self):
        pool = DeviceMemory(capacity=1000)
        a = pool.alloc(10, np.uint8)
        b = pool.alloc(10, np.uint8)
        assert pool.num_live == 2
        a.free()
        assert pool.num_live == 1
        b.free()


class TestHostBuffer:
    def test_empty_constructor(self):
        buf = HostBuffer.empty((4, 4), np.float32, pinned=False)
        assert buf.data.shape == (4, 4)
        assert not buf.pinned
        assert buf.nbytes == 64

    def test_pinned_default(self):
        assert HostBuffer.empty((2,)).pinned
