"""Unit tests for streams, events, and copy semantics."""

import numpy as np
import pytest

from repro.gpu.device import TEST_DEVICE, Device
from repro.gpu.memory import HostBuffer
from repro.gpu.stream import Event
from repro.gpu.transfer import copy_duration


@pytest.fixture
def device():
    return Device(TEST_DEVICE)


class TestKernels:
    def test_launch_is_async(self, device):
        s = device.default_stream
        s.launch("k", 1.0)
        # host only pays the launch overhead, not the kernel duration
        assert device.host_ready == pytest.approx(TEST_DEVICE.kernel_launch_overhead)
        assert device.synchronize() >= 1.0

    def test_same_stream_serialises(self, device):
        s = device.default_stream
        s.launch("a", 1.0)
        s.launch("b", 1.0)
        assert device.synchronize() >= 2.0

    def test_kernels_serialise_across_streams(self, device):
        # one compute engine: kernels from different streams still queue
        s1 = device.default_stream
        s2 = device.create_stream()
        s1.launch("a", 1.0)
        s2.launch("b", 1.0)
        assert device.synchronize() >= 2.0


class TestCopies:
    def test_sync_copy_blocks_host(self, device):
        arr = device.memory.alloc((8, 8), np.float32)
        host = HostBuffer.empty((8, 8), np.float32)
        host.data[...] = 3.0
        device.default_stream.copy_h2d(arr, host)
        assert np.all(arr.data == 3.0)
        expected = copy_duration(device.spec, host.nbytes, pinned=True)
        assert device.host_ready == pytest.approx(expected)

    def test_async_copy_does_not_block_host(self, device):
        arr = device.memory.alloc((8, 8), np.float32)
        host = HostBuffer.empty((8, 8), np.float32)
        device.default_stream.copy_h2d_async(arr, host)
        dur = copy_duration(device.spec, host.nbytes, pinned=True)
        assert device.host_ready < dur

    def test_d2h_moves_data(self, device):
        arr = device.memory.alloc((4,), np.float32)
        arr.data[...] = 7.0
        out = np.zeros(4, dtype=np.float32)
        device.default_stream.copy_d2h(out, arr, pinned=True)
        assert np.all(out == 7.0)

    def test_pageable_slower_than_pinned(self, device):
        nbytes = 10**6
        fast = copy_duration(device.spec, nbytes, pinned=True)
        slow = copy_duration(device.spec, nbytes, pinned=False)
        assert slow > fast

    def test_bare_ndarray_is_pageable_by_default(self, device):
        arr = device.memory.alloc((64, 64), np.float32)
        host = np.zeros((64, 64), dtype=np.float32)
        device.default_stream.copy_h2d(arr, host)
        t_pageable = device.host_ready
        device.reset_clock()
        device.default_stream.copy_h2d(arr, host, pinned=True)
        assert device.host_ready < t_pageable

    def test_copy_engines_direction_specific(self, device):
        # h2d and d2h run on separate engines and can overlap
        a = device.memory.alloc((128,), np.float32)
        b = device.memory.alloc((128,), np.float32)
        out = np.zeros(128, dtype=np.float32)
        host = np.zeros(128, dtype=np.float32)
        s1, s2 = device.create_stream(), device.create_stream()
        s1.copy_h2d_async(a, host, pinned=True)
        s2.copy_d2h_async(out, b, pinned=True)
        # the two copies overlap: makespan ≈ one copy (+ one async-issue
        # overhead on the host before the second is enqueued)
        dur = copy_duration(device.spec, 512, pinned=True)
        overhead = device.spec.kernel_launch_overhead
        assert device.elapsed <= dur + overhead + 1e-12
        assert device.elapsed < 2 * dur

    def test_strided_2d_copy_slower_than_contiguous(self, device):
        src = device.memory.alloc((64, 16), np.float32)
        dst = np.zeros((64, 16), dtype=np.float32)
        s = device.default_stream
        s.copy_d2h_2d(dst, src, pinned=True)
        strided = device.elapsed
        device.reset_clock()
        s.copy_d2h(dst, src, pinned=True)
        contiguous = device.elapsed
        assert strided > contiguous

    def test_2d_copy_requires_2d(self, device):
        src = device.memory.alloc((4,), np.float32)
        with pytest.raises(ValueError):
            device.default_stream.copy_d2h_2d(np.zeros(4, dtype=np.float32), src)


class TestEvents:
    def test_event_ordering_across_streams(self, device):
        s1 = device.create_stream()
        s2 = device.create_stream()
        s1.launch("a", 2.0)
        ev = s1.record(Event("done"))
        s2.wait(ev)
        start_floor = s2.ready_at
        assert start_floor >= 2.0

    def test_wait_without_record_is_noop(self, device):
        s = device.create_stream()
        s.wait(Event())
        assert s.ready_at == 0.0

    def test_stream_synchronize_blocks_host(self, device):
        s = device.create_stream()
        s.launch("a", 3.0)
        t = s.synchronize()
        assert t >= 3.0
        assert device.host_ready >= 3.0


class TestDevice:
    def test_reset_clock_keeps_memory(self, device):
        arr = device.memory.alloc((4,), np.float32)
        device.default_stream.launch("k", 1.0)
        device.synchronize()
        device.reset_clock()
        assert device.elapsed == 0.0
        assert not arr.freed
        assert device.memory.used > 0

    def test_elapsed_without_sync(self, device):
        device.default_stream.launch("k", 5.0)
        assert device.elapsed >= 5.0

    def test_stream_names_are_clock_lanes(self, device):
        assert device.create_stream("default") is device.default_stream
        copy = device.create_stream("copy")
        assert device.create_stream("copy") is copy
        assert device.create_stream() is not device.create_stream()
