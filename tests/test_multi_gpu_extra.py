"""Extra multi-GPU coverage: heterogeneous devices and barrier semantics."""

import numpy as np
import pytest

from repro.core.multi_gpu import ooc_boundary_multi
from repro.gpu.device import K80, Device, V100
from repro.gpu.timeline import Clock
from repro.graphs.generators import road_like
from tests.conftest import oracle_apsp


class TestHeterogeneousDevices:
    def test_v100_plus_k80_correct(self):
        g = road_like(600, 2.6, seed=11)
        devices = [Device(V100.scaled(1 / 64)), Device(K80.scaled(1 / 64))]
        res = ooc_boundary_multi(g, devices, seed=0)
        assert np.allclose(res.to_array(), oracle_apsp(g))

    def test_plan_validated_against_smallest_device(self):
        g = road_like(600, 2.6, seed=11)
        devices = [Device(V100.scaled(1 / 64)), Device(K80.scaled(1 / 64))]
        res = ooc_boundary_multi(g, devices, seed=0)
        # K80 has less scaled memory; neither device may exceed its own
        for dev in devices:
            assert dev.memory.peak <= dev.memory.capacity

    def test_slow_device_bounds_makespan(self):
        g = road_like(600, 2.6, seed=11)
        fast_pair = [Device(V100.scaled(1 / 64)) for _ in range(2)]
        mixed_pair = [Device(V100.scaled(1 / 64)), Device(K80.scaled(1 / 64))]
        t_fast = ooc_boundary_multi(g, fast_pair, seed=0).simulated_seconds
        t_mixed = ooc_boundary_multi(g, mixed_pair, seed=0).simulated_seconds
        assert t_mixed > t_fast  # the K80 straggles at every barrier


class TestBarrierSemantics:
    def test_advance_to_floors_engines(self):
        clock = Clock()
        clock.schedule("compute", "a", 1.0)
        clock.floor(5.0)
        op = clock.schedule("compute", "b", 1.0)
        assert op.start >= 5.0
        op2 = clock.schedule("h2d", "c", 1.0)
        assert op2.start >= 5.0

    def test_advance_to_never_rewinds(self):
        clock = Clock()
        clock.schedule("compute", "a", 10.0)
        clock.floor(3.0)
        assert clock.engine_ready("compute") == 10.0

    def test_devices_aligned_after_barrier(self):
        from repro.core.multi_gpu import _barrier

        a, b = Device(V100.scaled(1 / 64)), Device(V100.scaled(1 / 64))
        a.default_stream.launch("k", 2.0)
        t = _barrier([a, b])
        assert t >= 2.0
        assert b.host_ready == t
        assert b.clock.engine_ready("compute") >= t
