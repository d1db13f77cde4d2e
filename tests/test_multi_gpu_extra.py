"""Extra multi-GPU coverage: heterogeneous devices, plans with room for
one output strip or none, and barrier semantics."""

import numpy as np
import pytest

from repro.core.multi_gpu import emit_multi_ir, ooc_boundary_multi
from repro.core.ooc_boundary import BoundaryInfeasibleError, plan_boundary
from repro.gpu.device import K80, TEST_DEVICE, Device, V100
from repro.gpu.timeline import Clock
from repro.graphs.generators import random_geometric, road_like
from repro.verifyplan import verify_plan
from tests.conftest import oracle_apsp


def geometric(n: int, seed: int = 1):
    """Degree-24 geometric graph; on TEST_DEVICE n=450 plans one output
    strip (``num_buffers == 1``) and n=500 none (``n_row == 0``)."""
    return random_geometric(n, float(np.sqrt(24 / (np.pi * n))), seed=seed)


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


class TestStripRoom:
    def test_one_buffer_plan_overlaps_in_one_strip(self):
        g = geometric(450)
        plan = plan_boundary(g, TEST_DEVICE, seed=0)
        assert (plan.n_row, plan.num_buffers) == (1, 1)
        devices = [Device(TEST_DEVICE) for _ in range(2)]
        res = ooc_boundary_multi(g, devices, plan=plan, overlap=True)
        assert np.array_equal(res.to_array(), oracle_apsp(g))
        assert all(dev.memory.peak <= dev.memory.capacity for dev in devices)
        for overlap in (False, True):
            ver = verify_plan(g, TEST_DEVICE, algorithms=["multi-gpu"], overlap=overlap)
            assert ver.ok and ver.audits["multi-gpu"].feasible

    def test_no_strip_plan_is_infeasible(self):
        g = geometric(500)
        plan = plan_boundary(g, TEST_DEVICE, seed=0)
        assert plan.n_row == 0
        devices = [Device(TEST_DEVICE) for _ in range(2)]
        for overlap in (False, True):
            with pytest.raises(BoundaryInfeasibleError):
                ooc_boundary_multi(g, devices, plan=plan, overlap=overlap)
            with pytest.raises(BoundaryInfeasibleError):
                emit_multi_ir(g, TEST_DEVICE, 2, plan=plan, overlap=overlap)
        assert all(dev.elapsed == 0.0 and dev.memory.peak == 0 for dev in devices)
        audit = verify_plan(g, TEST_DEVICE, algorithms=["multi-gpu"]).audits["multi-gpu"]
        assert not audit.feasible


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
