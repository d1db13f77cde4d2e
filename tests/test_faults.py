"""Chaos-harness tests: fault injection, retry, and checkpoint/resume.

Three layers of guarantees over the four out-of-core drivers:

1. *Transient* faults (within the retry budget) at any site — first,
   middle, or last guarded op — leave the distances bit-identical to a
   fault-free run and the device memory empty.
2. *Permanent* faults (device loss) raise after exhausting the budget
   without leaking device memory, and a checkpointed run can be resumed
   to bit-identical distances.
3. Checkpoint stores defend themselves: corrupt/truncated stages, stale
   checkpoints of a different graph, and mismatched run parameters all
   raise a clean :class:`CheckpointError` naming the offender.

Fault-site ordinals are *measured*, not guessed: an empty ``FaultPlan``
attached to a device counts the guarded ops of each class, and the tests
target exact positions within those counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multi_gpu import ooc_boundary_multi
from repro.core.ooc_boundary import ooc_boundary
from repro.core.ooc_fw import ooc_floyd_warshall
from repro.core.ooc_johnson import ooc_johnson
from repro.faults import (
    FAULT_SITES,
    CheckpointError,
    CheckpointStore,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    graph_fingerprint,
)
from repro.gpu.device import TEST_DEVICE, Device
from repro.gpu.errors import TransientDeviceError
from repro.graphs.generators import rmat
from tests.conftest import oracle_apsp, timed_op_names

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

DRIVERS = ("fw", "johnson", "boundary", "multi")

#: per-driver kwargs chosen so every driver has several outer iterations
#: (and therefore several checkpoints) on the shared 110-vertex graph
DRIVER_KWARGS = {
    "fw": {"block_size": 48},
    "johnson": {"batch_size": 40},
    "boundary": {},
    "multi": {},
}


def chaos_graph():
    return rmat(110, 800, seed=3)


GRAPH = chaos_graph()


def run_driver(name, *, faults=None, retry=None, checkpoint=None, graph=None,
               **extra):
    """Run one driver on fresh TEST_DEVICE device(s); returns (result, devices).

    For ``multi`` the fault plan is attached to device 0 of a two-device
    fleet. The devices are returned so callers can assert on memory state
    and fault reports even when the run raises (in which case the caller
    holds the devices it built itself).
    """
    graph = GRAPH if graph is None else graph
    kwargs = {**DRIVER_KWARGS[name], **extra}
    if name == "multi":
        devices = [
            Device(TEST_DEVICE, faults=faults if i == 0 else None, retry=retry)
            for i in range(2)
        ]
        result = ooc_boundary_multi(graph, devices, checkpoint=checkpoint, **kwargs)
        return result, devices
    device = Device(TEST_DEVICE, faults=faults, retry=retry)
    fn = {"fw": ooc_floyd_warshall, "johnson": ooc_johnson,
          "boundary": ooc_boundary}[name]
    result = fn(graph, device, checkpoint=checkpoint, **kwargs)
    return result, [device]


def assert_clean(devices):
    for dev in devices:
        assert dev.memory.used == 0
        assert dev.memory.num_live == 0


_BASELINE: dict = {}
_COUNTS: dict = {}


def baseline(name) -> np.ndarray:
    """Fault-free distances of one driver (cached across the module)."""
    if name not in _BASELINE:
        counter = FaultPlan()
        result, devices = run_driver(name, faults=counter)
        assert_clean(devices)
        _BASELINE[name] = result.to_array()
        _COUNTS[name] = {s: c for s, c in counter.op_counts.items() if c}
    return _BASELINE[name]


def op_counts(name) -> dict:
    """Measured guarded-op counts per site (counting pass, cached)."""
    baseline(name)
    return _COUNTS[name]


# ---------------------------------------------------------------------------
# 1. Transient faults: retry must be invisible in the results
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("site", FAULT_SITES)
@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_transient_fault_is_bit_identical(driver, site, position):
    expected = baseline(driver)
    total = op_counts(driver).get(site, 0)
    if total == 0:
        pytest.skip(f"driver {driver} issues no {site} ops")
    index = {"first": 0, "middle": total // 2, "last": total - 1}[position]
    plan = FaultPlan([FaultSpec(site, index)])
    result, devices = run_driver(driver, faults=plan)
    assert np.array_equal(result.to_array(), expected)
    assert np.allclose(result.to_array(), oracle_apsp(GRAPH))
    report = result.faults
    assert report is not None
    assert report.injected == 1
    assert report.injected_by_site == {site: 1}
    assert report.retried == 1
    assert report.exhausted == 0
    assert report.backoff_seconds > 0
    assert_clean(devices)


def test_fault_free_run_reports_clean_ledger():
    result, devices = run_driver("fw", faults=FaultPlan())
    assert result.faults is not None and result.faults.clean
    assert_clean(devices)
    # the backoff engine carries no ops on a fault-free run, so timing is
    # unchanged relative to an uninstrumented device
    host_ops = [
        op for op in devices[0].clock.ops if op.engine == "host"
    ]
    assert host_ops == []


def test_back_to_back_faulted_runs_reset_ordinals():
    # reset_clock() must re-zero the plan's attempt counters: the same
    # plan object injects the same fault in both runs
    plan = FaultPlan([FaultSpec("h2d", 1)])
    device = Device(TEST_DEVICE, faults=plan)
    r1 = ooc_floyd_warshall(GRAPH, device, **DRIVER_KWARGS["fw"])
    assert r1.faults is not None and r1.faults.injected == 1
    r2 = ooc_floyd_warshall(GRAPH, device, **DRIVER_KWARGS["fw"])
    assert r2.faults is not None and r2.faults.injected == 1
    assert np.array_equal(r2.to_array(), baseline("fw"))


def test_exhausted_retries_raise_without_leaking():
    for driver in DRIVERS:
        counts = op_counts(driver)
        site = "kernel" if counts.get("kernel") else next(iter(counts))
        device = Device(TEST_DEVICE, faults=FaultPlan.kill(site, counts[site] // 2))
        fleet = [device] + (
            [Device(TEST_DEVICE)] if driver == "multi" else []
        )
        with pytest.raises(TransientDeviceError):
            if driver == "multi":
                ooc_boundary_multi(GRAPH, fleet, **DRIVER_KWARGS[driver])
            else:
                fn = {"fw": ooc_floyd_warshall, "johnson": ooc_johnson,
                      "boundary": ooc_boundary}[driver]
                fn(GRAPH, device, **DRIVER_KWARGS[driver])
        assert_clean(fleet)
        assert device.fault_report.exhausted == 1
        # budget is max_attempts: 1 initial + (max_attempts - 1) retries
        assert device.fault_report.injected == device.retry.max_attempts


def test_custom_retry_policy_is_honoured():
    plan = FaultPlan.kill("h2d", 0)
    device = Device(TEST_DEVICE, faults=plan,
                    retry=RetryPolicy(max_attempts=2, base_delay=1e-3))
    with pytest.raises(TransientDeviceError):
        ooc_floyd_warshall(GRAPH, device, **DRIVER_KWARGS["fw"])
    assert device.fault_report.injected == 2
    assert device.fault_report.retried == 1
    assert device.fault_report.backoff_seconds == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# 2. Kill-and-resume: checkpoints must reconstruct the run bit-identically
# ---------------------------------------------------------------------------
def kill_and_resume(driver, site, index, tmp_path):
    """Kill a checkpointed run at (site, index), then resume it."""
    expected = baseline(driver)
    ckpt = tmp_path / "store"
    if driver == "multi":
        fleet = [Device(TEST_DEVICE, faults=FaultPlan.kill(site, index)),
                 Device(TEST_DEVICE)]
        with pytest.raises(TransientDeviceError):
            ooc_boundary_multi(GRAPH, fleet, checkpoint=ckpt,
                               **DRIVER_KWARGS[driver])
    else:
        fleet = [Device(TEST_DEVICE, faults=FaultPlan.kill(site, index))]
        fn = {"fw": ooc_floyd_warshall, "johnson": ooc_johnson,
              "boundary": ooc_boundary}[driver]
        with pytest.raises(TransientDeviceError):
            fn(GRAPH, fleet[0], checkpoint=ckpt, **DRIVER_KWARGS[driver])
    assert_clean(fleet)
    wrote = fleet[0].fault_report.checkpoints_written
    result, devices = run_driver(driver, checkpoint=ckpt)
    assert np.array_equal(result.to_array(), expected)
    assert result.faults is not None
    if wrote:
        assert result.faults.resumed >= 1
    assert_clean(devices)
    return result


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("site", FAULT_SITES)
def test_kill_and_resume_every_site(driver, site, tmp_path):
    total = op_counts(driver).get(site, 0)
    if total == 0:
        pytest.skip(f"driver {driver} issues no {site} ops")
    # the last guarded op of the site fails permanently: every checkpoint
    # the run could write exists by then
    kill_and_resume(driver, site, total - 1, tmp_path)


@pytest.mark.parametrize("driver", DRIVERS)
def test_resume_reports_progress(driver, tmp_path):
    counts = op_counts(driver)
    site = "kernel" if counts.get("kernel") else next(iter(counts))
    result = kill_and_resume(driver, site, counts[site] - 1, tmp_path)
    assert result.faults is not None and result.faults.resumed >= 1


def test_resume_of_completed_run_recomputes_nothing(tmp_path):
    ckpt = tmp_path / "store"
    first, _ = run_driver("fw", checkpoint=ckpt)
    assert first.faults is not None and first.faults.checkpoints_written >= 1
    again, devices = run_driver("fw", checkpoint=ckpt)
    assert np.array_equal(again.to_array(), baseline("fw"))
    # no kernels run on resume of a finished run
    assert all(op.engine != "compute" for op in devices[0].clock.ops)


def test_checkpointing_does_not_perturb_timing(tmp_path):
    plain, _ = run_driver("fw")
    stored, _ = run_driver("fw", checkpoint=tmp_path / "store")
    assert stored.simulated_seconds == plain.simulated_seconds


def test_multi_resume_on_different_fleet_size(tmp_path):
    ckpt = tmp_path / "store"
    fleet = [Device(TEST_DEVICE, faults=FaultPlan.kill("kernel", 20)),
             Device(TEST_DEVICE)]
    with pytest.raises(TransientDeviceError):
        ooc_boundary_multi(GRAPH, fleet, checkpoint=ckpt)
    assert_clean(fleet)
    # resume the 2-device run on a 3-device fleet: checkpoint stages are
    # device-count independent
    fleet3 = [Device(TEST_DEVICE) for _ in range(3)]
    result = ooc_boundary_multi(GRAPH, fleet3, checkpoint=ckpt)
    assert np.array_equal(result.to_array(), baseline("multi"))
    assert result.faults is not None and result.faults.resumed >= 1
    assert_clean(fleet3)


# ---------------------------------------------------------------------------
# 3. Checkpoint stores defend their integrity
# ---------------------------------------------------------------------------
def _killed_fw_store(tmp_path):
    ckpt = tmp_path / "store"
    device = Device(TEST_DEVICE, faults=FaultPlan.kill("h2d", 30))
    with pytest.raises(TransientDeviceError):
        ooc_floyd_warshall(GRAPH, device, checkpoint=ckpt, **DRIVER_KWARGS["fw"])
    assert device.fault_report.checkpoints_written >= 1
    return ckpt


def test_corrupt_stage_raises_checkpoint_error(tmp_path):
    ckpt = _killed_fw_store(tmp_path)
    stage = ckpt / "progress.npz"
    stage.write_bytes(b"garbage not a zipfile")
    with pytest.raises(CheckpointError) as err:
        run_driver("fw", checkpoint=ckpt)
    assert str(stage) in str(err.value)


def test_truncated_stage_raises_checkpoint_error(tmp_path):
    ckpt = _killed_fw_store(tmp_path)
    stage = ckpt / "progress.npz"
    stage.write_bytes(stage.read_bytes()[:20])
    with pytest.raises(CheckpointError) as err:
        run_driver("fw", checkpoint=ckpt)
    assert str(stage) in str(err.value)


def test_stale_checkpoint_of_other_graph_rejected(tmp_path):
    ckpt = _killed_fw_store(tmp_path)
    other = rmat(110, 800, seed=99)  # same shape, different content
    assert graph_fingerprint(other) != graph_fingerprint(GRAPH)
    with pytest.raises(CheckpointError, match="different graph"):
        run_driver("fw", checkpoint=ckpt, graph=other)


def test_checkpoint_of_other_algorithm_rejected(tmp_path):
    ckpt = _killed_fw_store(tmp_path)
    with pytest.raises(CheckpointError, match="algorithm"):
        run_driver("johnson", checkpoint=ckpt)


def test_mismatched_block_size_rejected(tmp_path):
    ckpt = _killed_fw_store(tmp_path)
    with pytest.raises(CheckpointError, match="block"):
        run_driver("fw", checkpoint=ckpt, block_size=32)


def test_stage_files_without_metadata_rejected(tmp_path):
    ckpt = _killed_fw_store(tmp_path)
    (ckpt / "meta.json").unlink()
    with pytest.raises(CheckpointError, match="no metadata"):
        run_driver("fw", checkpoint=ckpt)


def test_store_counters_and_atomic_layout(tmp_path):
    store = CheckpointStore(tmp_path / "s")
    store.bind(algorithm="x", fingerprint="f")
    store.save("stage", data=np.arange(4))
    assert store.saved == 1 and store.has("stage")
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
        "meta.json", "stage.npz",
    ]  # no leftover temp files
    loaded = store.load("stage")
    assert loaded is not None and np.array_equal(loaded["data"], np.arange(4))
    assert store.load("absent") is None


# ---------------------------------------------------------------------------
# 4. Property tests: random fault plans never change results or leak
# ---------------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    @settings(max_examples=15, deadline=None)
    @given(
        driver=st.sampled_from(DRIVERS),
        seed=st.integers(min_value=0, max_value=2**16),
        num_faults=st.integers(min_value=0, max_value=3),
    )
    def test_random_fault_plans_never_change_results(driver, seed, num_faults):
        # num_faults <= max_attempts - 1 and FaultPlan.random never reuses
        # an attempt ordinal, so the retry budget cannot exhaust
        expected = baseline(driver)
        plan = FaultPlan.random(seed, num_faults)
        result, devices = run_driver(driver, faults=plan)
        assert np.array_equal(result.to_array(), expected)
        assert result.faults is not None and result.faults.exhausted == 0
        assert_clean(devices)

    @settings(max_examples=15, deadline=None)
    @given(
        site=st.sampled_from(FAULT_SITES),
        index=st.integers(min_value=0, max_value=40),
        driver=st.sampled_from(("fw", "johnson", "boundary")),
    )
    def test_device_loss_never_leaks_memory(driver, site, index):
        # a permanent fault anywhere either misses (out of range: run
        # completes) or exhausts the budget — device memory is empty
        # either way
        device = Device(TEST_DEVICE, faults=FaultPlan.kill(site, index))
        fn = {"fw": ooc_floyd_warshall, "johnson": ooc_johnson,
              "boundary": ooc_boundary}[driver]
        try:
            result = fn(GRAPH, device, **DRIVER_KWARGS[driver])
        except TransientDeviceError:
            pass
        else:
            assert np.array_equal(result.to_array(), baseline(driver))
        assert device.memory.used == 0
        assert device.memory.num_live == 0


# ---------------------------------------------------------------------------
# 5. Recovery paths run the emitted schedule and stay HB-verifier-clean
# ---------------------------------------------------------------------------
def emitted_irs(name) -> list:
    """The IR(s) of the schedule ``run_driver(name)`` runs, one per device."""
    from repro.core.multi_gpu import emit_multi_ir
    from repro.core.ooc_boundary import emit_boundary_ir
    from repro.core.ooc_fw import emit_fw_ir
    from repro.core.ooc_johnson import emit_johnson_ir

    kwargs = DRIVER_KWARGS[name]
    if name == "fw":
        return [emit_fw_ir(GRAPH.num_vertices, TEST_DEVICE, **kwargs)]
    if name == "johnson":
        return [emit_johnson_ir(GRAPH, TEST_DEVICE, **kwargs)]
    if name == "boundary":
        return [emit_boundary_ir(GRAPH, TEST_DEVICE, **kwargs)]
    return emit_multi_ir(GRAPH, TEST_DEVICE, 2, **kwargs)


@pytest.mark.parametrize("driver", DRIVERS)
def test_retried_run_executes_the_emitted_schedule(driver):
    """One mid-run fault per site: the retried run adds only aborted
    copies and backoff stalls, which touch no buffer, to the timed ops
    of the emitted IR, so the clean static audit of that IR covers it."""
    counts = op_counts(driver)
    specs = [FaultSpec(site, total // 2) for site, total in counts.items()]
    result, devices = run_driver(driver, faults=FaultPlan(specs))
    assert result.faults is not None
    assert result.faults.injected >= len(specs) - (1 if driver == "multi" else 0)
    assert np.array_equal(result.to_array(), baseline(driver))
    from repro.verifyplan import analyze_hb, audit_ir

    irs = emitted_irs(driver)
    hb = analyze_hb(irs)
    assert hb.ok, hb.describe()
    assert all(audit_ir(ir)[2] == [] for ir in irs)
    stalls = 0
    for device, ir in zip(devices, irs, strict=True):
        names = [op.name for op in device.clock.ops]
        stalls += sum(name.startswith("backoff:") for name in names)
        kept = [n for n in names if not (n.endswith("!abort") or n.startswith("backoff:"))]
        assert kept == timed_op_names(ir)
    assert stalls == result.faults.retried > 0


def test_resumed_fw_schedule_passes_hb_and_audit():
    from repro.core.ooc_fw import emit_fw_ir
    from repro.verifyplan import analyze_hb, audit_ir

    ir = emit_fw_ir(GRAPH.num_vertices, TEST_DEVICE, block_size=48, start_k=1)
    hb = analyze_hb([ir])
    assert hb.ok, hb.describe()
    peak, _tally, findings = audit_ir(ir)
    assert findings == []
    assert peak <= TEST_DEVICE.memory_bytes


def test_resumed_johnson_schedule_passes_hb_and_audit():
    from repro.core.ooc_johnson import emit_johnson_ir
    from repro.verifyplan import analyze_hb, audit_ir

    ir = emit_johnson_ir(GRAPH, TEST_DEVICE, batch_size=40, start_batch=1)
    hb = analyze_hb([ir])
    assert hb.ok, hb.describe()
    peak, _tally, findings = audit_ir(ir)
    assert findings == []
    assert peak <= TEST_DEVICE.memory_bytes


def test_resumed_boundary_schedule_passes_hb_and_audit():
    # the single-device driver and the two-device fleet (both overlap
    # modes) resume from the same dist2/dist3/dist4 stages
    from repro.core.multi_gpu import emit_multi_ir
    from repro.core.ooc_boundary import emit_boundary_ir, plan_boundary
    from repro.verifyplan import analyze_hb, audit_ir

    plan = plan_boundary(GRAPH, TEST_DEVICE, seed=0)
    for resume in [(1, False, 0), (plan.num_components, True, 0),
                   (plan.num_components, True, 1)]:
        irs = [
            emit_boundary_ir(GRAPH, TEST_DEVICE, plan=plan, resume=resume),
            *emit_multi_ir(GRAPH, TEST_DEVICE, 2, plan=plan, resume=resume),
            *emit_multi_ir(GRAPH, TEST_DEVICE, 2, plan=plan, resume=resume,
                           overlap=True),
        ]
        for ir in irs:
            hb = analyze_hb([ir])
            assert hb.ok, f"{ir.device} {resume}: {hb.describe()}"
            peak, _tally, findings = audit_ir(ir)
            assert findings == []
            assert peak <= TEST_DEVICE.memory_bytes


@pytest.mark.parametrize("name", ["boundary", "multi"])
@pytest.mark.parametrize("kept", [("dist2-0",), ("dist2-0", "dist2-1", "dist2-2", "dist3")])
def test_resumed_run_executes_the_emitted_suffix(name, kept, tmp_path):
    # a run resumed from a stage prefix replays exactly the suffix
    # emit_*_ir(resume=...) compiles — the schedule the audit above proves
    from repro.core.multi_gpu import emit_multi_ir
    from repro.core.ooc_boundary import emit_boundary_ir, plan_boundary

    plan = plan_boundary(GRAPH, TEST_DEVICE, seed=0)
    run_driver(name, checkpoint=tmp_path)
    for stage in tmp_path.glob("dist*.npz"):
        if stage.stem not in kept:
            stage.unlink()
    result, devices = run_driver(name, checkpoint=tmp_path)
    assert np.array_equal(result.to_array(), baseline(name))
    resume = (sum(k.startswith("dist2") for k in kept), "dist3" in kept, 0)
    if name == "multi":
        irs = emit_multi_ir(GRAPH, TEST_DEVICE, 2, plan=plan, resume=resume)
    else:
        irs = [emit_boundary_ir(GRAPH, TEST_DEVICE, plan=plan, resume=resume)]
    for device, ir in zip(devices, irs):
        assert [op.name for op in device.clock.ops] == timed_op_names(ir)


# ---------------------------------------------------------------------------
# 6. The abort/backoff ops are visible in the execution record
# ---------------------------------------------------------------------------
def test_backoff_and_abort_ops_reach_the_timeline():
    plan = FaultPlan([FaultSpec("h2d", 0)])
    device = Device(TEST_DEVICE, faults=plan)
    ooc_floyd_warshall(GRAPH, device, **DRIVER_KWARGS["fw"])
    names = [op.name for op in device.clock.ops]
    assert any(name.endswith("!abort") for name in names)
    assert any(name.startswith("backoff:h2d:") for name in names)
    # backoff occupies the host engine, aborts the copy engine
    engines = {op.engine for op in device.clock.ops if
               op.name.startswith("backoff:")}
    assert engines == {"host"}


def test_faulted_run_takes_longer_than_fault_free():
    plain, _ = run_driver("fw")
    faulted, _ = run_driver("fw", faults=FaultPlan([FaultSpec("h2d", 0)]))
    assert faulted.simulated_seconds > plain.simulated_seconds
