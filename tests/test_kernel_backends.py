"""Cross-path equivalence and contract tests for the kernel engine.

The engine on the numpy kernels, on the compiled kernels, and with its
split of a product into row panels across threads, must produce
results **bit-identical** to the naive rank-1 reference loop — min is
order-independent and float32 ``a + b`` rounds identically regardless of
compilation or threading, so equality here is exact ``array_equal``,
not ``allclose``. The suite covers random, inf-heavy, empty, degenerate,
and non-square tiles (parametrized and property-based),
Floyd–Warshall closure, the engine's dtype/layout coercion rules, its
serial-or-split rule, the one switch ``REPRO_JIT`` (for the engine and
batched Near-Far alike), and the graceful C→numpy fallback.
"""

import contextlib
import importlib
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.backends.jit as jit
import repro.core.engine as engine_mod
from repro.core.backends.base import finite_column_indices, numpy_fw_inplace, rank1_update
from repro.core.blocked_fw import blocked_floyd_warshall, floyd_warshall_inplace
from repro.core.engine import (
    KernelEngine,
    default_engine,
    panel_count,
    reset_default_engine,
)
from repro.core.minplus import DIST_DTYPE, minplus, minplus_update
from tests.conftest import forced_split, numpy_engine

#: engine cases, by the ids these tests have always carried: the engine
#: built under ``REPRO_JIT=off`` (numpy kernels), the default-built one
#: (compiled kernels when a compiler loads), and the latter with the
#: split cutoff forced to 0, three row panels on the shared pool
NUMPY, COMPILED, SPLIT = "reference", "jit", "threaded"
ENGINES = (NUMPY, COMPILED, SPLIT)


@contextlib.contextmanager
def engine_case(case):
    """The :class:`KernelEngine` an :data:`ENGINES` case names, live for
    the ``with`` block (the split case forces the split inside it)."""
    if case == NUMPY:
        yield numpy_engine()
    elif case == COMPILED:
        yield KernelEngine()
    else:
        with forced_split(workers=3):
            yield KernelEngine()


@pytest.fixture(autouse=True)
def _clean_default_engine():
    """Isolate the process-wide engine from per-test env manipulation."""
    reset_default_engine()
    yield
    reset_default_engine()


def naive_update(c, a, b):
    """Ground-truth rank-1 loop: no column skipping, no tiling."""
    out = c.copy()
    for k in range(a.shape[1]):
        np.minimum(out, a[:, k, None] + b[k, None, :], out=out)
    return out


def random_tiles(shape, inf_frac=0.0, seed=0, integer=True):
    """Random (c, a, b) operands with optional +inf entries."""
    bi, bk, bj = shape
    rng = np.random.default_rng(seed)

    def mat(r, c):
        if integer:
            m = rng.integers(0, 100, (r, c)).astype(DIST_DTYPE)
        else:
            m = (rng.random((r, c)) * 100).astype(DIST_DTYPE)
        if inf_frac:
            m[rng.random((r, c)) < inf_frac] = np.inf
        return m

    return mat(bi, bj), mat(bi, bk), mat(bk, bj)


SHAPES = [(17, 23, 11), (64, 64, 64), (1, 5, 1), (3, 1, 4), (128, 200, 96)]


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("inf_frac", [0.0, 0.3])
def test_backend_bit_identical(backend, shape, inf_frac):
    c, a, b = random_tiles(shape, inf_frac, seed=hash((shape, inf_frac)) % 2**32)
    expected = naive_update(c, a, b)
    got = c.copy()
    with engine_case(backend) as eng:
        eng.update(got, a, b)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("backend", ENGINES)
def test_backend_all_inf_operands(backend):
    """Entirely-+inf A (every column dead) must leave C untouched."""
    c, _, _ = random_tiles((9, 7, 9), seed=5)
    a = np.full((9, 7), np.inf, dtype=DIST_DTYPE)
    b = np.full((7, 9), np.inf, dtype=DIST_DTYPE)
    before = c.copy()
    with engine_case(backend) as eng:
        eng.update(c, a, b)
    assert np.array_equal(c, before)


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("shape", [(0, 5, 3), (4, 0, 3), (3, 5, 0), (0, 0, 0)])
def test_backend_empty_tiles(backend, shape):
    bi, bk, bj = shape
    c = np.zeros((bi, bj), dtype=DIST_DTYPE)
    a = np.zeros((bi, bk), dtype=DIST_DTYPE)
    b = np.zeros((bk, bj), dtype=DIST_DTYPE)
    before = c.copy()
    with engine_case(backend) as eng:
        eng.update(c, a, b)
    assert np.array_equal(c, before)  # k == 0 or no output elements


@settings(max_examples=40, deadline=None)
@given(
    bi=st.integers(1, 24),
    bk=st.integers(1, 24),
    bj=st.integers(1, 24),
    inf_frac=st.sampled_from([0.0, 0.2, 0.9]),
    seed=st.integers(0, 2**16),
)
def test_backends_agree_property(bi, bk, bj, inf_frac, seed):
    """Property: the numpy and compiled engines, and the compiled one with
    the cutoff forced to 0 (every product split), agree bit-for-bit on
    arbitrary tiles."""
    c, a, b = random_tiles((bi, bk, bj), inf_frac, seed)
    expected = naive_update(c, a, b)
    for name in ENGINES:
        got = c.copy()
        with engine_case(name) as eng:
            eng.update(got, a, b)
        assert np.array_equal(got, expected), name


@pytest.mark.parametrize("backend", ENGINES)
def test_fw_inplace_bit_identical(backend, rng=np.random.default_rng(7)):
    """The tile kernel (n=97) and the blocked closure above one closure
    block (n=600) both equal the plain pivot loop on integer weights."""
    for n in (97, 600):
        d = rng.integers(1, 50, (n, n)).astype(DIST_DTYPE)
        d[rng.random((n, n)) < 0.5] = np.inf
        np.fill_diagonal(d, 0.0)
        expected = numpy_fw_inplace(d.copy())
        with engine_case(backend) as eng:
            got = eng.fw_inplace(d.copy())
        assert np.array_equal(got, expected), n


@pytest.mark.parametrize("backend", ENGINES)
def test_update_operand_overlap_guard(backend):
    """``update`` rejects a ``C`` that shares memory with ``A`` or ``B``,
    in any dtype, and accepts disjoint tile views of one matrix even
    though their memory bounds overlap."""
    with engine_case(backend) as eng:
        _check_overlap_guard(eng)


def _check_overlap_guard(eng):
    for dtype in (np.float32, np.float64):
        d = np.arange(64 * 64, dtype=dtype).reshape(64, 64)
        t, diag = d[:32, 32:], d[32:, 32:].copy()
        for c, a, b in (
            (t, t, diag),  # c == a
            (t, diag, t),  # c == b
            (d[:32, :32], d[16:48, :32], diag),  # partially overlapping views
        ):
            with pytest.raises(ValueError, match="shares memory"):
                eng.update(c, a, b)
    c0, a0, b0 = random_tiles((32, 32, 32), inf_frac=0.3, seed=43)
    d = np.empty((64, 64), dtype=DIST_DTYPE)
    c, a, b = d[1::2, 32:], d[1::2, :32], d[::2, 32:]  # interleaved rows
    c[...], a[...], b[...] = c0, a0, b0
    assert np.may_share_memory(c, a) and np.may_share_memory(c, b)
    eng.update(c, a, b)
    assert np.array_equal(c, rank1_update(c0.copy(), a0, b0))


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("block_size", [1, 13, 64, 200])
def test_blocked_fw_engine_equivalence(backend, block_size):
    """Blocked FW (fresh stage-2 panels) agrees exactly on integer weights."""
    rng = np.random.default_rng(11)
    d = rng.integers(1, 100, (75, 75)).astype(DIST_DTYPE)
    d[rng.random((75, 75)) < 0.6] = np.inf
    np.fill_diagonal(d, 0.0)
    expected = numpy_fw_inplace(d.copy())
    with engine_case(backend) as eng:
        got = blocked_floyd_warshall(d.copy(), block_size, engine=eng)
    assert np.array_equal(got, expected)


def test_inf_column_skip_fast_path():
    """Satellite: dead columns are skipped without changing the result."""
    c, a, b = random_tiles((31, 19, 23), inf_frac=0.0, seed=3)
    a[:, ::2] = np.inf  # kill every even column of A
    idx = finite_column_indices(a)
    assert idx is not None and np.array_equal(idx, np.arange(1, 19, 2))
    got = rank1_update(c.copy(), a, b, skip_inf_columns=True)
    assert np.array_equal(got, naive_update(c, a, b))
    assert finite_column_indices(np.zeros((3, 3), dtype=DIST_DTYPE)) is None


# ----------------------------------------------------------------------
# Engine contract: dtype / layout coercion
# ----------------------------------------------------------------------
def test_engine_coerces_fortran_operands():
    c, a, b = random_tiles((20, 16, 12), inf_frac=0.2, seed=9)
    expected = naive_update(c, a, b)
    got = c.copy()
    KernelEngine().update(got, np.asfortranarray(a), np.asfortranarray(b))
    assert np.array_equal(got, expected)
    assert got.dtype == DIST_DTYPE


def test_engine_float64_accumulator_keeps_dtype():
    c, a, b = random_tiles((10, 8, 6), seed=13)
    c64 = c.astype(np.float64)
    got = KernelEngine().update(c64, a, b)
    assert got is c64 and got.dtype == np.float64
    assert np.array_equal(got, naive_update(c, a, b).astype(np.float64))


def test_engine_strided_output_updated_in_place():
    c, a, b = random_tiles((15, 15, 15), inf_frac=0.3, seed=17)
    base = c.T.copy()  # c-view through a transpose: non-unit last stride
    view = base.T
    expected = naive_update(view.copy(), a, b)
    got = KernelEngine().update(view, a, b)
    assert got is view
    assert np.array_equal(view, expected)


def test_engine_shape_validation():
    eng = numpy_engine()
    with pytest.raises(ValueError, match="incompatible shapes"):
        eng.update(
            np.zeros((2, 2), DIST_DTYPE),
            np.zeros((2, 3), DIST_DTYPE),
            np.zeros((4, 2), DIST_DTYPE),
        )
    with pytest.raises(ValueError, match="square"):
        eng.fw_inplace(np.zeros((2, 3), DIST_DTYPE))
    with pytest.raises(TypeError):
        KernelEngine("jit")  # no kernels by name: REPRO_JIT picks them


def test_minplus_module_dispatch():
    c, a, b = random_tiles((12, 9, 14), inf_frac=0.2, seed=23)
    expected = naive_update(np.full_like(c, np.inf), a, b)
    assert np.array_equal(minplus(a, b), expected)
    assert np.array_equal(minplus(a, b, engine=numpy_engine()), expected)
    got = np.full_like(c, np.inf)
    with engine_case(SPLIT) as eng:
        minplus_update(got, a, b, engine=eng)
    assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# The one switch
# ----------------------------------------------------------------------
def test_repro_jit_switches_both_kernels_after_a_solve(monkeypatch):
    """``REPRO_JIT`` alone picks the kernels, and a process follows it
    after its first solve: off, the default engine's min-plus/FW tiles
    and batched Near-Far both run numpy; unset again, both run compiled."""
    from repro.core import solve_apsp
    from repro.graphs.generators import rmat

    # the package re-exports the function ``near_far`` under the module's name
    near_far_mod = importlib.import_module("repro.sssp.near_far")
    monkeypatch.delenv("REPRO_JIT", raising=False)
    if near_far_mod.compiled_kernel() is None:
        pytest.skip("no C compiler loads")
    ran = []

    def spy(name, fn):
        def recorded(*args, **kwargs):
            ran.append(name)
            return fn(*args, **kwargs)

        return recorded

    for mod, attr, name in (
        (engine_mod, "rank1_update", "numpy tiles"),
        (engine_mod, "numpy_fw_inplace", "numpy tiles"),
        (near_far_mod, "_numpy_batch", "numpy near-far"),
        (near_far_mod, "_compiled_batch", "cc near-far"),
    ):
        monkeypatch.setattr(mod, attr, spy(name, getattr(mod, attr)))
    graph = rmat(120, 900, seed=7)

    def kernels_run():
        ran.clear()
        fw = solve_apsp(graph, algorithm="floyd-warshall")
        solve_apsp(graph, algorithm="johnson")
        assert fw.stats["kernel_backend"] == default_engine().describe()
        return default_engine().flavor, sorted(set(ran))

    assert kernels_run() == ("cc", ["cc near-far"])
    monkeypatch.setenv("REPRO_JIT", "off")
    assert kernels_run() == ("numpy", ["numpy near-far", "numpy tiles"])
    monkeypatch.delenv("REPRO_JIT")
    assert kernels_run() == ("cc", ["cc near-far"])


def test_jit_off_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "off")
    eng = KernelEngine()
    assert eng.flavor == "numpy" and eng.describe() == "numpy"
    c, a, b = random_tiles((9, 9, 9), inf_frac=0.2, seed=29)
    got = c.copy()
    eng.update(got, a, b)
    assert np.array_equal(got, naive_update(c, a, b))


# ----------------------------------------------------------------------
# Compiled kernels: simd fast path
# ----------------------------------------------------------------------
#: the compiled kernels, called directly (``None`` under ``REPRO_JIT=off``
#: or without a compiler)
CC = jit.compiled_kernels()

cc_only = pytest.mark.skipif(CC is None, reason="no compiled kernels load")


def _padded(m, pad):
    """``m`` as a view with row stride ``cols + pad`` (unit last stride),
    as blocked FW passes tiles of a larger matrix."""
    rows, cols = m.shape
    store = np.full((rows, cols + pad), np.inf, dtype=DIST_DTYPE)
    store[:, :cols] = m
    return store[:, :cols]


@cc_only
@pytest.mark.parametrize("flavor", ["cc"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("inf_frac", [0.0, 0.3])
def test_cc_flavor_bit_identical(flavor, shape, inf_frac):
    c, a, b = random_tiles(shape, inf_frac, seed=hash((flavor, shape)) % 2**32)
    expected = naive_update(c, a, b)
    got = c.copy()
    CC.update(got, a, b, 256)
    assert np.array_equal(got, expected)


@cc_only
@settings(max_examples=40, deadline=None)
@given(
    bi=st.integers(1, 24),
    bk=st.integers(1, 24),
    bj=st.integers(1, 24),
    pad=st.integers(0, 7),
    tile=st.sampled_from([3, 7, 64, 256]),
    inf_frac=st.sampled_from([0.0, 0.2, 0.9]),
    seed=st.integers(0, 2**16),
)
def test_cc_flavors_agree_on_strided_views(bi, bk, bj, pad, tile, inf_frac, seed):
    """Property: the register-blocked kernel is bit-identical to the
    naive loop on *views* with arbitrary row strides (tile views of a
    larger matrix), across tile sizes that exercise the unroll tails."""
    c, a, b = random_tiles((bi, bk, bj), inf_frac, seed)
    expected = naive_update(c, a, b)
    got = _padded(c, pad)
    CC.update(got, _padded(a, pad), _padded(b, pad), tile)
    assert np.array_equal(got, expected)


@cc_only
def test_cc_inf_column_fast_path():
    """Dead (all-inf) A columns are skipped by the unrolled kernel group
    check without changing the result."""
    c, a, b = random_tiles((31, 19, 23), inf_frac=0.0, seed=3)
    a[:, ::2] = np.inf
    got = c.copy()
    CC.update(got, a, b, 256)
    assert np.array_equal(got, naive_update(c, a, b))


@cc_only
@pytest.mark.parametrize("tile", [64, 256])
@pytest.mark.parametrize("bj", [127, 128, 129, 144, 257])
def test_cc_row_blocks_pivot_groups_and_panels(bj, tile):
    """The 4-row × 4-pivot loop equals ``rank1_update`` bit for bit with
    every row remainder (``bi % 4``) and pivot remainder (``bk % 4``, also
    in the last of two ``k`` tiles at tile 64), on widths on both sides
    of the 128-column panel; at tile 64 the panel is the tile."""
    for bi in (12, 13, 14, 15):
        for bk in (68, 69, 70, 71):
            c, a, b = random_tiles((bi, bk, bj), 0.3, seed=bi * 1000 + bk + bj, integer=False)
            want = rank1_update(c.copy(), a, b)
            got = c.copy()
            CC.update(got, a, b, tile)
            assert np.array_equal(got, want), (bi, bk)


@cc_only
@pytest.mark.parametrize("tile", [64, 256])
def test_cc_row_blocks_on_strided_views(tile):
    """Row-strided views of all three operands, with a row and a pivot
    remainder and a partial last panel, equal ``rank1_update``."""
    c, a, b = random_tiles((15, 71, 257), 0.3, seed=41, integer=False)
    want = rank1_update(c.copy(), a, b)
    got = _padded(c, 5)
    CC.update(got, _padded(a, 3), _padded(b, 7), tile)
    assert np.array_equal(got, want)


@cc_only
def test_cc_inf_pivot_group_beside_one_finite_entry():
    """A 4-row block's pivot group of 16 inf values is skipped, and a
    group beside it whose only finite value sits at any one of its 16
    places still contributes that value's candidates."""
    c, a, b = random_tiles((8, 8, 130), seed=43)
    for row in range(4):
        for pivot in range(4, 8):
            a[:4, :] = np.inf  # rows 0-3: pivots 0-3 all inf, 4-7 all but one
            a[row, pivot] = 2.0
            want = rank1_update(c.copy(), a, b)
            got = c.copy()
            CC.update(got, a, b, 256)
            assert np.array_equal(got, want), (row, pivot)
            assert not np.array_equal(got[row], c[row])  # the finite value won


# ----------------------------------------------------------------------
# The serial-or-split rule
# ----------------------------------------------------------------------
def _recording_engine(monkeypatch, whole=None):
    """An engine whose kernel calls log the row range of ``C`` (within
    ``whole``) and the column count each one gets; returns it and the
    log. Every call must get the matching rows of ``A`` and all of
    ``B``."""
    eng = KernelEngine()
    calls = []
    serial = eng._serial

    def recorded(c, a, b):
        lo = 0
        if whole is not None:
            lo = (c.ctypes.data - whole.ctypes.data) // whole.strides[0]
        assert a.shape[0] == c.shape[0] and b.shape[1] == c.shape[1]
        calls.append((lo, lo + c.shape[0], c.shape[1]))
        serial(c, a, b)

    monkeypatch.setattr(eng, "_serial", recorded)
    return eng, calls


def test_split_rule_one_call_below_cutoff_panels_at_or_above(monkeypatch):
    """Below the work cutoff the kernel sees one call on all of ``C``;
    at or above it, ``default_workers()`` disjoint row panels that
    together cover ``C``, each with the matching rows of ``A`` and all of
    ``B``, with the result unchanged."""
    monkeypatch.setattr(engine_mod, "default_workers", lambda: 3)
    c0, a, b = random_tiles((500, 30, 40), inf_frac=0.2, seed=31, integer=False)
    expected = naive_update(c0, a, b)
    work = 500 * 30 * 40
    for cutoff, calls in (
        (work + 1, [(0, 500, 40)]),
        (work, [(0, 166, 40), (166, 333, 40), (333, 500, 40)]),
    ):
        monkeypatch.setattr(engine_mod, "SPLIT_WORK", cutoff)
        c = c0.copy()
        eng, got = _recording_engine(monkeypatch, whole=c)
        eng.update(c, a, b)
        assert sorted(got) == calls
        assert np.array_equal(c, expected)
    monkeypatch.setattr(engine_mod, "SPLIT_WORK", 0)
    assert panel_count(2, 30, 40) == 2  # never more panels than rows
    monkeypatch.setattr(engine_mod, "default_workers", lambda: 1)
    assert panel_count(500, 30, 40) == 1


def test_split_joins_every_panel_before_raising(monkeypatch):
    """A panel that raises surfaces only after the other panel returned:
    no worker is still writing ``C`` when the caller sees the error."""
    returned = threading.Event()
    whole, a, b = random_tiles((8, 4, 10), seed=3)
    eng = KernelEngine()
    serial = eng._serial

    def fail_first_panel(c, a, b):
        if c.ctypes.data == whole.ctypes.data:
            raise RuntimeError("panel 0 failed")
        time.sleep(0.2)
        serial(c, a, b)
        returned.set()

    monkeypatch.setattr(eng, "_serial", fail_first_panel)
    with forced_split(workers=2):
        with pytest.raises(RuntimeError, match="panel 0 failed"):
            eng.update(whole, a, b)
    assert returned.is_set()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_pool_binds_worker_i_to_cpu_i(monkeypatch):
    """Worker ``i`` of a fresh shared pool runs only on the ``i``-th CPU
    of the process's affinity mask (round robin past its end), so two
    panels of one product never share a core while another idles; the
    calling thread's own mask is left alone."""
    monkeypatch.setattr(engine_mod, "_EXECUTOR", None)
    monkeypatch.setattr(engine_mod, "_EXECUTOR_WORKERS", 0)
    cpus = sorted(os.sched_getaffinity(0))
    workers = len(cpus) + 1
    # every task holds its worker until all have started, so each of the
    # ``workers`` threads reports its own mask exactly once
    barrier = threading.Barrier(workers, timeout=30)

    def mask():
        barrier.wait()
        mask = sorted(os.sched_getaffinity(0))
        assert [engine_mod.worker_cpu()] == mask
        return mask

    pool = engine_mod.shared_executor(workers)
    try:
        masks = [f.result() for f in [pool.submit(mask) for _ in range(workers)]]
    finally:
        pool.shutdown(wait=True)
    assert sorted(masks) == sorted([cpus[i % len(cpus)]] for i in range(workers))
    assert sorted(os.sched_getaffinity(0)) == cpus
    assert engine_mod.worker_cpu() is None  # not a pool thread


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_bound_apart_binds_the_caller_for_the_block_only():
    """The caller is bound to the first CPU of its mask outside ``taken``
    while the block runs, and gets its own mask back after, also when the
    block raises; with no CPU taken, or none left free, nothing is bound."""
    own = sorted(os.sched_getaffinity(0))
    for taken in (set(), {None}, set(own)):
        with engine_mod.bound_apart(taken):
            assert sorted(os.sched_getaffinity(0)) == own
    if len(own) < 2:
        pytest.skip("needs two CPUs")
    with pytest.raises(RuntimeError, match="inside"):
        with engine_mod.bound_apart({own[0], None}):
            assert sorted(os.sched_getaffinity(0)) == [own[1]]
            raise RuntimeError("inside")
    assert sorted(os.sched_getaffinity(0)) == own


def test_split_concurrent_callers_stress():
    """Four caller threads share one engine and its pool, every product
    split into three panels (more workers than cores) with a short switch
    interval: a panel lost or written twice would change a result."""
    eng = KernelEngine()
    cases = [random_tiles((33, 17, 45), 0.2, seed=s) for s in range(4)]
    failures = []

    def client(c, a, b):
        expected = naive_update(c, a, b)
        for _ in range(25):
            got = c.copy()
            eng.update(got, a, b)
            if not np.array_equal(got, expected):
                failures.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_split(workers=3):
            threads = [threading.Thread(target=client, args=case) for case in cases]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def _stage2_operands(seed=37):
    """Real-weight 64×256 row tile plus a closed 256×256 diagonal block."""
    rng = np.random.default_rng(seed)
    diag = (rng.random((256, 256)) * 10).astype(DIST_DTYPE)
    np.fill_diagonal(diag, 0.0)
    numpy_fw_inplace(diag)
    tile = (rng.random((64, 256)) * 10).astype(DIST_DTYPE)
    return tile, diag


def test_split_rejects_aliased_operands_before_any_panel(monkeypatch):
    """FW stage 2 on one panel, ``T ⊗ diag`` over ``T``: split into row
    panels, an aliased ``update(T, T, diag)`` would have each worker's
    kernel read pivot groups of its rows of ``A`` ahead of its writes to
    the same rows of ``C``. The engine rejects it before any panel
    reaches a kernel; the fresh product that replaces it has a disjoint
    output and is split like any other update."""
    tile, diag = _stage2_operands()
    before = tile.copy()
    eng, calls = _recording_engine(monkeypatch)
    with forced_split(workers=2):
        with pytest.raises(ValueError, match="shares memory"):
            eng.update(tile, tile, diag)
        assert calls == [] and np.array_equal(tile, before)
        eng.minplus(tile, diag)
    assert [cols for *_, cols in calls] == [256, 256]
    assert sorted(hi - lo for lo, hi, _ in calls) == [32, 32]


@pytest.mark.parametrize("pattern", ["c==a", "c==b"])
def test_threaded_aliased_matches_serial_inner(pattern):
    """Both stage-2 panel patterns — the column panel ``T ⊗ diag``
    (formerly ``C = A``) and the row panel ``diag ⊗ T`` (formerly
    ``C = B``) — are rejected in place whether or not the engine splits
    (the :data:`SPLIT` case), and their fresh products agree bit for bit
    with the serial engine's on real weights and never exceed the panel
    they replace."""
    tile, diag = _stage2_operands()
    if pattern == "c==b":
        tile = np.ascontiguousarray(np.vstack([tile] * 4).T)  # 256×256
    serial = KernelEngine()

    def product(eng, tile):
        if pattern == "c==a":
            with pytest.raises(ValueError, match="shares memory"):
                eng.update(tile, tile, diag)
            return eng.minplus(tile, diag)
        with pytest.raises(ValueError, match="shares memory"):
            eng.update(tile, diag, tile)
        return eng.minplus(diag, tile)

    for _ in range(5):
        want = product(serial, tile)
        with engine_case(SPLIT) as split:
            got = product(split, tile)
        assert np.array_equal(got, want)
        assert (got <= tile).all()
        tile = got


@pytest.mark.parametrize("algorithm", ["floyd-warshall", "boundary"])
def test_forced_split_keeps_distances_and_simulated_seconds(algorithm):
    """The split changes only how a product is computed: FW and boundary
    distances and simulated seconds equal the default engine's."""
    from repro.core import solve_apsp
    from repro.graphs.generators import rmat

    g = rmat(600, 4800, seed=5)
    base = solve_apsp(g, algorithm=algorithm)
    with forced_split(workers=2):
        split = solve_apsp(g, algorithm=algorithm)
    assert split.simulated_seconds == base.simulated_seconds
    assert np.array_equal(split.store.data, base.store.data)


def test_default_engine_opens_no_file_and_times_nothing(monkeypatch):
    """With nothing set the engine runs the compiled kernels (numpy without
    a compiler), built without reading a file and without running a
    single product: nothing is calibrated."""
    monkeypatch.delenv("REPRO_JIT", raising=False)
    kernels = jit.compiled_kernels()  # loads (and may compile) outside the check

    def refuse(*args, **kwargs):
        raise AssertionError(f"building the default engine ran {args[:1]}")

    monkeypatch.setattr("builtins.open", refuse)
    monkeypatch.setattr("io.open", refuse)
    for mod, attr in ((engine_mod, "rank1_update"), (engine_mod, "numpy_fw_inplace"),
                      (jit._CCKernels, "update"), (jit._CCKernels, "fw_tile")):
        monkeypatch.setattr(mod, attr, refuse)
    eng = default_engine()
    assert eng.flavor == ("numpy" if kernels is None else "cc") and eng.tuned is None


def test_cli_has_no_kernel_option(capsys):
    """The kernels have no CLI option: neither ``solve`` nor
    ``bench-kernels`` lists one naming a backend, and the sweep's old
    ``--backends`` is a usage error (exit 2)."""
    from repro.cli import main

    for command in ("solve", "bench-kernels"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "backend" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(["bench-kernels", "--sizes", "8", "--backends", "jit", "--no-save"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_apsp_engine_option_reaches_the_driver():
    """``solve_apsp`` takes no kernel name; an ``engine=`` option reaches
    the FW driver, where the numpy engine gives the default's distances,
    and Johnson, which runs no min-plus tiles, ignores it."""
    from repro.core import solve_apsp
    from repro.graphs.generators import erdos_renyi

    g = erdos_renyi(60, 300, seed=1)
    with pytest.raises(TypeError, match="kernel_backend"):
        solve_apsp(g, algorithm="floyd-warshall", kernel_backend="jit")
    base = solve_apsp(g, algorithm="floyd-warshall", engine=numpy_engine())
    fast = solve_apsp(g, algorithm="floyd-warshall")
    assert base.stats["kernel_backend"] == "numpy"
    assert fast.stats["kernel_backend"] == default_engine().describe()
    assert np.array_equal(base.store.data, fast.store.data)
    johnson = solve_apsp(g, algorithm="johnson", engine=numpy_engine())
    assert np.array_equal(johnson.store.data, fast.store.data)
