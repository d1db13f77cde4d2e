"""Cross-backend equivalence and contract tests for the kernel engine.

Every backend registered in :mod:`repro.core.backends` must produce results
**bit-identical** to the naive rank-1 reference loop — min is
order-independent and float32 ``a + b`` rounds identically regardless of
JIT compilation or threading, so equality here is exact ``array_equal``,
not ``allclose``. The suite covers random, inf-heavy, empty, degenerate,
and non-square tiles (parametrized and property-based),
Floyd–Warshall closure, the engine's dtype/layout coercion rules, the
environment/API selection knobs, and the graceful C→numpy fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import backend_names, create_backend
from repro.core.backends.base import finite_column_indices, numpy_fw_inplace, rank1_update
from repro.core.backends.jit import JITBackend
from repro.core.backends.reference import ReferenceBackend
from repro.core.backends.threaded import ThreadedBackend
from repro.core.blocked_fw import blocked_floyd_warshall, floyd_warshall_inplace
from repro.core.engine import (
    ENV_BACKEND,
    KernelEngine,
    calibrate,
    default_engine,
    reset_default_engine,
    set_default_backend,
)
from repro.core.minplus import DIST_DTYPE, minplus, minplus_update

BACKENDS = backend_names()


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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("inf_frac", [0.0, 0.3])
def test_backend_bit_identical(backend, shape, inf_frac):
    c, a, b = random_tiles(shape, inf_frac, seed=hash((shape, inf_frac)) % 2**32)
    expected = naive_update(c, a, b)
    got = c.copy()
    KernelEngine(backend).update(got, a, b)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_all_inf_operands(backend):
    """Entirely-+inf A (every column dead) must leave C untouched."""
    c, _, _ = random_tiles((9, 7, 9), seed=5)
    a = np.full((9, 7), np.inf, dtype=DIST_DTYPE)
    b = np.full((7, 9), np.inf, dtype=DIST_DTYPE)
    before = c.copy()
    KernelEngine(backend).update(c, a, b)
    assert np.array_equal(c, before)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", [(0, 5, 3), (4, 0, 3), (3, 5, 0), (0, 0, 0)])
def test_backend_empty_tiles(backend, shape):
    bi, bk, bj = shape
    c = np.zeros((bi, bj), dtype=DIST_DTYPE)
    a = np.zeros((bi, bk), dtype=DIST_DTYPE)
    b = np.zeros((bk, bj), dtype=DIST_DTYPE)
    before = c.copy()
    KernelEngine(backend).update(c, a, b)
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
    """Property: all backends agree bit-for-bit on arbitrary tiles."""
    c, a, b = random_tiles((bi, bk, bj), inf_frac, seed)
    expected = naive_update(c, a, b)
    for name in BACKENDS:
        got = c.copy()
        KernelEngine(name).update(got, a, b)
        assert np.array_equal(got, expected), name


@pytest.mark.parametrize("backend", BACKENDS)
def test_fw_inplace_bit_identical(backend, rng=np.random.default_rng(7)):
    """The tile kernel (n=97) and the blocked closure above one closure
    block (n=600) both equal the plain pivot loop on integer weights."""
    for n in (97, 600):
        d = rng.integers(1, 50, (n, n)).astype(DIST_DTYPE)
        d[rng.random((n, n)) < 0.5] = np.inf
        np.fill_diagonal(d, 0.0)
        expected = numpy_fw_inplace(d.copy())
        got = KernelEngine(backend).fw_inplace(d.copy())
        assert np.array_equal(got, expected), n


@pytest.mark.parametrize("backend", BACKENDS)
def test_update_operand_overlap_guard(backend):
    """``update`` rejects a ``C`` that shares memory with ``A`` or ``B``,
    in any dtype, and accepts disjoint tile views of one matrix even
    though their memory bounds overlap."""
    eng = KernelEngine(backend)
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("block_size", [1, 13, 64, 200])
def test_blocked_fw_engine_equivalence(backend, block_size):
    """Blocked FW (fresh stage-2 panels) agrees exactly on integer weights."""
    rng = np.random.default_rng(11)
    d = rng.integers(1, 100, (75, 75)).astype(DIST_DTYPE)
    d[rng.random((75, 75)) < 0.6] = np.inf
    np.fill_diagonal(d, 0.0)
    expected = numpy_fw_inplace(d.copy())
    eng = KernelEngine(backend)
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
    KernelEngine("jit").update(got, np.asfortranarray(a), np.asfortranarray(b))
    assert np.array_equal(got, expected)
    assert got.dtype == DIST_DTYPE


def test_engine_float64_accumulator_keeps_dtype():
    c, a, b = random_tiles((10, 8, 6), seed=13)
    c64 = c.astype(np.float64)
    got = KernelEngine("jit").update(c64, a, b)
    assert got is c64 and got.dtype == np.float64
    assert np.array_equal(got, naive_update(c, a, b).astype(np.float64))


def test_engine_strided_output_updated_in_place():
    c, a, b = random_tiles((15, 15, 15), inf_frac=0.3, seed=17)
    base = c.T.copy()  # c-view through a transpose: non-unit last stride
    view = base.T
    expected = naive_update(view.copy(), a, b)
    got = KernelEngine("jit").update(view, a, b)
    assert got is view
    assert np.array_equal(view, expected)


def test_engine_shape_validation():
    eng = KernelEngine("reference")
    with pytest.raises(ValueError, match="incompatible shapes"):
        eng.update(
            np.zeros((2, 2), DIST_DTYPE),
            np.zeros((2, 3), DIST_DTYPE),
            np.zeros((4, 2), DIST_DTYPE),
        )
    with pytest.raises(ValueError, match="square"):
        eng.fw_inplace(np.zeros((2, 3), DIST_DTYPE))
    with pytest.raises(ValueError, match="unknown kernel backend"):
        KernelEngine("nope")


def test_minplus_module_dispatch():
    c, a, b = random_tiles((12, 9, 14), inf_frac=0.2, seed=23)
    expected = naive_update(np.full_like(c, np.inf), a, b)
    assert np.array_equal(minplus(a, b), expected)
    assert np.array_equal(minplus(a, b, engine=KernelEngine("reference")), expected)
    got = np.full_like(c, np.inf)
    minplus_update(got, a, b, engine=KernelEngine("threaded"))
    assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Selection knobs
# ----------------------------------------------------------------------
def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "jit")
    reset_default_engine()
    assert default_engine().name == "jit"
    monkeypatch.setenv(ENV_BACKEND, "reference")
    assert default_engine().name == "reference"  # re-resolves on env change


def test_set_default_backend_pins(monkeypatch):
    set_default_backend("threaded")
    monkeypatch.setenv(ENV_BACKEND, "reference")
    assert default_engine().name == "threaded"  # pinned beats the env


def test_jit_off_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "off")
    backend = JITBackend()
    assert backend.flavor == "fallback" and not backend.compiled
    c, a, b = random_tiles((9, 9, 9), inf_frac=0.2, seed=29)
    got = c.copy()
    backend.update(got, a, b)
    assert np.array_equal(got, naive_update(c, a, b))


# ----------------------------------------------------------------------
# Compiled-C flavor: simd fast path
# ----------------------------------------------------------------------
HAVE_CC = JITBackend().flavor == "cc"

cc_only = pytest.mark.skipif(
    not HAVE_CC, reason="no C compiler available for the cc flavor"
)


@cc_only
@pytest.mark.parametrize("flavor", ["cc"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("inf_frac", [0.0, 0.3])
def test_cc_flavor_bit_identical(flavor, shape, inf_frac):
    c, a, b = random_tiles(shape, inf_frac, seed=hash((flavor, shape)) % 2**32)
    expected = naive_update(c, a, b)
    got = c.copy()
    JITBackend().update(got, a, b)
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

    def padded(m):
        rows, cols = m.shape
        store = np.full((rows, cols + pad), np.inf, dtype=DIST_DTYPE)
        store[:, :cols] = m
        return store[:, :cols]  # unit last stride, row stride cols+pad

    expected = naive_update(c, a, b)
    got = padded(c)
    JITBackend(tile=tile).update(got, padded(a), padded(b))
    assert np.array_equal(got, expected)


@cc_only
def test_cc_inf_column_fast_path():
    """Dead (all-inf) A columns are skipped by the unrolled kernel group
    check without changing the result."""
    c, a, b = random_tiles((31, 19, 23), inf_frac=0.0, seed=3)
    a[:, ::2] = np.inf
    got = c.copy()
    JITBackend().update(got, a, b)
    assert np.array_equal(got, naive_update(c, a, b))


def test_threaded_matches_serial_inner():
    backend = ThreadedBackend(workers=3)
    c, a, b = random_tiles((40, 30, 500), inf_frac=0.2, seed=31)
    got = c.copy()
    backend.update(got, a, b)
    assert np.array_equal(got, naive_update(c, a, b))
    assert backend.flavor.startswith("threaded(") and backend.workers == 3


class _RecordingBackend(ReferenceBackend):
    """Reference backend that logs the ``C`` shape of every call."""

    def __init__(self):
        self.calls = []

    def update(self, c, a, b):
        self.calls.append(c.shape)
        return super().update(c, a, b)


def _stage2_operands(seed=37):
    """Real-weight 64×256 row tile plus a closed 256×256 diagonal block."""
    rng = np.random.default_rng(seed)
    diag = (rng.random((256, 256)) * 10).astype(DIST_DTYPE)
    np.fill_diagonal(diag, 0.0)
    numpy_fw_inplace(diag)
    tile = (rng.random((64, 256)) * 10).astype(DIST_DTYPE)
    return tile, diag


def test_threaded_runs_aliased_operands_unsplit():
    """FW stage 2 on one panel, ``T ⊗ diag`` over ``T``: split into column
    panels, an aliased ``update(T, T, diag)`` would let each worker read
    the panels the others are writing. The engine rejects it before any
    panel reaches the inner backend; the fresh product that replaces it
    has a disjoint output and is split like any other update."""
    tile, diag = _stage2_operands()
    before = tile.copy()
    inner = _RecordingBackend()
    eng = KernelEngine(ThreadedBackend(inner=inner, workers=2))
    with pytest.raises(ValueError, match="shares memory"):
        eng.update(tile, tile, diag)
    assert inner.calls == [] and np.array_equal(tile, before)
    eng.minplus(tile, diag)
    assert inner.calls == [(64, 128), (64, 128)]


@pytest.mark.parametrize("pattern", ["c==a", "c==b"])
def test_threaded_aliased_matches_serial_inner(pattern):
    """Both stage-2 panel patterns — the column panel ``T ⊗ diag``
    (formerly ``C = A``) and the row panel ``diag ⊗ T`` (formerly
    ``C = B``) — are rejected in place by the threaded engine and its
    serial inner alike, and their fresh products agree bit for bit on
    real weights and never exceed the panel they replace."""
    tile, diag = _stage2_operands()
    if pattern == "c==b":
        tile = np.ascontiguousarray(np.vstack([tile] * 4).T)  # 256×256
    backend = ThreadedBackend(workers=2)
    threaded, serial = KernelEngine(backend), KernelEngine(backend.inner)
    for eng in (threaded, serial):
        with pytest.raises(ValueError, match="shares memory"):
            if pattern == "c==a":
                eng.update(tile, tile, diag)
            else:
                eng.update(tile, diag, tile)
    for _ in range(5):
        if pattern == "c==a":
            want, got = serial.minplus(tile, diag), threaded.minplus(tile, diag)
        else:
            want, got = serial.minplus(diag, tile), threaded.minplus(diag, tile)
        assert np.array_equal(got, want)
        assert (got <= tile).all()
        tile = got


def test_calibration_smoke(monkeypatch):
    result = calibrate(shape=(48, 48, 48))
    assert {r["backend"] for r in result.rows} == set(BACKENDS)
    assert result.best in BACKENDS
    assert all(r["seconds"] >= 0 and r["gops"] >= 0 for r in result.rows)

    # "auto" measures on the running machine and reads nothing from disk
    # (the C kernels are loaded above, so building the backends opens
    # nothing either)
    def no_open(*args, **kwargs):
        raise AssertionError(f"auto engine opened a file: {args[:1]}")

    monkeypatch.setattr("builtins.open", no_open)
    monkeypatch.setattr("io.open", no_open)
    eng = KernelEngine("auto")
    assert eng.calibration is not None and eng.name == eng.calibration.best
    assert eng.tuned is None


def test_registry_contents():
    assert backend_names() == ("reference", "jit", "threaded")
    # every registered backend is constructible in this environment
    # (jit degrades to its fallback flavor rather than dropping out)
    for name in BACKENDS:
        assert create_backend(name).name == name


def test_removed_backend_names_the_choices(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv(ENV_BACKEND, "tiled")
    with pytest.raises(ValueError, match="choose from .*'reference', 'jit', 'threaded'"):
        default_engine()
    with pytest.raises(SystemExit):
        main(["solve", "er:n=20,m=40", "--kernel-backend", "tiled"])
    assert "choose from '', 'auto', 'reference', 'jit', 'threaded'" in (
        capsys.readouterr().err
    )


def test_solve_apsp_kernel_backend_arg():
    from repro.core import solve_apsp
    from repro.graphs.generators import erdos_renyi

    g = erdos_renyi(60, 300, seed=1)
    base = solve_apsp(g, algorithm="floyd-warshall", kernel_backend="reference")
    fast = solve_apsp(g, algorithm="floyd-warshall", kernel_backend="jit")
    assert fast.stats["kernel_backend"].startswith("jit")
    assert np.array_equal(base.store.data, fast.store.data)
