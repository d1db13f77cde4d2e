"""Autotuner contract tests: fingerprinting, persistence, engine pickup.

The autotuner's promise is closed-loop: ``tune_kernels`` measures and
verifies configs, ``record_tuned`` persists the winner keyed by the
machine fingerprint, and a *fresh* ``KernelEngine("auto")`` materialises
that exact config without re-sweeping — falling back to live
micro-calibration whenever the winner is missing, stale, or recorded for
different hardware. These tests run everything against temp files via
``REPRO_BENCH_KERNELS`` so the committed ``BENCH_kernels.json`` is never
touched.
"""

import json
import os
import stat

import numpy as np
import pytest

from repro.bench.kernels import (
    check_regression,
    fingerprint_class,
    load_tuned_winner,
    machine_fingerprint,
    record_tuned,
    save_sweep,
    sweep_backends,
    tune_kernels,
    tuned_minplus_gops,
)
from repro.core.engine import KernelEngine, reset_default_engine

TUNE_N = 96  # tiny: the contract, not the Gop/s, is under test


@pytest.fixture(autouse=True)
def _isolated_bench(monkeypatch, tmp_path):
    """Point every bench read/write at a per-test file."""
    path = tmp_path / "BENCH_kernels.json"
    monkeypatch.setenv("REPRO_BENCH_KERNELS", str(path))
    reset_default_engine()
    yield path
    reset_default_engine()


@pytest.fixture(scope="module")
def tune_result():
    """One shared small tune (the sweep itself is deterministic enough)."""
    return tune_kernels(n=TUNE_N, tiles=(32, 64), repeats=1)


def test_tune_winner_is_verified_and_fingerprinted(tune_result):
    assert tune_result["fingerprint"] == machine_fingerprint()
    assert "|cpus=" in tune_result["fingerprint"]
    winner = tune_result["winner"]
    row = next(
        r for r in tune_result["rows"]
        if r["backend"] == winner["backend"] and r["options"] == winner["options"]
    )
    assert row["identical"], "a non-bit-identical config can never win"
    assert winner["gops"] == max(
        r["gops"] for r in tune_result["rows"] if r["identical"]
    )


def test_record_and_reload_roundtrip(tune_result, _isolated_bench):
    path = _isolated_bench
    assert load_tuned_winner(path) is None  # no file yet
    record_tuned(tune_result, path)
    entry = load_tuned_winner(path)
    assert entry is not None
    assert entry["backend"] == tune_result["winner"]["backend"]
    assert entry["options"] == tune_result["winner"]["options"]
    assert tuned_minplus_gops(path) == pytest.approx(tune_result["winner"]["gops"])


def test_sweep_refresh_preserves_tuned_winners(tune_result, _isolated_bench):
    path = _isolated_bench
    record_tuned(tune_result, path)
    rows = sweep_backends(sizes=(48,), tiles=(32,), backends=("reference", "jit"))
    save_sweep(rows, path)
    payload = json.loads(path.read_text())
    assert payload["rows"], "sweep rows written"
    assert machine_fingerprint() in payload["tuned"], (
        "save_sweep must not discard autotune results"
    )


def test_fresh_engine_picks_up_winner_without_sweeping(tune_result, _isolated_bench):
    record_tuned(tune_result, _isolated_bench)
    eng = KernelEngine("auto")
    assert eng.calibration is None, "no re-sweep at startup"
    assert eng.tuned is not None
    winner = tune_result["winner"]
    assert eng.name == winner["backend"]
    assert eng.flavor == winner["flavor"]
    # the tuned engine still satisfies the bit-identity contract
    rng = np.random.default_rng(3)
    c = (rng.random((20, 20)) * 50).astype(np.float32)
    a = (rng.random((20, 20)) * 50).astype(np.float32)
    b = (rng.random((20, 20)) * 50).astype(np.float32)
    expected = c.copy()
    for k in range(20):
        np.minimum(expected, a[:, k, None] + b[k, None, :], out=expected)
    got = c.copy()
    eng.update(got, a, b)
    assert np.array_equal(got, expected)


def test_foreign_fingerprint_falls_back_to_calibration(tune_result, _isolated_bench):
    foreign = dict(tune_result, fingerprint="clang-99|-O3|cpus=4096")
    record_tuned(foreign, _isolated_bench)
    eng = KernelEngine("auto")
    assert eng.tuned is None, "a winner tuned on other hardware must not apply"
    assert eng.calibration is not None


def test_stale_flavor_falls_back_to_calibration(tune_result, _isolated_bench):
    """A winner whose recorded flavor no longer materialises (e.g. numba
    uninstalled since tuning) is discarded, not silently substituted."""
    stale = dict(
        tune_result,
        winner={"backend": "jit", "options": {"flavor": "numba"},
                "flavor": "numba", "gops": 99.0, "n": TUNE_N},
    )
    record_tuned(stale, _isolated_bench)
    eng = KernelEngine("auto")
    if eng.tuned is not None:  # environment actually has numba
        assert eng.flavor == "numba"
    else:
        assert eng.calibration is not None


def test_corrupt_bench_file_falls_back(tune_result, _isolated_bench):
    wrong_shapes = ([1, 2], {"tuned": [1]}, {"tuned": {machine_fingerprint(): "jit"}})
    for text in ("{not json", *map(json.dumps, wrong_shapes)):
        _isolated_bench.write_text(text)
        assert load_tuned_winner(_isolated_bench) is None
        eng = KernelEngine("auto")
        assert eng.tuned is None and eng.calibration is not None


def test_winner_with_removed_flavor_falls_back(tune_result, _isolated_bench):
    """A winner persisted for the deleted OpenMP flavor, with its
    ``threads`` option, is stale: the engine calibrates instead."""
    stale = dict(
        tune_result,
        winner={"backend": "jit", "flavor": "cc-omp",
                "options": {"flavor": "cc-omp", "tile": 256, "threads": 2},
                "gops": 99.0, "n": TUNE_N},
    )
    record_tuned(stale, _isolated_bench)
    assert load_tuned_winner(_isolated_bench)["flavor"] == "cc-omp"
    eng = KernelEngine("auto")
    assert eng.tuned is None and eng.calibration is not None


def test_winner_with_removed_option_falls_back(tune_result, _isolated_bench):
    """A winner persisted with an option the backend no longer takes
    (``fw_block`` went with the blocked C kernel) is stale."""
    stale = dict(
        tune_result,
        winner={"backend": "jit", "options": {"fw_block": 64},
                "flavor": "cc", "gops": 99.0, "n": TUNE_N},
    )
    record_tuned(stale, _isolated_bench)
    eng = KernelEngine("auto")
    assert eng.tuned is None and eng.calibration is not None


def test_tuned_winner_errors_are_not_swallowed(monkeypatch):
    """Only a stale winner falls back; any other failure propagates."""
    import repro.bench.kernels as bench_kernels

    def broken(path=None):
        raise RuntimeError("winner store unreadable")

    monkeypatch.setattr(bench_kernels, "load_tuned_winner", broken)
    with pytest.raises(RuntimeError, match="winner store unreadable"):
        KernelEngine("auto")


def test_fingerprint_class_ignores_cpu_count():
    fp = machine_fingerprint()
    assert fingerprint_class(fp) == fp.rsplit("|cpus=", 1)[0]
    assert fingerprint_class("gcc-12|-O3|cpus=1") == fingerprint_class(
        "gcc-12|-O3|cpus=64"
    )
    assert fingerprint_class("gcc-12|-O3") != fingerprint_class("gcc-13|-O3")


def test_regression_gate(tune_result, _isolated_bench):
    path = _isolated_bench
    ok, msg = check_regression(tune_result, path)
    assert ok and "recording only" in msg  # no baseline file yet
    record_tuned(tune_result, path)
    ok, _ = check_regression(tune_result, path)
    assert ok  # same rate as its own baseline
    payload = json.loads(path.read_text())
    fp = tune_result["fingerprint"]
    # baseline from a sibling machine in the class (different cpu count)
    sibling = fingerprint_class(fp) + "|cpus=4096"
    payload["tuned"][sibling] = {
        **payload["tuned"][fp],
        "gops": tune_result["winner"]["gops"] * 2,
    }
    path.write_text(json.dumps(payload))
    ok, msg = check_regression(tune_result, path, tolerance=0.20)
    assert not ok, f"2× baseline must trip the 20% gate: {msg}"
    ok, _ = check_regression(tune_result, path, tolerance=0.99)
    assert ok


# ----------------------------------------------------------------------
# Compile-flag probing and degradation (satellite 1)
# ----------------------------------------------------------------------
def _fake_compiler(tmp_path, rejected: tuple[str, ...]):
    """A cc wrapper that rejects the given flags, else delegates to gcc."""
    script = tmp_path / "picky-cc"
    cases = "|".join(rejected)
    script.write_text(
        "#!/bin/sh\n"
        f'for a in "$@"; do case "$a" in {cases}) exit 1;; esac; done\n'
        'exec gcc "$@"\n'
    )
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return str(script)


needs_gcc = pytest.mark.skipif(
    os.system("gcc --version > /dev/null 2>&1") != 0, reason="needs gcc"
)


@needs_gcc
def test_flag_probe_drops_rejected_flags(tmp_path):
    from repro.core.backends.jit import _resolve_flags

    picky = _fake_compiler(tmp_path, ("-march=native", "-fopenmp"))
    flags, sanitize, degraded = _resolve_flags(picky)
    assert sanitize is None and degraded == ()
    assert "-march=native" not in flags
    assert "-fopenmp" not in flags
    assert "-fopenmp-simd" in flags  # the degraded SIMD-only step
    assert "-O3" in flags


@needs_gcc
def test_degraded_flag_set_still_compiles(tmp_path, monkeypatch):
    """Satellite: the -O3-only retry set must produce working kernels."""
    from repro.core.backends.jit import _DEGRADED_CFLAGS, _compile_and_load

    monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path / "jit-cache"))
    kernels = _compile_and_load("gcc", list(_DEGRADED_CFLAGS))
    assert kernels.build.flags == tuple(_DEGRADED_CFLAGS)
    n = 8
    c = np.full((n, n), np.inf, dtype=np.float32)
    a = np.arange(n * n, dtype=np.float32).reshape(n, n)
    b = a.T.copy()
    expected = c.copy()
    for k in range(n):
        np.minimum(expected, a[:, k, None] + b[k, None, :], out=expected)
    kernels.mp_update(
        c.ctypes.data, a.ctypes.data, b.ctypes.data, n, n, n, n, n, n, 64
    )
    assert np.array_equal(c, expected)


@needs_gcc
def test_sanitizer_flag_rejected_degrades_to_plain(tmp_path):
    """A toolchain without ASan must yield a plain build, honestly recorded."""
    from repro.core.backends.jit import _resolve_flags

    picky = _fake_compiler(tmp_path, ("-fsanitize=address",))
    flags, sanitize, degraded = _resolve_flags(picky, sanitize="asan")
    assert sanitize is None  # the instrumented request was not honoured
    assert "sanitize:asan" in degraded
    assert "-fsanitize=address" not in flags
    assert "-O3" in flags  # ...but the plain build is intact


@needs_gcc
def test_cc_build_info_reports_degraded_sanitizer(tmp_path, monkeypatch):
    """load_cc_kernels survives a rejected sanitizer flag; build info is honest."""
    import repro.core.backends.jit as jit

    picky = _fake_compiler(tmp_path, ("-fsanitize=address",))
    monkeypatch.setenv("REPRO_CC", picky)
    monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path / "jit-cache"))
    # marker only: the guard checks the env var, and with the flag
    # rejected the build degrades to plain, so nothing asan-linked is
    # ever dlopen'd into this process
    monkeypatch.setenv("LD_PRELOAD", "libasan-marker")
    monkeypatch.setattr(jit, "_CC_KERNELS", {})
    info = jit.cc_build_info(sanitize="asan")
    assert info is not None, "degraded build must still load"
    assert info.sanitize is None
    assert "sanitize:asan" in info.degraded


def test_no_compiler_falls_back_to_python_kernels(tmp_path, monkeypatch):
    """cc absent: load_cc_kernels is None and JITBackend still computes."""
    import repro.core.backends.jit as jit

    monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(jit, "_CC_KERNELS", {})
    assert jit.load_cc_kernels() is None
    assert jit.cc_build_info() is None
    backend = jit.JITBackend()
    assert backend.flavor in ("numba", "fallback")  # honest, no phantom cc
    n = 16
    rng = np.random.default_rng(7)
    a = rng.random((n, n)).astype(np.float32)
    b = rng.random((n, n)).astype(np.float32)
    c = np.full((n, n), np.inf, dtype=np.float32)
    expected = c.copy()
    for k in range(n):
        np.minimum(expected, a[:, k, None] + b[k, None, :], out=expected)
    backend.update(c, a, b)
    np.testing.assert_allclose(c, expected, rtol=1e-6)


@needs_gcc
def test_compile_cache_is_lock_serialised(tmp_path):
    """Satellite: the .so publish leaves the advisory lock file behind."""
    from repro.core.backends.jit import _DEGRADED_CFLAGS, compile_cc_so

    cache = tmp_path / "jit-cache"
    so1, _ = compile_cc_so("gcc", list(_DEGRADED_CFLAGS), cache_dir=cache)
    so2, _ = compile_cc_so("gcc", list(_DEGRADED_CFLAGS), cache_dir=cache)
    assert so1 == so2 and so1.exists()
    assert so1.with_suffix(so1.suffix + ".lock").exists()


# ----------------------------------------------------------------------
# Downstream consumer of the tuned rate
# ----------------------------------------------------------------------
def test_timing_calibration_prefers_tuned_winner(tune_result, _isolated_bench):
    from repro.verifyplan.timing import TimingCalibration

    path = _isolated_bench
    record_tuned(tune_result, path)
    cal = TimingCalibration.from_bench(path)
    assert cal.minplus_rate == pytest.approx(tune_result["winner"]["gops"] * 1e9)
    # sweep rows with a higher (stale) rate must NOT override the winner
    rows = [{"backend": "jit", "gops": tune_result["winner"]["gops"] * 50,
             "identical": True}]
    payload = json.loads(path.read_text())
    payload["rows"] = rows
    path.write_text(json.dumps(payload))
    cal = TimingCalibration.from_bench(path)
    assert cal.minplus_rate == pytest.approx(tune_result["winner"]["gops"] * 1e9)
