"""Kernel build contract tests: compile flags, degradation, the loader.

A plain build compiles once with one fixed flag set and later processes
only ``dlopen`` the cached object. A compiler that rejects a flag, a
rejected sanitizer or a missing compiler each degrade, honestly
reported in :class:`~repro.core.backends.jit.CCBuildInfo`; any error
other than a failed compile or load propagates.
"""

import os
import stat
import subprocess

import numpy as np
import pytest


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
def test_warm_load_starts_no_compile(tmp_path, monkeypatch):
    """Once the object is cached, a fresh load starts no subprocess at
    all: no flag probe, no build, no compiler query."""
    import repro.core.backends.jit as jit

    monkeypatch.setenv("REPRO_CC", "gcc")
    monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path / "jit-cache"))
    monkeypatch.setattr(jit, "_CC_KERNELS", {})
    assert jit.load_cc_kernels() is not None  # cold: compiles
    monkeypatch.setattr(jit, "_CC_KERNELS", {})
    commands = []
    real_run = subprocess.run

    def recording_run(cmd, *args, **kwargs):
        commands.append(list(cmd))
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(jit.subprocess, "run", recording_run)
    kernels = jit.load_cc_kernels()
    assert kernels is not None
    assert kernels.build.flags == tuple(jit._CFLAGS)
    assert commands == []


@needs_gcc
def test_flag_probe_drops_rejected_flags(tmp_path, monkeypatch):
    """A compiler that rejects ``-march=native`` loads the ``-O3``-only
    build, and the build info says so."""
    import repro.core.backends.jit as jit

    monkeypatch.setenv("REPRO_CC", _fake_compiler(tmp_path, ("-march=native",)))
    monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path / "jit-cache"))
    monkeypatch.setattr(jit, "_CC_KERNELS", {})
    info = jit.cc_build_info()
    assert info is not None, "the -O3-only retry must load"
    assert info.flags == tuple(jit._DEGRADED_CFLAGS)
    assert "-march=native" not in info.flags


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
    """cc absent: load_cc_kernels is None and the engine still computes."""
    import repro.core.backends.jit as jit
    from repro.core.engine import KernelEngine

    monkeypatch.delenv("REPRO_JIT", raising=False)
    monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(jit, "_CC_KERNELS", {})
    assert jit.load_cc_kernels() is None
    assert jit.cc_build_info() is None
    assert jit.compiled_kernels() is None
    backend = KernelEngine()
    assert backend.flavor == "numpy"  # honest, no phantom cc
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


def test_loader_errors_are_not_swallowed(monkeypatch):
    """A failed compile or load (``OSError``) degrades to the numpy
    kernels; any other error in the build propagates."""
    import repro.core.backends.jit as jit
    from repro.core.engine import KernelEngine

    monkeypatch.setenv("REPRO_CC", "sh")  # any executable: nothing compiles

    def broken(exc):
        def compile_and_load(*args, **kwargs):
            raise exc

        return compile_and_load

    monkeypatch.setattr(jit, "_CC_KERNELS", {})
    monkeypatch.setattr(jit, "_compile_and_load", broken(TypeError("bad binding")))
    with pytest.raises(TypeError, match="bad binding"):
        jit.load_cc_kernels()
    monkeypatch.setattr(jit, "_compile_and_load", broken(OSError("cc exited 1")))
    assert jit.load_cc_kernels() is None
    assert KernelEngine().flavor == "numpy"


@needs_gcc
def test_compile_cache_is_lock_serialised(tmp_path):
    """Satellite: the .so publish leaves the advisory lock file behind."""
    from repro.core.backends.jit import _DEGRADED_CFLAGS, compile_cc_so

    cache = tmp_path / "jit-cache"
    so1, _ = compile_cc_so("gcc", list(_DEGRADED_CFLAGS), cache_dir=cache)
    so2, _ = compile_cc_so("gcc", list(_DEGRADED_CFLAGS), cache_dir=cache)
    assert so1 == so2 and so1.exists()
    assert so1.with_suffix(so1.suffix + ".lock").exists()
