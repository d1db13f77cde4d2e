"""Run the kernel test matrix under sanitizer-instrumented builds.

Three modes, three transports:

- **asan** — the instrumented ``.so`` must see ASan's allocator from
  process start, so the matrix runs in a *subprocess* with
  ``LD_PRELOAD=libasan.so`` (numpy buffers get redzones via malloc
  interposition) and ``ASAN_OPTIONS=exitcode=99``: a fault exits 99
  before the oracle comparison is reached.
- **ubsan** — the UBSan runtime links into the ``.so`` itself and is
  happy to be dlopen'd late; the subprocess needs no preload.
  ``-fno-sanitize-recover=all`` turns the first report into an abort.
- **tsan** — TSan cannot be preloaded into an uninstrumented CPython
  (it must own every thread from the start), so the ``cc-omp`` flavor is
  exercised by a *standalone C driver*: kernel TU + ``main`` compiled as
  one ``-fsanitize=thread -fopenmp`` executable that replays an OpenMP
  update against the serial ``mp_update_f32`` in-process
  (``TSAN_OPTIONS=exitcode=66``; driver exits 3 on oracle divergence).
  ``race_top`` suppressions drop libgomp fork/join noise:
  the uninstrumented join barrier carries no happens-before edge, so
  post-join main-thread reads (oracle memcmp, free) falsely "race"
  with the region's writes. Real panel races are worker-vs-worker and
  top out inside the callee kernels, which stay unsuppressed.

Seeded defects are injected as template-source overrides, so the same
harness that must stay silent on clean kernels is the one that must
fire on each defect — no separate code path to rot.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.core.backends.jit import (
    SANITIZER_FLAGS,
    _resolve_flags,
    cc_compiler,
    compile_cc_so,
    kernel_source,
    sanitizer_runtime,
)

__all__ = ["SanitizerRunResult", "sanitizer_available", "run_matrix"]

# libgomp is not TSan-instrumented, so the fork/join barrier carries no
# happens-before edge: every post-join main-thread access (the oracle
# memcmp in differ, the final free) "races" with the preceding parallel
# region's writes.  Real panel races are worker-vs-worker and top out in
# mp_update_f32 on both stacks, which none of these patterns match.
# Plain (unanchored) patterns are deliberate: TSan matches suppression
# templates against the raw interceptor symbol (__interceptor_free etc.),
# which anchored ^free$ style patterns silently fail to hit.
_SUPPRESSIONS = (
    "race_top:main\n"
    "race_top:differ\n"
    "race_top:free\n"
    "race_top:memcmp\n"
)

#: driver appended to the kernel TU for the TSan leg
_TSAN_DRIVER = r"""
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static unsigned long long lcg_state = 0x243f6a8885a308d3ULL;
static float lcg(void)
{
    lcg_state = lcg_state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (float)((lcg_state >> 33) % 1000) / 100.0f + 1.0f;
}

static void fill(float *d, i64 n)
{
    for (i64 i = 0; i < n; i++)
        for (i64 j = 0; j < n; j++) {
            float v = lcg();
            d[i * n + j] = (v > 8.0f) ? (float)(1.0 / 0.0) : v;
        }
    for (i64 i = 0; i < n; i++) d[i * n + i] = 0.0f;
}

static int differ(const float *x, const float *y, i64 n)
{
    return memcmp(x, y, (size_t)(n * n) * sizeof(float)) != 0;
}

int main(void)
{
    /* bj/64 == 2: the smallest matrix where the panel fan-out really
     * runs concurrent threads (the kernel clamps threads to bj/64), so
     * panel races are reachable while the serial reference passes stay
     * affordable under TSan's ~10x slowdown; odd size keeps the
     * remainder paths hot */
    const i64 n = 129, tile = 48, threads = 4;
    size_t bytes = (size_t)(n * n) * sizeof(float);
    float *c0 = malloc(bytes), *a0 = malloc(bytes), *b0 = malloc(bytes);
    float *got = malloc(bytes), *want = malloc(bytes);
    if (!c0 || !a0 || !b0 || !got || !want) return 2;
    fill(c0, n); fill(a0, n); fill(b0, n);

    /* panel fan-out vs the serial kernel (bit-exact candidates) */
    memcpy(got, c0, bytes);
    mp_update_f32_omp(got, a0, b0, n, n, n, n, n, n, tile, threads);
    memcpy(want, c0, bytes);
    mp_update_f32(want, a0, b0, n, n, n, n, n, n, tile);
    if (differ(got, want, n)) { fprintf(stderr, "driver: fan-out diverged\n"); return 3; }

    free(c0); free(a0); free(b0); free(got); free(want);
    return 0;
}
"""


@dataclass
class SanitizerRunResult:
    """Outcome of one instrumented matrix replay."""

    mode: str
    available: bool
    ran: bool = False
    faulted: bool = False  # the sanitizer fired
    diverged: bool = False  # oracle mismatch (matrix exit 1 / driver exit 3)
    returncode: int | None = None
    detail: str = ""
    degraded: tuple[str, ...] = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        return self.ran and not self.faulted and not self.diverged

    @property
    def caught(self) -> bool:
        """Did the dynamic side flag anything at all?"""
        return self.faulted or self.diverged

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "available": self.available,
            "ran": self.ran,
            "clean": self.clean,
            "faulted": self.faulted,
            "diverged": self.diverged,
            "returncode": self.returncode,
            "detail": self.detail,
        }


def sanitizer_available(mode: str, compiler: str | None = None) -> bool:
    """True when the toolchain can build (and run) this sanitizer mode."""
    cc = compiler or cc_compiler()
    if cc is None:
        return False
    _flags, openmp, _mode, degraded = _resolve_flags(cc, sanitize=mode)
    if f"sanitize:{mode}" in degraded:
        return False
    if mode == "tsan" and not openmp:
        return False  # the TSan leg only exists to race the cc-omp flavor
    if mode in ("asan", "tsan") and sanitizer_runtime(mode, cc) is None:
        return False
    return True


def _tail(text: bytes, limit: int = 2000) -> str:
    return text.decode(errors="replace")[-limit:]


def _run_python_matrix(mode: str, so_path: Path, *, fast: bool) -> tuple[int, str]:
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    if mode == "asan":
        runtime = sanitizer_runtime("asan")
        assert runtime is not None
        env["LD_PRELOAD"] = str(runtime)
        env["ASAN_OPTIONS"] = "detect_leaks=0:abort_on_error=0:exitcode=99"
    elif mode == "ubsan":
        env["UBSAN_OPTIONS"] = "print_stacktrace=1"
    cmd = [sys.executable, "-m", "repro.verifykernel.matrixrun", "--so", str(so_path)]
    if fast:
        cmd.append("--fast")
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=600)
    return proc.returncode, _tail(proc.stderr)


def _run_tsan_driver(
    compiler: str, overrides: dict[str, str] | None, fast: bool
) -> tuple[int, str]:
    source = kernel_source(overrides) + _TSAN_DRIVER
    with tempfile.TemporaryDirectory(prefix="repro-tsan-") as tmp:
        tmpdir = Path(tmp)
        c_path = tmpdir / "driver.c"
        c_path.write_text(source)
        exe = tmpdir / "driver"
        supp = tmpdir / "tsan.supp"
        supp.write_text(_SUPPRESSIONS)
        build = subprocess.run(
            [compiler, str(c_path), "-O1", "-g", "-fopenmp", "-fsanitize=thread",
             "-lm", "-o", str(exe)],
            capture_output=True, timeout=300,
        )
        if build.returncode != 0:
            return 2, "driver build failed: " + _tail(build.stderr)
        env = dict(os.environ)
        env["TSAN_OPTIONS"] = (
            f"exitcode=66:suppressions={supp}:halt_on_error=0"
        )
        proc = subprocess.run([str(exe)], env=env, capture_output=True, timeout=600)
        return proc.returncode, _tail(proc.stderr)


def run_matrix(
    mode: str,
    *,
    overrides: dict[str, str] | None = None,
    fast: bool = True,
    compiler: str | None = None,
) -> SanitizerRunResult:
    """Replay the kernel matrix under one sanitizer mode.

    ``overrides`` injects seeded-defect kernel sources; the result's
    ``caught``/``clean`` flags are what the verification report (and the
    cross-validation tests) consume.
    """
    if mode not in SANITIZER_FLAGS:
        raise ValueError(f"unknown sanitizer mode {mode!r}")
    cc = compiler or cc_compiler()
    result = SanitizerRunResult(mode=mode, available=sanitizer_available(mode, cc))
    if not result.available or cc is None:
        result.detail = f"toolchain lacks {mode}; leg skipped"
        return result
    if mode == "tsan":
        code, detail = _run_tsan_driver(cc, overrides, fast)
        result.ran = code != 2
        result.returncode = code
        result.detail = detail
        result.faulted = code == 66
        result.diverged = code == 3
        return result
    flags, openmp, san, degraded = _resolve_flags(cc, sanitize=mode)
    result.degraded = degraded
    source = kernel_source(overrides) if overrides else None
    so_path, _build = compile_cc_so(
        cc, flags, openmp, sanitize=san, degraded=degraded, source=source
    )
    code, detail = _run_python_matrix(mode, so_path, fast=fast)
    result.ran = True
    result.returncode = code
    result.detail = detail
    result.diverged = code == 1
    result.faulted = code not in (0, 1)
    return result
