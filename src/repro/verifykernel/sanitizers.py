"""Run the kernel test matrix under sanitizer-instrumented builds.

Two modes, each replayed in a subprocess:

- **asan** — the instrumented ``.so`` must see ASan's allocator from
  process start, so the matrix runs in a *subprocess* with
  ``LD_PRELOAD=libasan.so`` (numpy buffers get redzones via malloc
  interposition) and ``ASAN_OPTIONS=exitcode=99``: a fault exits 99
  before the oracle comparison is reached.
- **ubsan** — the UBSan runtime links into the ``.so`` itself and is
  happy to be dlopen'd late; the subprocess needs no preload.
  ``-fno-sanitize-recover=all`` turns the first report into an abort.

Seeded defects are injected as template-source overrides, so the same
harness that must stay silent on clean kernels is the one that must
fire on each defect — no separate code path to rot.
"""

from __future__ import annotations

import os
import subprocess
import sys
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


@dataclass
class SanitizerRunResult:
    """Outcome of one instrumented matrix replay."""

    mode: str
    available: bool
    ran: bool = False
    faulted: bool = False  # the sanitizer fired
    diverged: bool = False  # oracle mismatch (matrix exit 1)
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
    _flags, _mode, degraded = _resolve_flags(cc, sanitize=mode)
    if f"sanitize:{mode}" in degraded:
        return False
    if mode == "asan" and sanitizer_runtime(mode, cc) is None:
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
    flags, san, degraded = _resolve_flags(cc, sanitize=mode)
    result.degraded = degraded
    source = kernel_source(overrides) if overrides else None
    so_path, _build = compile_cc_so(
        cc, flags, sanitize=san, degraded=degraded, source=source
    )
    code, detail = _run_python_matrix(mode, so_path, fast=fast)
    result.ran = True
    result.returncode = code
    result.detail = detail
    result.diverged = code == 1
    result.faulted = code not in (0, 1)
    return result
