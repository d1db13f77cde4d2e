"""Kernel-backend acceptance benchmark (ISSUE 1).

Runs the full wall-clock sweep from :mod:`repro.bench.kernels` — every
registered backend on the headline 1024³ float32 min-plus product — and
enforces the two acceptance criteria:

* every backend's result is **bit-identical** to the reference rank-1 loop;
* the best non-reference backend reaches **≥ 3×** the reference Gop/s
  whenever the ctypes C kernel is active — without it, ``jit`` falls
  back to the reference loop itself, so the bound is gated on
  ``JITBackend().compiled``.

The sweep is persisted to ``BENCH_kernels.json`` at the repo root (plus a
mirror record in ``benchmarks/results/`` for ``python -m repro report``),
so running this file regenerates the repo's kernel performance baseline.
"""

import pytest

from repro.bench.kernels import save_sweep, sweep_backends
from repro.core.backends.jit import JITBackend


@pytest.fixture(scope="module")
def sweep():
    rows = sweep_backends(sizes=(1024,), tiles=(64, 128, 256), repeats=1)
    save_sweep(rows)
    return rows


def test_all_backends_bit_identical_at_1024(sweep):
    diverged = [r for r in sweep if r["identical"] is False]
    assert not diverged, f"backends diverged from reference: {diverged}"


def test_best_backend_speedup(sweep):
    ref = next(r for r in sweep if r["backend"] == "reference")
    best = max(
        (r for r in sweep if r["backend"] != "reference"), key=lambda r: r["gops"]
    )
    print(
        f"\nreference {ref['gops']:.2f} Gop/s; best {best['backend']}"
        f"[{best['flavor']}] tile={best['tile']} {best['gops']:.2f} Gop/s "
        f"({best['speedup']:.2f}x)"
    )
    if JITBackend().compiled:
        assert best["speedup"] >= 3.0, (
            f"compiled flavor active but best backend only {best['speedup']:.2f}x"
        )
    else:  # no C compiler: jit runs the reference loop,
        # and the best backend must still not fall behind it
        assert best["speedup"] >= 0.9


def test_threaded_backend_matches_serial_inner(sweep):
    threaded = [r for r in sweep if r["backend"] == "threaded"]
    assert threaded and all(r["identical"] for r in threaded)
