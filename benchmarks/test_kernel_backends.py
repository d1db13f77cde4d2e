"""Min-plus kernel acceptance benchmark.

Runs the full wall-clock sweep from :mod:`repro.bench.kernels` — the
numpy kernel and the kernel engine per tile on the headline 1024³
float32 min-plus product, which the engine splits across cores — and
enforces the two acceptance criteria:

* every engine row's result is **bit-identical** to the numpy rank-1
  loop's, split or not;
* the best engine row reaches **≥ 3×** the numpy Gop/s whenever the
  compiled kernels are active — without them (``REPRO_JIT=off`` or no
  compiler) the engine runs the numpy loop itself, so the bound is gated
  on ``compiled_kernels()``.

The sweep is persisted to ``BENCH_kernels.json`` at the repo root (plus a
mirror record in ``benchmarks/results/`` for ``python -m repro report``),
so running this file regenerates the repo's kernel performance baseline.
"""

import pytest

from repro.bench.kernels import save_sweep, sweep_backends
from repro.core.backends.jit import compiled_kernels
from repro.core.engine import default_workers


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
    if compiled_kernels() is not None:
        assert best["speedup"] >= 3.0, (
            f"compiled flavor active but best backend only {best['speedup']:.2f}x"
        )
    else:  # no compiled kernels: the engine runs the numpy loop,
        # and the best backend must still not fall behind it
        assert best["speedup"] >= 0.9


def test_threaded_backend_matches_serial_inner(sweep):
    """Every 1024³ jit row is at or above the split cutoff, so it ran in
    one column panel per worker and matches the serial reference."""
    split = [r for r in sweep if r["backend"] == "jit"]
    assert split and all(r["panels"] == default_workers() for r in split)
    assert all(r["identical"] for r in split)
