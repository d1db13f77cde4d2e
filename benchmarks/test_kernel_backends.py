"""Min-plus kernel acceptance benchmark.

Runs the wall-clock sweep of ``python -m repro bench-kernels`` — the
numpy kernel and the kernel engine per tile at the default sizes
(:data:`~repro.bench.kernels.DEFAULT_SIZES`), products at or above the
split cutoff in row panels across cores — under pytest-benchmark, and
enforces the acceptance criteria:

* every engine row's result is **bit-identical** to the numpy rank-1
  loop's, split or not;
* every engine row at or above the split cutoff ran in one row panel
  per worker;
* the best engine row at 1024³ reaches **≥ 3×** the numpy Gop/s whenever
  the compiled kernels are active — without them (``REPRO_JIT=off`` or
  no compiler) the engine runs the numpy loop itself, so the bound is
  gated on ``compiled_kernels()``.

The sweep is persisted to ``BENCH_kernels.json`` at the repo root, and
its gated fields to ``benchmarks/results/kernels.json``, which a re-run
leaves byte-identical unless a configuration or a bit-identity verdict
changed.
"""

from repro.bench.kernels import save_sweep, sweep_backends
from repro.core.backends.jit import compiled_kernels
from repro.core.engine import SPLIT_WORK, default_workers


def test_kernel_sweep(benchmark):
    rows = benchmark.pedantic(sweep_backends, rounds=1, iterations=1)
    save_sweep(rows)

    diverged = [r for r in rows if r["identical"] is False]
    assert not diverged, f"engine rows diverged from the numpy loop: {diverged}"

    engine_rows = [r for r in rows if r["backend"] == "jit"]
    split = [r for r in engine_rows if r["n"] ** 3 >= SPLIT_WORK]
    assert split and all(r["panels"] == min(default_workers(), r["n"]) for r in split)

    ref = next(r for r in rows if r["backend"] == "reference" and r["n"] == 1024)
    best = max((r for r in engine_rows if r["n"] == 1024), key=lambda r: r["gops"])
    print(
        f"\nn=1024: reference {ref['gops']:.2f} Gop/s; best engine row "
        f"[{best['flavor']}] tile={best['tile']} {best['gops']:.2f} Gop/s "
        f"({best['speedup']:.2f}x)"
    )
    if compiled_kernels() is not None:
        assert best["speedup"] >= 3.0, (
            f"compiled kernels active but best engine row only {best['speedup']:.2f}x"
        )
    else:  # no compiled kernels: the engine runs the numpy loop,
        # and it must still not fall behind the bare loop
        assert best["speedup"] >= 0.9
