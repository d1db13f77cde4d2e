"""Wall-clock microbenchmark of the min-plus kernels.

:func:`sweep_backends` times the numpy kernel bare (rows labelled
``backend = flavor = "reference"``) and, per tile size, the kernel
engine as the drivers run it (``backend = "jit"``, ``flavor`` the
engine's kernels: ``cc``, or ``numpy`` under ``REPRO_JIT=off``) on
``n³`` float32 min-plus products. A product at or above
:data:`~repro.core.engine.SPLIT_WORK` is split across cores, and its row
records the panel count. Each config is repeated so its row carries its
best time plus the median and quartiles, every result is verified
bit-identical to the numpy one, and :func:`save_sweep` persists the rows
to ``BENCH_kernels.json`` at the repository root.
:class:`~repro.verifyplan.timing.TimingCalibration` prices analytic
selection off the best bit-identical row; the engine never reads this
file.

Entry points: ``python -m repro bench-kernels`` and
``benchmarks/test_kernel_backends.py``.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.bench.baseline import baseline_path, record
from repro.core.backends.base import rank1_update
from repro.core.engine import KernelEngine, panel_count
from repro.core.minplus import DIST_DTYPE, minplus_ops

__all__ = [
    "DEFAULT_SIZES",
    "DEFAULT_TILES",
    "bench_kernels_path",
    "machine_info",
    "save_sweep",
    "sweep_backends",
]

#: problem sizes (cubes) of the default sweep: one serial product, the
#: block edge of perfbench's fw-rmat (457, split), and the repo's 1024
#: headline Gop/s target
DEFAULT_SIZES = (256, 457, 1024)

#: tile sizes of the engine's rows (the compiled kernel's column tile)
DEFAULT_TILES = (64, 128, 256)


def bench_kernels_path() -> Path:
    """Canonical location of ``BENCH_kernels.json`` (repo root, or
    ``REPRO_BENCH_KERNELS`` when set)."""
    return baseline_path("BENCH_kernels.json", "REPRO_BENCH_KERNELS")


def machine_info() -> dict:
    """Context needed to compare sweeps across machines/commits."""
    from repro.core.backends.jit import cc_compiler

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": cc_compiler(),
        "cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
    }


def sweep_backends(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    tiles: tuple[int, ...] = DEFAULT_TILES,
    *,
    repeats: int = 5,
    seed: int = 0,
    verify: bool = True,
) -> list[dict]:
    """Time the numpy kernel and the engine per tile, at every size;
    returns one row dict per config.

    Rows carry ``backend, flavor, n, tile, panels, seconds, gops,
    speedup, identical`` — ``seconds`` is the best of ``repeats`` runs
    (``gops`` and ``speedup`` derive from it), ``median_seconds``/
    ``q1_seconds``/``q3_seconds`` give the spread, ``panels`` is how
    many column panels the product ran in (``1`` for the bare numpy
    kernel and below the engine's split cutoff), ``speedup`` is against
    the numpy kernel at the same ``n``, ``identical`` the bit-identity
    check against its result. The numpy row is always measured first so
    speedups exist.
    """
    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    for n in sizes:
        a = (rng.random((n, n), dtype=DIST_DTYPE) * 100).astype(DIST_DTYPE)
        b = (rng.random((n, n), dtype=DIST_DTYPE) * 100).astype(DIST_DTYPE)
        ops = minplus_ops(n, n, n)

        def timed(update, backend, flavor, tile, panels):
            times = []
            for _ in range(max(1, repeats)):
                c = np.full((n, n), np.inf, dtype=DIST_DTYPE)
                t0 = perf_counter()
                update(c, a, b)
                times.append(perf_counter() - t0)
            q1, median, q3 = np.percentile(times, (25, 50, 75))
            best = min(times)
            row = {
                "backend": backend,
                "flavor": flavor,
                "n": n,
                "tile": tile,
                "panels": panels,
                "seconds": best,
                "median_seconds": float(median),
                "q1_seconds": float(q1),
                "q3_seconds": float(q3),
                "gops": ops / best / 1e9,
            }
            return row, c

        ref_row, ref_c = timed(rank1_update, "reference", "reference", None, 1)
        ref_seconds = ref_row["seconds"]
        rows.append({**ref_row, "speedup": 1.0, "identical": True})
        for tile in tiles:
            engine = KernelEngine(tile=tile)
            # warm-up triggers one-time kernel-load/thread-pool costs
            engine.update(np.full((n, n), np.inf, dtype=DIST_DTYPE), a, b)
            row, c = timed(engine.update, "jit", engine.flavor, tile, panel_count(n, n, n))
            row["speedup"] = ref_seconds / row["seconds"]
            row["identical"] = bool(np.array_equal(c, ref_c)) if verify else None
            rows.append(row)
    return rows


#: per-row fields mirrored into ``benchmarks/results/kernels.json`` — the
#: *gated* subset (configuration + bit-identity), never measured timings,
#: so re-running the sweep only rewrites the mirror when a contract
#: actually changed
GATED_ROW_FIELDS = ("backend", "flavor", "n", "tile", "identical")


def _gated_row(row: dict) -> dict:
    return {k: row[k] for k in GATED_ROW_FIELDS if k in row}


def save_sweep(rows: list[dict], path: Path | str | None = None) -> Path:
    """Write the sweep to ``BENCH_kernels.json`` (and mirror a record into
    ``benchmarks/results/`` so ``python -m repro report`` includes it).

    Both files are emitted with a stable key order, and the mirror
    carries only the gated fields (:data:`GATED_ROW_FIELDS`) — measured
    timings, machine info, and build notes stay in the canonical root
    file, so benchmark re-runs leave the committed mirror byte-identical
    unless a configuration or bit-identity verdict actually changed.
    """
    path = Path(path) if path else bench_kernels_path()
    non_ref = [r for r in rows if r["backend"] != "reference"]
    best = max(non_ref, key=lambda r: r["gops"]) if non_ref else None
    payload = {
        "experiment": "kernels",
        "title": "min-plus kernel backend wall-clock sweep",
        "generated_by": "python -m repro bench-kernels",
        "machine": machine_info(),
        "rows": rows,
        "best": best,
        "best_speedup": best["speedup"] if best else None,
    }
    return record(payload, path, mirror=_mirror_payload)


def _mirror_payload(payload: dict) -> dict:
    """The gated-fields report record derived from a full sweep payload."""
    best = payload.get("best")
    return {
        "experiment": "kernels",
        "title": payload["title"],
        "generated_by": payload["generated_by"],
        "paper_expectation": (
            "repo target: best non-reference backend ≥ 3× the reference "
            "rank-1 loop's Gop/s at n=1024 (ISSUE 1 acceptance)"
        ),
        "rows": [_gated_row(r) for r in payload["rows"]],
        "best": _gated_row(best) if best else None,
        "notes": [
            "gated fields only (config + bit-identity) — measured timings "
            "live in the canonical copy: BENCH_kernels.json"
        ],
    }
