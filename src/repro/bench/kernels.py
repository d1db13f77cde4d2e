"""Wall-clock microbenchmark of the min-plus kernels.

:func:`sweep_backends` times the numpy kernel bare (rows labelled
``backend = flavor = "reference"``) and, per tile size, the kernel
engine as the drivers run it (``backend = "jit"``, ``flavor`` the
engine's kernels: ``cc``, or ``numpy`` under ``REPRO_JIT=off``) on
``n³`` float32 min-plus products. A product at or above
:data:`~repro.core.engine.SPLIT_WORK` is split across cores in row
panels, and its row records the panel count. Each config is repeated so
its row carries its best time plus the median and quartiles, every
result is verified bit-identical to the numpy one, and
:func:`save_sweep` persists the rows to ``BENCH_kernels.json`` at the
repository root and their gated fields to ``kernels.json`` beside the
other records. Neither the engine nor the selector reads these files.

Entry points: ``python -m repro bench-kernels`` and
``benchmarks/test_kernel_backends.py``.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.bench.runner import results_dir
from repro.core.backends.base import rank1_update
from repro.core.engine import KernelEngine, panel_count
from repro.core.minplus import DIST_DTYPE, minplus_ops

__all__ = [
    "DEFAULT_SIZES",
    "DEFAULT_TILES",
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


#: the sweep's file, with machine timings
SWEEP_PATH = Path(__file__).resolve().parents[3] / "BENCH_kernels.json"


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
    many row panels the product ran in (``1`` for the bare numpy
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


def _write_if_changed(path: Path, payload: dict) -> None:
    """Write ``payload`` as key-sorted JSON unless the file already holds
    exactly that text, which keeps no-op re-runs out of VCS status."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not (path.exists() and path.read_text() == text):
        path.write_text(text)


def save_sweep(rows: list[dict]) -> Path:
    """Write the sweep to :data:`SWEEP_PATH` and its report record to
    ``kernels.json`` in :func:`~repro.bench.runner.results_dir`, so
    ``python -m repro report`` includes it; returns the sweep's path.

    The record carries only the gated fields (:data:`GATED_ROW_FIELDS`):
    measured timings and machine info stay in the sweep file, so
    benchmark re-runs leave the committed record byte-identical unless a
    configuration or bit-identity verdict actually changed.
    """
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
    _write_if_changed(SWEEP_PATH, payload)
    _write_if_changed(results_dir() / "kernels.json", _mirror_payload(payload))
    return SWEEP_PATH


def _mirror_payload(payload: dict) -> dict:
    """The gated-fields report record derived from a full sweep payload:
    no field that a timing picks, so a re-run rewrites it only when a
    configuration or a bit-identity verdict changed."""
    return {
        "experiment": "kernels",
        "title": payload["title"],
        "generated_by": payload["generated_by"],
        "paper_expectation": (
            "repo target: best non-reference backend ≥ 3× the reference "
            "rank-1 loop's Gop/s at n=1024 (ISSUE 1 acceptance)"
        ),
        "rows": [_gated_row(r) for r in payload["rows"]],
        "notes": [
            "gated fields only (config + bit-identity) — measured timings "
            "live in the canonical copy: BENCH_kernels.json"
        ],
    }
