"""Replay the full kernel test matrix against one compiled ``.so``.

This is the *payload* of the sanitizer harness: a standalone process that
``dlopen``s a (normally instrumented) kernel shared object and drives
every C entry point through the shapes that historically hide bugs —
remainder tiles, strided row views and the in-place FW closure — checking each result against the numpy reference
semantics from :mod:`repro.core.backends.base`. The batched Near-Far
kernel runs on random CSR graphs (no edges, one vertex, sinks,
self-loops, duplicate edges and sources, zero and ``inf`` weights, a
sweep of Δ and heavy-vertex thresholds) against the numpy loop of
:mod:`repro.sssp.near_far`, distances and statistics bit for bit, as
one call and as 2 and 3 merged row ranges on the engine's pool, with
records that hold one level so every longer run reaches the record
guards; every graph's last vertex has out-edges and is a source, so
reading past a CSR slice reaches past the end of ``indptr``.

Run as::

    python -m repro.verifykernel.matrixrun --so PATH [--json-out F] [--fast]

Exit codes: ``0`` all cases match the oracle, ``1`` divergence, ``2``
usage/load error. Under ASan the process exits ``99`` at the first
instrumented fault (``ASAN_OPTIONS=exitcode=99``), before the oracle
comparison is reached.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

import numpy as np

from repro.core.backends.base import numpy_fw_inplace, rank1_update
from repro.core.backends.jit import CCBuildInfo, _CCKernels, _checked_operand
from repro.graphs.csr import CSRGraph
from repro.sssp.near_far import _compiled_batch, _numpy_batch

__all__ = ["run_matrix_cases", "main"]

_TILE = 48  # smaller than default so remainder paths hit at small n

#: each Near-Far case runs as one call and as 2 and 3 merged row ranges
_NEAR_FAR_RANGES = (1, 2, 3)

#: room for one level record per call: every case with more levels or
#: rounds reaches the record guards, and then reruns with room for all
_RECORD_CAPACITY = 1


def _load(so_path: str) -> _CCKernels:
    build = CCBuildInfo(compiler="external", flags=())
    return _CCKernels(ctypes.CDLL(so_path), build)


def _dist_matrix(rng: np.random.Generator, n: int, inf_frac: float = 0.3) -> np.ndarray:
    d = rng.uniform(1.0, 10.0, size=(n, n)).astype(np.float32)
    d[rng.random((n, n)) < inf_frac] = np.inf
    np.fill_diagonal(d, 0.0)
    return d


def _strided(arr: np.ndarray) -> np.ndarray:
    """Re-home ``arr`` as a view with row stride 2×cols (unit inner stride)."""
    n, m = arr.shape
    buf = np.full((n, 2 * m), np.float32(np.nan), dtype=arr.dtype)
    buf[:, :m] = arr
    return buf[:, :m]


def _mp_args(c, a, b, tile=_TILE):
    return (
        c.ctypes.data, a.ctypes.data, b.ctypes.data,
        c.shape[0], a.shape[1], c.shape[1],
        _checked_operand(c, np.float32),
        _checked_operand(a, np.float32),
        _checked_operand(b, np.float32),
        tile,
    )


def run_matrix_cases(kern: _CCKernels, *, fast: bool = False) -> list[dict]:
    """Run every case; returns one record per case (``ok`` + detail)."""
    rng = np.random.default_rng(20260808)
    cases: list[dict] = []

    def record(name: str, got: np.ndarray, want: np.ndarray) -> None:
        both = np.isfinite(got) & np.isfinite(want)
        ok = bool(np.array_equal(got, want))
        err = 0.0 if ok else float(np.max(np.abs(got[both] - want[both]), initial=0.0))
        mismatched = 0 if ok else int(np.sum((got != want) & ~(np.isnan(got) & np.isnan(want))))
        cases.append({"name": name, "ok": ok, "max_err": err, "mismatched": mismatched})

    sizes = [33] if fast else [33, 64, 97]

    # -- float32, disjoint operands ----------------------------------------
    for n in sizes:
        c0 = _dist_matrix(rng, n)
        a0 = _dist_matrix(rng, n)
        b0 = _dist_matrix(rng, n)
        want = rank1_update(c0.copy(), a0, b0)
        c = c0.copy()
        kern.mp_update(*_mp_args(c, a0, b0))
        record(f"f32/fast/disjoint/n={n}", c, want)

    # -- float32, strided row views --------------------------------------
    n = sizes[-1]
    c0, a0, b0 = _dist_matrix(rng, n), _dist_matrix(rng, n), _dist_matrix(rng, n)
    want = rank1_update(c0.copy(), a0, b0)
    c, a, b = _strided(c0.copy()), _strided(a0), _strided(b0)
    kern.mp_update(*_mp_args(c, a, b))
    record(f"f32/fast/strided/n={n}", np.ascontiguousarray(c), want)

    # -- Floyd–Warshall tile closure ---------------------------------------
    n = sizes[-1]
    d0 = _dist_matrix(rng, n, inf_frac=0.5)
    d0[d0 < np.inf] = np.floor(d0[d0 < np.inf])  # integer weights: exact
    want_d = numpy_fw_inplace(d0.copy())
    d = d0.copy()
    kern.fw_inplace(d.ctypes.data, n, _checked_operand(d, np.float32))
    record(f"fw/inplace/n={n}", d, want_d)

    for name, graph, sources, delta, heavy in _near_far_cases(rng, fast):
        want_nf, want_stats = _numpy_batch(graph, sources, delta, heavy)
        for ranges in _NEAR_FAR_RANGES:
            label = name if ranges == 1 else f"{name}/ranges={ranges}"
            try:
                got_nf, got_stats = _compiled_batch(
                    kern.near_far, graph, sources, delta, heavy,
                    ranges=ranges, capacity=_RECORD_CAPACITY,
                )
            except (RuntimeError, ValueError) as exc:
                cases.append({"name": label, "ok": False, "max_err": float("nan"),
                              "mismatched": -1, "error": str(exc)})
                continue
            record(label, got_nf, want_nf)
            if got_stats != want_stats:
                cases[-1].update(ok=False, stats=[str(got_stats), str(want_stats)])

    return cases


def _random_csr(
    rng: np.random.Generator, n: int, max_deg: int, *, zero_frac: float, inf_frac: float
) -> CSRGraph:
    """A CSR graph with sinks, self-loops and duplicate edges; the last
    vertex always has out-edges. Integer weights keep sums exact."""
    deg = rng.integers(0, max_deg + 1, size=n)
    deg[rng.random(n) < 0.2] = 0
    deg[-1] = max(1, int(deg[-1]))
    indptr = np.concatenate([[0], np.cumsum(deg)])
    m = int(indptr[-1])
    indices = rng.integers(0, n, size=m)
    weights = rng.integers(1, 20, size=m).astype(np.float64)
    weights[rng.random(m) < zero_frac] = 0.0
    weights[rng.random(m) < inf_frac] = np.inf
    # exact-size copies: the end of each array is an allocation's end
    return CSRGraph(np.array(indptr), np.array(indices), np.array(weights))


def _near_far_cases(rng: np.random.Generator, fast: bool):
    """``(name, graph, sources, delta, heavy_degree)`` for the Near-Far kernel."""
    one = CSRGraph(np.array([0, 0]), np.array([], dtype=np.int64), np.array([]))
    empty = CSRGraph(np.zeros(6, dtype=np.int64), np.array([], dtype=np.int64), np.array([]))
    yield "nearfar/n=1", one, np.array([0]), 1.0, 32
    yield "nearfar/no-edges", empty, np.array([4, 0, 4]), 1.0, 0
    sizes = [(23, 4), (41, 9)] if fast else [(23, 4), (41, 9), (64, 3), (97, 12)]
    for n, max_deg in sizes:
        graph = _random_csr(rng, n, max_deg, zero_frac=0.15, inf_frac=0.05)
        top = int(np.diff(graph.indptr).max())
        picked = rng.integers(0, n, size=n // 3)
        # duplicate sources, and the last vertex relaxed at level 0
        sources = np.concatenate([picked, picked[:2], [n - 1]])
        for delta in (0.5, 3.0, 7.5, 1e9):
            for heavy in (0, 2, top + 1):
                yield (f"nearfar/n={n}/delta={delta:g}/heavy={heavy}",
                       graph, sources, delta, heavy)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.verifykernel.matrixrun")
    parser.add_argument("--so", required=True, help="compiled kernel shared object")
    parser.add_argument("--json-out", help="write the case report to this path")
    parser.add_argument("--fast", action="store_true", help="one matrix size instead of three")
    args = parser.parse_args(argv)
    try:
        kern = _load(args.so)
    except OSError as exc:
        print(f"matrixrun: cannot load {args.so}: {exc}", file=sys.stderr)
        return 2
    cases = run_matrix_cases(kern, fast=args.fast)
    failed = [c for c in cases if not c["ok"]]
    report = {
        "so": args.so,
        "cases": cases,
        "failed": len(failed),
    }
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=2)
    for c in failed:
        print(f"matrixrun: DIVERGED {c['name']} (max_err={c['max_err']})", file=sys.stderr)
    print(f"matrixrun: {len(cases) - len(failed)}/{len(cases)} cases match", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
