"""Replay the full kernel test matrix against one compiled ``.so``.

This is the *payload* of the sanitizer harness: a standalone process that
``dlopen``s a (normally instrumented) kernel shared object and drives
every C entry point through the shapes that historically hide bugs —
remainder tiles, strided row views, aliased operands, saturating int32,
and the OpenMP panel fan-out — checking
each result against the numpy reference semantics from
:mod:`repro.core.backends.base`.

Run as::

    python -m repro.verifykernel.matrixrun --so PATH [--json-out F]
                                           [--force-fast-alias] [--fast]

Exit codes: ``0`` all cases match the oracle, ``1`` divergence, ``2``
usage/load error. Under ASan the process exits ``99`` at the first
instrumented fault (``ASAN_OPTIONS=exitcode=99``), before the oracle
comparison is reached.

``--force-fast-alias`` reproduces the ``unsound_alias_routing`` seeded
defect *behaviourally*: aliased operands are sent to the register-blocked
fast kernel (as a broken Python dispatch would) on an adversarial
chain-graph input whose pivot chain guarantees the stale 4-pivot groups
produce wrong distances — the dynamic catcher for that defect is oracle
divergence, not a sanitizer.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

import numpy as np

from repro.core.backends.base import (
    INT32_INF,
    int32_rank1_update,
    numpy_fw_inplace,
    rank1_update,
)
from repro.core.backends.jit import CCBuildInfo, JITBackend, _CCKernels

__all__ = ["run_matrix_cases", "main"]

_TILE = 48  # smaller than default so remainder paths hit at small n


def seq_oracle_inplace(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, tile: int = _TILE
) -> np.ndarray:
    """Aliasing-faithful numpy replica of ``mp_update_f32_seq``.

    Same k-tile → j-tile → row → pivot order as the C kernel, applied
    in place, so it is exact for *every* ``(c, a, b)`` alias pattern —
    the reference the aliased matrix cases compare against. (For
    disjoint operands the order is irrelevant and :func:`rank1_update`
    is the cheaper oracle.)
    """
    bi, bj = c.shape
    bk = a.shape[1]
    for k0 in range(0, bk, tile):
        k1 = min(k0 + tile, bk)
        for j0 in range(0, bj, tile):
            j1 = min(j0 + tile, bj)
            for i in range(bi):
                row = c[i, j0:j1]
                for k in range(k0, k1):
                    aik = a[i, k]
                    if np.isinf(aik):
                        continue
                    np.minimum(row, aik + b[k, j0:j1], out=row)
    return c


def _load(so_path: str) -> _CCKernels:
    build = CCBuildInfo(compiler="external", version="", flags=(), openmp=False)
    return _CCKernels(ctypes.CDLL(so_path), build)


def _chain_graph(n: int) -> np.ndarray:
    """Path-graph distance seed: the worst case for stale pivot groups.

    Shortest paths need every intermediate vertex in order, so an aliased
    squaring step that pre-loads pivot groups before writing (the fast
    kernel's register blocking) returns distances that are provably too
    large — divergence is deterministic, not probabilistic.
    """
    d = np.full((n, n), np.inf, dtype=np.float32)
    np.fill_diagonal(d, 0.0)
    for i in range(n - 1):
        d[i, i + 1] = 1.0
    return d


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


def _mp_args(kern, c, a, b, dtype, tile=_TILE):
    return (
        c.ctypes.data, a.ctypes.data, b.ctypes.data,
        c.shape[0], a.shape[1], c.shape[1],
        JITBackend._checked_operand(c, dtype),
        JITBackend._checked_operand(a, dtype),
        JITBackend._checked_operand(b, dtype),
        tile,
    )


def run_matrix_cases(
    kern: _CCKernels, *, fast: bool = False, force_fast_alias: bool = False
) -> list[dict]:
    """Run every case; returns one record per case (``ok`` + detail)."""
    rng = np.random.default_rng(20260808)
    cases: list[dict] = []

    def record(name: str, got: np.ndarray, want: np.ndarray, exact: bool = True) -> None:
        both = np.isfinite(got) & np.isfinite(want)
        if exact:
            ok = bool(np.array_equal(got, want))
        else:
            ok = bool(
                np.array_equal(np.isfinite(got), np.isfinite(want))
                and np.allclose(got[both], want[both], rtol=5e-4, atol=5e-4)
            )
        err = 0.0 if ok else float(np.max(np.abs(got[both] - want[both]), initial=0.0))
        mismatched = 0 if ok else int(np.sum((got != want) & ~(np.isnan(got) & np.isnan(want))))
        cases.append({"name": name, "ok": ok, "max_err": err, "mismatched": mismatched})

    sizes = [33] if fast else [33, 64, 97]

    # -- float32, disjoint operands: seq + fast kernels ------------------
    for n in sizes:
        c0 = _dist_matrix(rng, n)
        a0 = _dist_matrix(rng, n)
        b0 = _dist_matrix(rng, n)
        want = rank1_update(c0.copy(), a0, b0)
        for entry, label in ((kern.mp_update_seq, "seq"), (kern.mp_update, "fast")):
            c = c0.copy()
            entry(*_mp_args(kern, c, a0, b0, np.float32))
            record(f"f32/{label}/disjoint/n={n}", c, want)

    # -- float32, strided row views --------------------------------------
    n = sizes[-1]
    c0, a0, b0 = _dist_matrix(rng, n), _dist_matrix(rng, n), _dist_matrix(rng, n)
    want = rank1_update(c0.copy(), a0, b0)
    for entry, label in ((kern.mp_update_seq, "seq"), (kern.mp_update, "fast")):
        c, a, b = _strided(c0.copy()), _strided(a0), _strided(b0)
        entry(*_mp_args(kern, c, a, b, np.float32))
        record(f"f32/{label}/strided/n={n}", np.ascontiguousarray(c), want)

    # -- float32, aliased operands (zero diagonal -> rank-1 oracle exact)
    n = sizes[-1]
    base = _dist_matrix(rng, n)
    alias_specs = [
        ("c==a", lambda d: (d, d, _dist_matrix(rng, n))),
        ("c==b", lambda d: (d, _dist_matrix(rng, n), d)),
        ("c==a==b", lambda d: (d, d, d)),
    ]
    for label, build in alias_specs:
        if force_fast_alias:
            # behavioural replica of the unsound_alias_routing defect:
            # aliased operands on the register-blocked fast kernel; the
            # chain graph makes stale pivot groups diverge deterministically
            chain = _chain_graph(n)
            want = chain.copy()
            wa = want if label in ("c==a", "c==a==b") else chain.copy()
            wb = want if label in ("c==b", "c==a==b") else chain.copy()
            seq_oracle_inplace(want, wa, wb)
            got = chain.copy()
            ga = got if label in ("c==a", "c==a==b") else chain.copy()
            gb = got if label in ("c==b", "c==a==b") else chain.copy()
            kern.mp_update(*_mp_args(kern, got, ga, gb, np.float32))
            record(f"f32/forced-fast/{label}", got, want)
            continue
        d = base.copy()
        c, a, b = build(d)
        want_c = c.copy()
        want_a = want_c if a is c else a.copy()
        want_b = want_c if b is c else b.copy()
        want_c = seq_oracle_inplace(want_c, want_a, want_b)
        kern.mp_update_seq(*_mp_args(kern, c, a, b, np.float32))
        record(f"f32/seq/alias/{label}", c, want_c)

    # -- int32 semiring with saturation ----------------------------------
    n = sizes[0]
    big = int(INT32_INF) - 3
    ci = rng.integers(0, 50, size=(n, n), dtype=np.int32)
    ai = rng.integers(0, 50, size=(n, n), dtype=np.int32)
    bi_ = rng.integers(0, 50, size=(n, n), dtype=np.int32)
    ai[rng.random((n, n)) < 0.2] = INT32_INF
    bi_[rng.random((n, n)) < 0.2] = INT32_INF
    ai[0, :] = big  # near-sentinel values force the saturating add
    want_i = int32_rank1_update(ci.copy(), ai, bi_)
    ci2 = ci.copy()
    kern.mp_update_i32(*_mp_args(kern, ci2, ai, bi_, np.int32))
    record(f"i32/saturating/n={n}", ci2, want_i)

    # -- Floyd–Warshall: in-place + blocked ------------------------------
    n = sizes[-1]
    d0 = _dist_matrix(rng, n, inf_frac=0.5)
    d0[d0 < np.inf] = np.floor(d0[d0 < np.inf])  # integer weights: exact
    want_d = numpy_fw_inplace(d0.copy())
    d = d0.copy()
    kern.fw_inplace(d.ctypes.data, n, JITBackend._checked_operand(d, np.float32))
    record(f"fw/inplace/n={n}", d, want_d)
    d = d0.copy()
    kern.fw_blocked(
        d.ctypes.data, n, JITBackend._checked_operand(d, np.float32), 24, _TILE
    )
    record(f"fw/blocked/blk=24/n={n}", d, want_d)

    # -- OpenMP fan-out: disjoint panels + routed aliased operands -------
    if kern.openmp:
        threads_list = [2] if fast else [2, 4]
        # the fan-out caps panels at bj/64: the matrix must be wide
        # enough that the requested thread counts actually materialise
        n = 161 if fast else 257
        c0, a0, b0 = _dist_matrix(rng, n), _dist_matrix(rng, n), _dist_matrix(rng, n)
        want = rank1_update(c0.copy(), a0, b0)
        for threads in threads_list:
            c = c0.copy()
            kern.mp_update_omp(*_mp_args(kern, c, a0, b0, np.float32), threads, 0)
            record(f"f32/omp/disjoint/threads={threads}", c, want)
            # seq=1 exercises the C-side router: the entry point itself
            # must bounce aliased operands to the sequential twin instead
            # of fanning them across panels (TSan target for seq_fanout)
            d = c0.copy()
            want_d2 = c0.copy()
            seq_oracle_inplace(want_d2, want_d2, want_d2)
            kern.mp_update_omp(*_mp_args(kern, d, d, d, np.float32), threads, 1)
            record(f"f32/omp/alias-routed/threads={threads}", d, want_d2)

    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.verifykernel.matrixrun")
    parser.add_argument("--so", required=True, help="compiled kernel shared object")
    parser.add_argument("--json-out", help="write the case report to this path")
    parser.add_argument("--force-fast-alias", action="store_true")
    parser.add_argument("--fast", action="store_true", help="fewer sizes/threads")
    args = parser.parse_args(argv)
    try:
        kern = _load(args.so)
    except OSError as exc:
        print(f"matrixrun: cannot load {args.so}: {exc}", file=sys.stderr)
        return 2
    cases = run_matrix_cases(
        kern, fast=args.fast, force_fast_alias=args.force_fast_alias
    )
    failed = [c for c in cases if not c["ok"]]
    report = {
        "so": args.so,
        "openmp": kern.openmp,
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
