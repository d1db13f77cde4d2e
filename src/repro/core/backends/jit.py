"""The compiled C kernels: min-plus/FW tiles and batched Near-Far.

:func:`compiled_kernels` is the one switch between these kernels and
the numpy ones. It returns the loaded :class:`_CCKernels`, or ``None``
under ``REPRO_JIT=off`` or where no C compiler builds them. Given
kernels, the engine (:class:`repro.core.engine.KernelEngine`) runs its
min-plus and FW tiles through :meth:`_CCKernels.update` and
:meth:`_CCKernels.fw_tile`, and :func:`repro.sssp.near_far.near_far_batch`
its batches through ``near_far_f64``; given ``None``, both run their
numpy kernels (:mod:`repro.core.backends.base` and the numpy loop of
:mod:`repro.sssp.near_far`), which the tests compare against.

The C translation unit is compiled at first use with the system C
compiler (``gcc``/``cc``/``clang``, or ``REPRO_CC``) into a per-user
cache directory (``REPRO_JIT_CACHE`` overrides it) and loaded through
:mod:`ctypes`. No build-time dependency: a machine without a compiler
runs the numpy kernels. The ``.so`` is keyed by a hash of the source,
compiler, and flag set, so later processes pay only a ``dlopen``. No
kernel starts a thread; the callers spread large work across cores by
calling a kernel on disjoint parts from the engine's pool
(:func:`repro.core.engine.shared_executor`): the engine calls the
min-plus kernel on disjoint row panels of a large product, and
:func:`repro.sssp.near_far.near_far_batch` calls the Near-Far kernel on
contiguous row ranges of a large batch, the first on the calling thread
and the rest on the pool.

A plain build uses one fixed flag set, :data:`_CFLAGS`, and compiles
nothing when its ``.so`` is cached. A compiler that rejects any of
those flags gets one retry with the ``-O3``-only set, so a machine with
a compiler never loses the compiled kernels to a flag quirk
(:func:`cc_build_info` reports what was actually used).

The C source is not an opaque string: it is assembled from
:data:`KERNEL_TEMPLATES`, one :class:`KernelTemplate` per C entry point,
each declaring its array extents (rows/cols/row-stride per pointer
parameter) and its aliasing contract. :mod:`repro.verifykernel` parses
the per-kernel sources and statically proves every subscript within the
declared extents and each kernel's alias class — run
``python -m repro verify-kernels``.

**Sanitizer-instrumented builds** are made only by the verification
harness (:mod:`repro.verifykernel.sanitizers`): :func:`_resolve_flags`
grows the flag set by the mode's ``-fsanitize=...`` group, whose first
flag is test-compiled first (a toolchain without the sanitizer gets the
plain set, reported as degraded), and :func:`compile_cc_so` builds the
object. This process never loads one: ASan objects cannot be
``dlopen``-ed into an ordinary interpreter, so the harness runs them in
a subprocess with the runtime preloaded (:func:`sanitizer_runtime`).

The C side has one float32 min-plus kernel, a **register-blocked**
``mp_update_f32``: 4 output rows × 4 pivots per step, over column panels
of at most 128 (``min(tile, 128)``) inside each ``tile``-deep ``k``
tile, with ``#pragma omp simd`` inner loops. A block of 4 rows keeps its
C panel in L1 while it walks the ``k`` tile, and each load of ``B``
serves all 4 rows. It requires ``C`` disjoint from ``A`` and ``B``,
which :meth:`repro.core.engine.KernelEngine.update` guarantees by
rejecting overlapping operands. Min is order-independent and every
candidate ``a + b`` is the identical float32 sum, so reassociating the
min accumulation is bit-exact. ``fw_inplace_f32`` closes one tile in
place; larger closures are blocked by the engine. On the library's distance domain
(``[0, +inf]``, zero diagonals) both are bit-identical to the numpy
rank-1 formulation.

The translation unit also holds one kernel that is not min-plus:
``near_far_f64``, the whole loop of one batched Near-Far MSSP launch
over a range of rows. :func:`repro.sssp.near_far.near_far_batch` calls
it whenever :func:`compiled_kernels` returns kernels, and its ctypes
arguments are ``ndpointer`` types, which check dtype, rank and layout on
every call. It returns no batch statistics of its own, only
per-level records (split, round count, heavy edges per round) in arrays
whose every write is guarded by their capacity ``cap``; the caller
merges the records of one or more row ranges into ``NearFarStats``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "CCBuildInfo",
    "KERNEL_TEMPLATES",
    "KernelTemplate",
    "SANITIZER_FLAGS",
    "cc_build_info",
    "cc_compiler",
    "compile_cc_so",
    "compiled_kernels",
    "kernel_source",
    "load_cc_kernels",
    "sanitizer_runtime",
]

#: shared translation-unit prologue: headers and the ``i64`` alias
#: (no array accesses — not analyzed)
_C_PRELUDE = r"""
#include <math.h>
#include <stdint.h>

typedef long long i64;
"""


@dataclass(frozen=True)
class KernelTemplate:
    """One C entry point plus the contract the verifier proves it against.

    ``arrays`` maps each pointer parameter to its declared 2-D extent —
    ``{"rows": ..., "cols": ..., "stride": ..., "mode": "r"|"w"|"rw"}``
    with rows/cols/stride given as parameter-expression strings (the row
    stride is in *elements*, unit stride along the last axis). Every
    subscript the kernel executes must decompose into a row index in
    ``[0, rows)`` and a column offset in ``[0, cols)`` — the static
    bounds proof in :mod:`repro.verifykernel.bounds`.

    ``alias_class`` is the *declared* aliasing contract, cross-checked
    against the tolerance :mod:`repro.verifykernel.alias` derives from
    the body:

    * ``"disjoint"`` — written arrays must not overlap read arrays
      (register-blocked pivot groups read ahead of their writes);
    * ``"k-sequential"`` — strict per-row pivot order, one pivot at a
      time (would tolerate the row-aliased ``C==A`` / ``C==B`` patterns);
    * ``"inplace-fw"`` — the in-place FW recurrence (correct on the
      zero-diagonal distance domain);
    * ``"distinct"`` — no two arrays may overlap at all (subscripts that
      depend on array data leave no region statically known).

    A 1-D array declares ``{"len": ..., "mode": ...}`` instead of
    rows/cols/stride. An integer array may also declare the range of its
    values, ``"values": "[lo, hi)"`` or ``"[lo, hi]"``: a read of it is
    then known to lie in the range, and every write into it must be
    proven to. The caller discharges the range for the array's initial
    contents.
    """

    name: str
    source: str
    arrays: dict[str, dict[str, str]]
    alias_class: str


_MP_FAST_SOURCE = r"""
/* Register-blocked loop: 4 output rows x 4 pivots per step, over column
 * panels of at most 128 (pw = min(tile, 128)). Per k tile and panel,
 * each block of 4 rows walks the tile's pivots in groups of 4: its four
 * C rows (4 x pw floats) stay in L1 across the whole tile, and each B
 * load of a group's four rows serves all four output rows, so B streams
 * from L2 once per 4 rows. Candidates are the same float32 sums as the
 * reference; min is order-independent, so the reassociation is
 * bit-exact. REQUIRES C disjoint from A and B (the engine rejects
 * overlapping operands). A pivot group whose 16 A values are all inf
 * is skipped, and so are the 4 values of a remainder pivot; a lone inf
 * contributes only +inf candidates, which never win. Rows past the last
 * block of 4 run a 1-row loop. */
void mp_update_f32(float *c, const float *a, const float *b,
                   i64 bi, i64 bk, i64 bj,
                   i64 cs, i64 as, i64 bs, i64 tile)
{
    if (tile <= 0) tile = 256;
    i64 pw = tile < 128 ? tile : 128;
    for (i64 k0 = 0; k0 < bk; k0 += tile) {
        i64 k1 = k0 + tile < bk ? k0 + tile : bk;
        for (i64 j0 = 0; j0 < bj; j0 += pw) {
            i64 len = (j0 + pw < bj ? j0 + pw : bj) - j0;
            i64 i = 0;
            for (; i + 4 <= bi; i += 4) {
                float *c0r = c + i * cs + j0;
                float *c1r = c0r + cs, *c2r = c1r + cs, *c3r = c2r + cs;
                const float *a0r = a + i * as;
                const float *a1r = a0r + as, *a2r = a1r + as, *a3r = a2r + as;
                i64 k = k0;
                for (; k + 4 <= k1; k += 4) {
                    float a00 = a0r[k], a01 = a0r[k+1], a02 = a0r[k+2], a03 = a0r[k+3];
                    float a10 = a1r[k], a11 = a1r[k+1], a12 = a1r[k+2], a13 = a1r[k+3];
                    float a20 = a2r[k], a21 = a2r[k+1], a22 = a2r[k+2], a23 = a2r[k+3];
                    float a30 = a3r[k], a31 = a3r[k+1], a32 = a3r[k+2], a33 = a3r[k+3];
                    if (isinf(a00) && isinf(a01) && isinf(a02) && isinf(a03) &&
                        isinf(a10) && isinf(a11) && isinf(a12) && isinf(a13) &&
                        isinf(a20) && isinf(a21) && isinf(a22) && isinf(a23) &&
                        isinf(a30) && isinf(a31) && isinf(a32) && isinf(a33))
                        continue;
                    const float *b0 = b + k * bs + j0;
                    const float *b1 = b0 + bs, *b2 = b1 + bs, *b3 = b2 + bs;
                    #pragma omp simd
                    for (i64 j = 0; j < len; j++) {
                        float w0 = b0[j], w1 = b1[j], w2 = b2[j], w3 = b3[j];
                        float v0 = c0r[j], v1 = c1r[j], v2 = c2r[j], v3 = c3r[j];
                        float t;
                        t = a00 + w0; v0 = t < v0 ? t : v0;
                        t = a01 + w1; v0 = t < v0 ? t : v0;
                        t = a02 + w2; v0 = t < v0 ? t : v0;
                        t = a03 + w3; v0 = t < v0 ? t : v0;
                        t = a10 + w0; v1 = t < v1 ? t : v1;
                        t = a11 + w1; v1 = t < v1 ? t : v1;
                        t = a12 + w2; v1 = t < v1 ? t : v1;
                        t = a13 + w3; v1 = t < v1 ? t : v1;
                        t = a20 + w0; v2 = t < v2 ? t : v2;
                        t = a21 + w1; v2 = t < v2 ? t : v2;
                        t = a22 + w2; v2 = t < v2 ? t : v2;
                        t = a23 + w3; v2 = t < v2 ? t : v2;
                        t = a30 + w0; v3 = t < v3 ? t : v3;
                        t = a31 + w1; v3 = t < v3 ? t : v3;
                        t = a32 + w2; v3 = t < v3 ? t : v3;
                        t = a33 + w3; v3 = t < v3 ? t : v3;
                        c0r[j] = v0; c1r[j] = v1; c2r[j] = v2; c3r[j] = v3;
                    }
                }
                for (; k < k1; k++) {
                    float x0 = a0r[k], x1 = a1r[k], x2 = a2r[k], x3 = a3r[k];
                    if (isinf(x0) && isinf(x1) && isinf(x2) && isinf(x3))
                        continue;
                    const float *brow = b + k * bs + j0;
                    #pragma omp simd
                    for (i64 j = 0; j < len; j++) {
                        float w = brow[j];
                        float t;
                        t = x0 + w; c0r[j] = t < c0r[j] ? t : c0r[j];
                        t = x1 + w; c1r[j] = t < c1r[j] ? t : c1r[j];
                        t = x2 + w; c2r[j] = t < c2r[j] ? t : c2r[j];
                        t = x3 + w; c3r[j] = t < c3r[j] ? t : c3r[j];
                    }
                }
            }
            for (; i < bi; i++) {
                float *crow = c + i * cs + j0;
                const float *arow = a + i * as;
                for (i64 k = k0; k < k1; k++) {
                    float aik = arow[k];
                    if (isinf(aik)) continue;
                    const float *brow = b + k * bs + j0;
                    #pragma omp simd
                    for (i64 j = 0; j < len; j++) {
                        float cand = aik + brow[j];
                        crow[j] = cand < crow[j] ? cand : crow[j];
                    }
                }
            }
        }
    }
}
"""

_FW_INPLACE_SOURCE = r"""
/* Register-blocked stage-1 kernel: per pivot, 4 output rows share each
 * krow load and the inner loop vectorizes. Equivalent to n rank-1
 * min-updates on matrices with non-negative weights and a zero
 * diagonal (the library's distance domain): the pivot row never
 * changes at its own pivot, so fusing rows is bit-exact. */
void fw_inplace_f32(float *d, i64 n, i64 s)
{
    for (i64 k = 0; k < n; k++) {
        const float *krow = d + k * s;
        i64 i = 0;
        for (; i + 4 <= n; i += 4) {
            float *r0 = d + i * s, *r1 = r0 + s, *r2 = r1 + s, *r3 = r2 + s;
            float d0 = r0[k], d1 = r1[k], d2 = r2[k], d3 = r3[k];
            if (isinf(d0) && isinf(d1) && isinf(d2) && isinf(d3))
                continue;
            #pragma omp simd
            for (i64 j = 0; j < n; j++) {
                float kj = krow[j];
                float t;
                t = d0 + kj; r0[j] = t < r0[j] ? t : r0[j];
                t = d1 + kj; r1[j] = t < r1[j] ? t : r1[j];
                t = d2 + kj; r2[j] = t < r2[j] ? t : r2[j];
                t = d3 + kj; r3[j] = t < r3[j] ? t : r3[j];
            }
        }
        for (; i < n; i++) {
            float dik = d[i * s + k];
            if (isinf(dik)) continue;
            float *irow = d + i * s;
            #pragma omp simd
            for (i64 j = 0; j < n; j++) {
                float cand = dik + krow[j];
                irow[j] = cand < irow[j] ? cand : irow[j];
            }
        }
    }
}
"""

_NEAR_FAR_SOURCE = r"""
/* One batched Near-Far MSSP launch (the paper's Algorithm 2: one source
 * per block, per-block queues, a grid-wide split) over bat rows: the
 * whole loop of repro.sssp.near_far.near_far_batch, bit-identical to its
 * numpy loop once the Python side merges its records. Rows share only
 * the split, so within a split level each row runs all of its relax
 * rounds alone and stays in cache; round t of every row is batch
 * iteration t, and heavy edges are summed per round index.
 * A round relaxes the row's Near entries from their distances as of the
 * round's start (cur_d, numpy's snapshot); seen[] keeps the round's
 * improved list unique. A row's Far queue (far_v, with each distance in
 * far_d) is rescanned while the row is still in cache at the end of a
 * level that changed it: that drops the stale entries (numpy drops them
 * at the next refill; nothing touches the row in between), refreshes
 * far_d and finds the row's smallest Far distance (far_min), so the
 * next refill reads far_v and far_d in order, and a row with nothing
 * below the next split is not read at all. in_far[] marks every
 * position that ever entered Far; it is consulted only for distances at
 * or above the split, which a position that left Far never has again.
 * The sources start in Far at distance 0, so the first refill sets the
 * split to delta.
 * Each level is recorded: its split (lv_split), its round count
 * (lv_rounds) and each round's heavy edges (rd_heavy), every write
 * guarded by cap; the counts keep running past cap, so the caller can
 * rerun with room for all. A row waiting at Far distance d works at the
 * first split above d, which is its own (floor(d / delta) + 1) * delta
 * whatever the other rows' distances, unless floor(d / delta) * delta
 * rounds above d, or (floor(d / delta) + 1) * delta rounds to no more
 * than d and the split takes (floor(d / delta) + 2) * delta instead:
 * then stats[3] = 1, and merged row ranges may differ from one call
 * over all rows. Every queue append is guarded by its capacity; a
 * failed guard or a spent round or level budget leaves status
 * stats[4] = 1 or 2, and a split whose second step does not pass the
 * smallest Far distance either gives 3. stats[0..2]: relaxations,
 * levels, rounds. No a * b + c in the float path: it could be fused
 * into an FMA, which rounds differently. */
void near_far_f64(double *dist, const i64 *indptr, const i64 *indices,
                  const double *weights, const i64 *sources,
                  i64 n, i64 m, i64 bat, double delta, i64 heavy, i64 budget,
                  i64 *far_v, double *far_d, i64 *far_n, double *far_min,
                  int32_t *in_far,
                  i64 *cur_v, double *cur_d, i64 *imp_v, int32_t *seen,
                  i64 *round_hv, int32_t *round_ran,
                  i64 cap, double *lv_split, i64 *lv_rounds, i64 *rd_heavy,
                  i64 *stats)
{
    i64 relax = 0, nl = 0, nr = 0;
    int32_t rounded = 0;
    stats[4] = 1;
    if (n < 1) return;
    for (i64 r = 0; r < bat; r++) {
        i64 s = sources[r];
        dist[r * n + s] = 0;
        far_v[r * n] = s;
        far_d[r * n] = 0;
        far_n[r] = 1;
        far_min[r] = 0;
        in_far[r * n + s] = 1;
    }
    /* the smallest Far distance; each row folds in its own */
    int32_t found = 1;
    double min_far = 0;
    for (i64 level = 0; level < budget; level++) {
        if (found == 0) {
            stats[0] = relax;
            stats[1] = nl;
            stats[2] = nr;
            stats[3] = rounded;
            stats[4] = 0;
            return;
        }
        double next = (floor(min_far / delta) + 1) * delta;
        if (!(next > min_far)) {
            /* the split rounded onto min_far (8.1 at delta 0.1): take the
             * next one, and flag it, as a range's split then may differ
             * from the split of one call over all rows */
            next = (floor(min_far / delta) + 2) * delta;
            rounded = 1;
            if (!(next > min_far)) {
                stats[4] = 3;
                return;
            }
        }
        found = 0;
        for (i64 r = 0; r < bat; r++) {
            i64 fc = far_n[r];
            if (fc == 0) continue;
            if (far_min[r] >= next) {
                if (found == 0 || far_min[r] < min_far) min_far = far_min[r];
                found = 1;
                continue;
            }
            double *row = dist + r * n;
            i64 *frow = far_v + r * n;
            double *fdist = far_d + r * n;
            int32_t *fflag = in_far + r * n;
            /* refill: the entries below the new split move to Near */
            i64 keep = 0;
            i64 cn = 0;
            int32_t rfound = 0;
            double rmin = 0;
            for (i64 i = 0; i < fc; i++) {
                i64 v = frow[i];
                double d = fdist[i];
                if (d < next) {
                    if (cn < n) {
                        cur_v[cn] = v;
                        cur_d[cn] = d;
                        cn++;
                    } else return;
                    continue;
                }
                if (keep < n) {
                    frow[keep] = v;
                    fdist[keep] = d;
                    keep++;
                } else return;
                if (rfound == 0 || d < rmin) rmin = d;
                rfound = 1;
            }
            if (cn > 0) {
                for (i64 t = 0; t < n + 1; t++) {
                    if (cn == 0) break;
                    round_ran[t] = 1;
                    i64 nc = cn < n ? cn : n;
                    i64 ik = 0;
                    i64 hv = 0;
                    for (i64 i = 0; i < nc; i++) {
                        i64 v = cur_v[i];
                        double base = cur_d[i];
                        i64 lo = indptr[v];
                        i64 hi = indptr[v + 1];
                        relax += hi - lo;
                        if (hi - lo > heavy) hv += hi - lo;
                        for (i64 e = lo; e < hi; e++) {
                            i64 u = indices[e];
                            double cand = base + weights[e];
                            if (cand < row[u]) {
                                row[u] = cand;
                                if (seen[u] == 0) {
                                    seen[u] = 1;
                                    if (ik < n) {
                                        imp_v[ik] = u;
                                        ik++;
                                    } else return;
                                }
                            }
                        }
                    }
                    round_hv[t] += hv;
                    /* an improved entry joins Near if its distance after
                     * the whole round is below the split, else Far (once) */
                    cn = 0;
                    i64 ni = ik < n ? ik : n;
                    for (i64 i = 0; i < ni; i++) {
                        i64 u = imp_v[i];
                        double d = row[u];
                        seen[u] = 0;
                        if (d < next) {
                            if (cn < n) {
                                cur_v[cn] = u;
                                cur_d[cn] = d;
                                cn++;
                            } else return;
                        } else if (fflag[u] == 0) {
                            fflag[u] = 1;
                            if (keep < n) {
                                frow[keep] = u;
                                keep++;
                            } else return;
                        }
                    }
                }
                if (cn > 0) {
                    stats[4] = 2;
                    return;
                }
                /* the rounds moved Far distances: drop the entries now
                 * below the split, record the rest */
                i64 fk = keep < n ? keep : n;
                keep = 0;
                rfound = 0;
                for (i64 i = 0; i < fk; i++) {
                    i64 v = frow[i];
                    double d = row[v];
                    if (d < next) continue;
                    if (keep < n) {
                        frow[keep] = v;
                        fdist[keep] = d;
                        keep++;
                    } else return;
                    if (rfound == 0 || d < rmin) rmin = d;
                    rfound = 1;
                }
            }
            far_n[r] = keep < n ? keep : n;
            far_min[r] = rmin;
            if (rfound == 1) {
                if (floor(rmin / delta) * delta > rmin) rounded = 1;
                if (found == 0 || rmin < min_far) min_far = rmin;
                found = 1;
            }
        }
        /* round t of every row was batch iteration t */
        i64 rounds = 0;
        for (i64 t = 0; t < n + 1; t++) {
            if (round_ran[t] == 0) break;
            round_ran[t] = 0;
            if (nr < cap) rd_heavy[nr] = round_hv[t];
            nr++;
            round_hv[t] = 0;
            rounds++;
        }
        if (nl < cap) {
            lv_split[nl] = next;
            lv_rounds[nl] = rounds;
        }
        nl++;
    }
    stats[4] = 2;
}
"""

#: every C entry point, in translation-unit order, with its contract —
#: repro.verifykernel parses these sources and proves them safe
KERNEL_TEMPLATES: tuple[KernelTemplate, ...] = (
    KernelTemplate(
        name="mp_update_f32",
        source=_MP_FAST_SOURCE,
        arrays={
            "c": {"rows": "bi", "cols": "bj", "stride": "cs", "mode": "rw"},
            "a": {"rows": "bi", "cols": "bk", "stride": "as", "mode": "r"},
            "b": {"rows": "bk", "cols": "bj", "stride": "bs", "mode": "r"},
        },
        alias_class="disjoint",
    ),
    KernelTemplate(
        name="fw_inplace_f32",
        source=_FW_INPLACE_SOURCE,
        arrays={"d": {"rows": "n", "cols": "n", "stride": "s", "mode": "rw"}},
        alias_class="inplace-fw",
    ),
    KernelTemplate(
        name="near_far_f64",
        source=_NEAR_FAR_SOURCE,
        arrays={
            "dist": {"rows": "bat", "cols": "n", "stride": "n", "mode": "rw"},
            "indptr": {"len": "n + 1", "mode": "r", "values": "[0, m]"},
            "indices": {"len": "m", "mode": "r", "values": "[0, n)"},
            "weights": {"len": "m", "mode": "r"},
            "sources": {"len": "bat", "mode": "r", "values": "[0, n)"},
            "far_v": {"rows": "bat", "cols": "n", "stride": "n", "mode": "rw",
                      "values": "[0, n)"},
            "far_d": {"rows": "bat", "cols": "n", "stride": "n", "mode": "rw"},
            "far_n": {"len": "bat", "mode": "rw", "values": "[0, n]"},
            "far_min": {"len": "bat", "mode": "rw"},
            "in_far": {"rows": "bat", "cols": "n", "stride": "n", "mode": "rw"},
            "cur_v": {"len": "n", "mode": "rw", "values": "[0, n)"},
            "cur_d": {"len": "n", "mode": "rw"},
            "imp_v": {"len": "n", "mode": "rw", "values": "[0, n)"},
            "seen": {"len": "n", "mode": "rw"},
            "round_hv": {"len": "n + 1", "mode": "rw"},
            "round_ran": {"len": "n + 1", "mode": "rw"},
            "lv_split": {"len": "cap", "mode": "w"},
            "lv_rounds": {"len": "cap", "mode": "w"},
            "rd_heavy": {"len": "cap", "mode": "w"},
            "stats": {"len": "5", "mode": "w"},
        },
        alias_class="distinct",
    ),
)


def kernel_source(
    overrides: dict[str, str] | None = None,
    *,
    prelude: bool = True,
) -> str:
    """Assemble the C translation unit from the kernel templates.

    ``overrides`` substitutes individual kernel sources by name — the
    seeded-defect suite uses this to build intentionally broken variants
    without string-surgery on the whole unit.
    """
    parts = [_C_PRELUDE] if prelude else []
    for template in KERNEL_TEMPLATES:
        parts.append((overrides or {}).get(template.name, template.source))
    return "\n".join(parts)


#: assembled translation unit (kept for cache-key hashing)
_C_SOURCE = kernel_source()

#: flags of every plain build; the kernels' only OpenMP is ``#pragma omp
#: simd``, which ``-fopenmp-simd`` enables without the OpenMP runtime
_CFLAGS = ["-march=native", "-O3", "-funroll-loops", "-fopenmp-simd", "-shared", "-fPIC"]

#: the one retry when a compiler rejects the full set
_DEGRADED_CFLAGS = ["-O3", "-shared", "-fPIC"]

#: flag groups per sanitizer mode; the first flag is test-compiled
SANITIZER_FLAGS: dict[str, tuple[str, ...]] = {
    "asan": ("-fsanitize=address", "-fno-omit-frame-pointer", "-g"),
    "ubsan": ("-fsanitize=undefined", "-fno-sanitize-recover=all", "-g"),
}

#: runtime shared object to LD_PRELOAD per sanitizer mode
_SANITIZER_RUNTIMES = {
    "asan": "libasan.so",
    "ubsan": "libubsan.so",
}


@dataclass(frozen=True)
class CCBuildInfo:
    """What the compiled kernels were actually built with on this machine:
    the compiler and the flag set (:data:`_CFLAGS`, or the ``-O3``-only
    retry when the compiler rejected it)."""

    compiler: str
    flags: tuple[str, ...]


def cc_compiler() -> str | None:
    """Path of the first usable system C compiler, or ``None``."""
    override = os.environ.get("REPRO_CC")
    candidates = [override] if override else ["gcc", "cc", "clang"]
    for name in candidates:
        path = shutil.which(name)
        if path:
            return path
    return None


def sanitizer_runtime(mode: str, compiler: str | None = None) -> str | None:
    """Path of the sanitizer runtime to ``LD_PRELOAD``, or ``None``.

    Instrumented shared objects cannot be ``dlopen``-ed into an
    uninstrumented interpreter unless the runtime is already loaded;
    the harness preloads the library this resolves.
    """
    compiler = compiler or cc_compiler()
    if compiler is None:
        return None
    lib = _SANITIZER_RUNTIMES.get(mode)
    if lib is None:
        return None
    try:
        proc = subprocess.run(
            [compiler, f"-print-file-name={lib}"], capture_output=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    path = proc.stdout.decode().strip()
    if proc.returncode != 0 or os.sep not in path or not Path(path).exists():
        return None
    return path


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_JIT_CACHE")
    if root:
        return Path(root)
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(home) / "repro-jit"


def _sanitizer_works(compiler: str, mode: str) -> bool:
    """Test-compile a trivial TU with the mode's ``-fsanitize`` flag."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "probe.c"
        src.write_text("int repro_probe(void) { return 0; }\n")
        out = Path(tmp) / "probe.so"
        flag = SANITIZER_FLAGS[mode][0]
        try:
            proc = subprocess.run(
                [compiler, flag, "-shared", "-fPIC", "-o", str(out), str(src)],
                capture_output=True,
                timeout=60,
            )
        except (OSError, subprocess.SubprocessError):
            return False
    return proc.returncode == 0


def _resolve_flags(
    compiler: str, sanitize: str
) -> tuple[list[str], str | None, tuple[str, ...]]:
    """An instrumented build's ``(flags, sanitize, degraded)``.

    A sanitizer whose probe flag the compiler rejects degrades to the
    plain :data:`_CFLAGS`, recorded in ``degraded`` — never a hard failure.
    """
    if _sanitizer_works(compiler, sanitize):
        return [*SANITIZER_FLAGS[sanitize], *_CFLAGS], sanitize, ()
    return list(_CFLAGS), None, (f"sanitize:{sanitize}",)


@contextlib.contextmanager
def _build_lock(so_path: Path) -> Iterator[None]:
    """Exclusive advisory lock serialising compiles of one ``.so``.

    Parallel pytest workers (or any concurrent processes) that miss the
    cache simultaneously would otherwise all spawn compilers; the loser
    could also observe a half-written object were the publish not
    atomic. Belt and braces: the flock serialises builders (second one
    finds the published file and skips), and ``os.replace`` keeps the
    publish atomic for lock-less readers on platforms without fcntl.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        yield
        return
    lock_path = so_path.with_suffix(so_path.suffix + ".lock")
    with open(lock_path, "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def _checked_operand(arr: np.ndarray, dtype: type) -> int:
    """FFI operand guard: dtype + unit inner stride, returns row stride.

    Every ndarray handed to a C entry point by address passes through
    here first — the statically-evident contiguity/dtype guard the FFI
    lint (RPR009) requires at ``.ctypes.data`` call sites.
    """
    if arr.dtype != dtype:
        raise TypeError(
            f"compiled kernels need {np.dtype(dtype).name} operands, got {arr.dtype}"
        )
    if arr.strides[1] != arr.itemsize:
        raise ValueError("compiled kernels need unit stride along the last axis")
    return arr.strides[0] // arr.itemsize


class _CCKernels:
    """ctypes bindings to the compiled shared object.

    Every bound entry point declares ``argtypes``/``restype`` — the FFI
    contract lint (RPR008) holds this module to it.
    """

    def __init__(self, lib: ctypes.CDLL, build: CCBuildInfo) -> None:
        self.build = build
        self.mp_update = lib.mp_update_f32
        self.mp_update.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_longlong] * 7
        self.mp_update.restype = None
        self.fw_inplace = lib.fw_inplace_f32
        self.fw_inplace.argtypes = [ctypes.c_void_p] + [ctypes.c_longlong] * 2
        self.fw_inplace.restype = None
        # ndpointer arguments check dtype, rank and layout on every call
        i64, f64, i32 = np.int64, np.float64, np.int32
        out = ("C_CONTIGUOUS", "WRITEABLE")
        self.near_far = lib.near_far_f64
        self.near_far.argtypes = [
            _array_arg(f64, 2, out),
            *(_array_arg(t) for t in (i64, i64, f64, i64)),
            *[ctypes.c_longlong] * 3, ctypes.c_double, *[ctypes.c_longlong] * 2,
            _array_arg(i64, 2, out),
            _array_arg(f64, 2, out),
            _array_arg(i64, 1, out),
            _array_arg(f64, 1, out),
            _array_arg(i32, 2, out),
            *(_array_arg(t, 1, out) for t in (i64, f64, i64, i32, i64, i32)),
            ctypes.c_longlong,
            *(_array_arg(t, 1, out) for t in (f64, i64, i64, i64)),
        ]
        self.near_far.restype = None

    def update(self, c: np.ndarray, a: np.ndarray, b: np.ndarray, tile: int) -> None:
        """In-place ``C = min(C, A ⊗ B)`` on float32 operands with unit
        inner stride, ``C`` disjoint from ``A`` and ``B``."""
        self.mp_update(
            c.ctypes.data, a.ctypes.data, b.ctypes.data,
            c.shape[0], a.shape[1], c.shape[1],
            _checked_operand(c, np.float32),
            _checked_operand(a, np.float32),
            _checked_operand(b, np.float32),
            tile,
        )

    def fw_tile(self, dist: np.ndarray) -> None:
        """Floyd–Warshall closure of one square float32 tile, in place."""
        stride = _checked_operand(dist, np.float32)
        self.fw_inplace(dist.ctypes.data, dist.shape[0], stride)


def _array_arg(dtype: type, ndim: int = 1, flags: tuple[str, ...] = ("C_CONTIGUOUS",)):
    """ctypes argument type of a contiguous ndarray of ``dtype`` and rank ``ndim``."""
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=ndim, flags=flags)


#: the loaded kernels: ``None`` = untried, ``False`` = failed
_CC_KERNELS: "_CCKernels | bool | None" = None


def compile_cc_so(
    compiler: str,
    flags: list[str],
    *,
    source: str | None = None,
    cache_dir: Path | None = None,
) -> tuple[Path, CCBuildInfo]:
    """Compile the kernel TU into the cache; returns ``(path, build info)``.

    Publishing is atomic (``os.replace``) and compiles are serialised by
    an advisory file lock, so concurrent processes race neither on the
    compiler nor on a half-written object. Does **not** ``dlopen`` — the
    sanitizer harness compiles instrumented objects here and loads them
    only inside a runtime-preloaded subprocess.
    """
    src_text = source if source is not None else _C_SOURCE
    key = hashlib.sha256(
        (src_text + compiler + " ".join(flags)).encode()
    ).hexdigest()[:16]
    cache = cache_dir or _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    so_path = cache / f"minplus-{key}.so"
    if not so_path.exists():
        with _build_lock(so_path):
            if not so_path.exists():  # the lock's previous holder built it
                with tempfile.TemporaryDirectory(dir=cache) as tmp:
                    src = Path(tmp) / "minplus.c"
                    src.write_text(src_text)
                    out = Path(tmp) / "minplus.so"
                    proc = subprocess.run(
                        [compiler, *flags, "-o", str(out), str(src)],
                        capture_output=True,
                        timeout=120,
                    )
                    if proc.returncode != 0:
                        raise OSError(proc.stderr.decode(errors="replace")[:2000])
                    os.replace(out, so_path)  # atomic publish into the cache
    return so_path, CCBuildInfo(compiler=compiler, flags=tuple(flags))


def _compile_and_load(compiler: str, flags: list[str]) -> _CCKernels:
    so_path, build = compile_cc_so(compiler, flags)
    return _CCKernels(ctypes.CDLL(str(so_path)), build)


def load_cc_kernels() -> _CCKernels | None:
    """Compile (once, cached on disk) and load the C kernels.

    Returns ``None`` when no compiler is present or both compile
    attempts (:data:`_CFLAGS`, then the ``-O3``-only set) fail with an
    ``OSError`` or a ``SubprocessError`` — callers degrade to the numpy
    fallback; any other error propagates. The result, kernels or
    failure, is cached for the process.
    """
    global _CC_KERNELS
    if _CC_KERNELS is not None:
        return _CC_KERNELS or None
    compiler = cc_compiler()
    kernels = None
    if compiler is not None:
        for flags in (_CFLAGS, _DEGRADED_CFLAGS):
            try:
                kernels = _compile_and_load(compiler, list(flags))
                break
            except (OSError, subprocess.SubprocessError):
                continue
    _CC_KERNELS = kernels or False
    return kernels


def compiled_kernels() -> _CCKernels | None:
    """The compiled kernels, or ``None`` when ``REPRO_JIT=off`` (or ``0``/
    ``no``) turns them off or none load: the one switch between the
    compiled and the numpy min-plus, FW and Near-Far kernels."""
    if os.environ.get("REPRO_JIT", "").lower() in ("off", "0", "no"):
        return None
    return load_cc_kernels()


def cc_build_info() -> CCBuildInfo | None:
    """Build provenance of the loaded cc kernels (``None`` if unavailable)."""
    kernels = load_cc_kernels()
    return kernels.build if kernels else None
