"""The kernel engine: backend selection, coercion, and calibration.

Every numeric hot path in the repository — blocked FW stages 1–3, the
boundary algorithm's ``dist4`` chain, in-core FW, dynamic patches —
funnels through a :class:`KernelEngine`, which owns one
:class:`~repro.core.backends.base.KernelBackend` and guards its operand
contract:

* operands are coerced to C-layout :data:`~repro.core.minplus.DIST_DTYPE`
  (a Fortran-ordered or float64 tile can no longer silently take a slow
  broadcast path or change the result dtype);
* non-``DIST_DTYPE`` accumulators keep the generic numpy reference path,
  preserving exact legacy semantics for float64 callers;
* the output array is updated strictly in place, whatever its layout;
* the output never shares memory with an input: :meth:`KernelEngine.update`
  rejects overlapping operands, so no backend needs an aliased path.

:meth:`KernelEngine.fw_inplace` closes matrices up to
:data:`FW_CLOSURE_BLOCK` with the backend's tile kernel and larger ones
with the blocked closure
(:func:`~repro.core.blocked_fw.blocked_floyd_warshall`), which runs on
the same disjoint ``update``.

Selection order:

1. an explicit ``engine=`` argument on any driver / ``KernelEngine(name)``;
2. the ``REPRO_KERNEL_BACKEND`` environment variable
   (``reference | jit | threaded | auto``);
3. ``auto`` — first, the **autotuned winner** persisted for this machine's
   fingerprint in ``BENCH_kernels.json`` (``python -m repro tune-kernels``;
   no re-sweeping at startup) when its flavor still materialises;
4. otherwise micro-calibrate at first use: time every registered backend
   on one small product and keep the fastest.

Run ``python -m repro bench-kernels`` for the full wall-clock sweep and
``python -m repro tune-kernels`` for the machine-keyed config search (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.backends import KernelBackend, backend_names, create_backend
from repro.core.backends.base import numpy_fw_inplace, rank1_update
from repro.core.blocked_fw import blocked_floyd_warshall
from repro.core.minplus import DIST_DTYPE

__all__ = [
    "CalibrationResult",
    "KernelEngine",
    "calibrate",
    "default_engine",
    "reset_default_engine",
    "set_default_backend",
]

#: environment variable naming the backend (or ``auto``)
ENV_BACKEND = "REPRO_KERNEL_BACKEND"

#: problem shape used for first-use micro-calibration (kept small: the
#: whole sweep costs about 10 ms, amortised over a full run)
CALIBRATION_SHAPE = (192, 192, 192)

#: largest matrix :meth:`KernelEngine.fw_inplace` closes with the tile
#: kernel; larger ones run the blocked closure with this block edge
FW_CLOSURE_BLOCK = 256


@dataclass
class CalibrationResult:
    """Timings of one micro-calibration sweep."""

    shape: tuple[int, int, int]
    rows: list[dict] = field(default_factory=list)

    @property
    def best(self) -> str:
        """Name of the fastest backend in the sweep."""
        return min(self.rows, key=lambda r: r["seconds"])["backend"]

    def add(self, backend: str, flavor: str, seconds: float) -> None:
        """Record one backend's timing."""
        bi, bk, bj = self.shape
        self.rows.append(
            {
                "backend": backend,
                "flavor": flavor,
                "seconds": seconds,
                "gops": 2 * bi * bk * bj / seconds / 1e9 if seconds > 0 else 0.0,
            }
        )


def calibrate(
    shape: tuple[int, int, int] = CALIBRATION_SHAPE, seed: int = 0
) -> CalibrationResult:
    """Time every registered backend on one random product.

    Each backend gets a tiny warm-up first so one-time costs (numba/C
    compilation, thread-pool spin-up) don't pollute the measurement.
    """
    bi, bk, bj = shape
    rng = np.random.default_rng(seed)
    a = (rng.random((bi, bk), dtype=DIST_DTYPE) * 100).astype(DIST_DTYPE)
    b = (rng.random((bk, bj), dtype=DIST_DTYPE) * 100).astype(DIST_DTYPE)
    wa, wb = a[:32, :32].copy(), b[:32, :32].copy()
    result = CalibrationResult(shape)
    for name in backend_names():
        backend = create_backend(name)
        backend.update(np.full((32, 32), np.inf, dtype=DIST_DTYPE), wa, wb)
        c = np.full((bi, bj), np.inf, dtype=DIST_DTYPE)
        t0 = perf_counter()
        backend.update(c, a, b)
        result.add(name, backend.flavor, perf_counter() - t0)
    return result


class KernelEngine:
    """One configured kernel backend plus the operand-contract guard rails."""

    def __init__(self, backend: str | KernelBackend | None = None, **options) -> None:
        self.calibration: CalibrationResult | None = None
        self.tuned: dict | None = None
        if backend is None:
            backend = os.environ.get(ENV_BACKEND, "auto")
        if isinstance(backend, KernelBackend):
            self.backend = backend
        elif backend == "auto":
            tuned = self._tuned_backend(options)
            if tuned is not None:
                self.backend = tuned
            else:
                self.calibration = calibrate()
                self.backend = create_backend(self.calibration.best, **options)
        else:
            if backend not in backend_names():
                raise ValueError(
                    f"unknown kernel backend {backend!r}; "
                    f"choose from {backend_names() + ('auto',)}"
                )
            self.backend = create_backend(backend, **options)

    def _tuned_backend(self, options: dict) -> KernelBackend | None:
        """Materialise the autotuned winner persisted for this machine.

        Lazy-imports the bench layer (it depends on this module), and
        validates that the winner's recorded flavor still comes up — a
        stale winner (compiler gone, numba removed) is discarded rather
        than silently running the fallback flavor, sending ``auto`` back
        to live micro-calibration. Caller-supplied ``options`` override
        the persisted ones. A winner the registry no longer accepts (an
        option the backend dropped: ``TypeError``; an unknown backend
        name: ``ValueError``) is stale in the same way; any other error
        propagates.
        """
        from repro.bench.kernels import load_tuned_winner

        winner = load_tuned_winner()
        if winner is None:
            return None
        try:
            merged = {**(winner.get("options") or {}), **options}
            backend = create_backend(winner["backend"], **merged)
        except (TypeError, ValueError):
            return None
        expect = winner.get("flavor")
        if expect and getattr(backend, "flavor", backend.name) != expect:
            return None
        self.tuned = winner
        return backend

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Registry name of the active backend."""
        return self.backend.name

    @property
    def flavor(self) -> str:
        """Concrete implementation in use (e.g. ``cc`` inside ``jit``)."""
        return self.backend.flavor

    def describe(self) -> str:
        """Human-readable ``name (flavor)`` string for CLI output."""
        return self.name if self.flavor == self.name else f"{self.name} ({self.flavor})"

    # ------------------------------------------------------------------
    # Operand coercion
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(arr: np.ndarray, dtype) -> np.ndarray:
        """Return ``arr`` as ``dtype`` with unit stride on the last axis.

        Views that already satisfy the contract (any row stride, contiguous
        rows) pass through untouched; Fortran-ordered or wrong-dtype tiles
        are copied once — cheap next to the O(n³) product they feed.
        """
        if arr.dtype != dtype or arr.strides[-1] != arr.itemsize:
            return np.ascontiguousarray(arr, dtype=dtype)
        return arr

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def update(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """In-place ``C = min(C, A ⊗ B)``; returns ``C``.

        ``C`` must not share memory with ``A`` or ``B`` (``ValueError``).
        The bounds pre-check is cheap but true for any two tile views of
        one matrix; the exact test then decides.
        """
        if c.shape != (a.shape[0], b.shape[1]) or a.shape[1] != b.shape[0]:
            raise ValueError(
                f"incompatible shapes C{c.shape} = A{a.shape} ⊗ B{b.shape}"
            )
        for operand in (a, b):
            if np.may_share_memory(c, operand) and np.shares_memory(c, operand):
                raise ValueError(
                    "C shares memory with A or B; min-plus operands must be disjoint"
                )
        if c.size == 0 or a.shape[1] == 0:
            return c
        if c.dtype != DIST_DTYPE:
            # generic-dtype path: keep legacy numpy semantics exactly,
            # but still pin A/B to C's dtype so nothing upcasts mid-flight
            return rank1_update(c, self._coerce(a, c.dtype), self._coerce(b, c.dtype))
        a = self._coerce(a, DIST_DTYPE)
        b = self._coerce(b, DIST_DTYPE)
        if c.strides[-1] != c.itemsize:
            # e.g. a transposed view: update a packed copy, write back in place
            packed = np.ascontiguousarray(c)
            self.backend.update(packed, a, b)
            c[...] = packed
            return c
        self.backend.update(c, a, b)
        return c

    def fw_inplace(self, dist: np.ndarray) -> np.ndarray:
        """Floyd–Warshall closure of a square matrix, in place.

        Matrices larger than :data:`FW_CLOSURE_BLOCK` run the blocked
        closure on this engine; smaller ones the backend's tile kernel.
        """
        n = dist.shape[0]
        if dist.shape != (n, n):
            raise ValueError("dist must be square")
        if n > FW_CLOSURE_BLOCK:
            return blocked_floyd_warshall(dist, FW_CLOSURE_BLOCK, engine=self)
        if n == 0:
            return dist
        if dist.dtype != DIST_DTYPE or dist.strides[-1] != dist.itemsize:
            return numpy_fw_inplace(dist)
        return self.backend.fw_inplace(dist)

    def update_i32(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact int32 semiring update (``INT32_INF`` sentinel, saturating).

        Opt-in reduced-precision entry point: callers hold int32 distance
        matrices explicitly; the float32 paths are untouched.
        """
        if c.shape != (a.shape[0], b.shape[1]) or a.shape[1] != b.shape[0]:
            raise ValueError(
                f"incompatible shapes C{c.shape} = A{a.shape} ⊗ B{b.shape}"
            )
        if c.size == 0 or a.shape[1] == 0:
            return c
        a = self._coerce(a, np.int32)
        b = self._coerce(b, np.int32)
        if c.dtype != np.int32 or c.strides[-1] != c.itemsize:
            packed = np.ascontiguousarray(c, dtype=np.int32)
            self.backend.update_i32(packed, a, b)
            c[...] = packed
            return c
        self.backend.update_i32(c, a, b)
        return c

    def minplus(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fresh min-plus product ``A ⊗ B`` (no accumulation)."""
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"incompatible shapes {a.shape} ⊗ {b.shape}")
        out = np.full(
            (a.shape[0], b.shape[1]), np.inf, dtype=np.result_type(a, b)
        )
        return self.update(out, a, b)


# ----------------------------------------------------------------------
# Process-wide default engine
# ----------------------------------------------------------------------
_DEFAULT: KernelEngine | None = None
_DEFAULT_KEY: str | None = None
_PINNED = "<pinned>"


def default_engine() -> KernelEngine:
    """The lazily created process-wide engine.

    Tracks ``REPRO_KERNEL_BACKEND`` (re-resolving if it changes between
    calls) unless :func:`set_default_backend` pinned an explicit choice.
    """
    global _DEFAULT, _DEFAULT_KEY
    key = os.environ.get(ENV_BACKEND, "auto")
    if _DEFAULT is None or (_DEFAULT_KEY != _PINNED and key != _DEFAULT_KEY):
        _DEFAULT = KernelEngine(key)
        _DEFAULT_KEY = key
    return _DEFAULT


def set_default_backend(backend: str | KernelBackend | KernelEngine) -> KernelEngine:
    """Pin the process-wide default engine to ``backend``; returns it."""
    global _DEFAULT, _DEFAULT_KEY
    _DEFAULT = backend if isinstance(backend, KernelEngine) else KernelEngine(backend)
    _DEFAULT_KEY = _PINNED
    return _DEFAULT


def reset_default_engine() -> None:
    """Drop the cached default engine (next use re-resolves/re-calibrates)."""
    global _DEFAULT, _DEFAULT_KEY
    _DEFAULT = None
    _DEFAULT_KEY = None
