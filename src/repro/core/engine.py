"""The kernel engine: the compiled-or-numpy switch, coercion, and the split across cores.

Every numeric hot path in the repository — blocked FW stages 1–3, the
boundary algorithm's ``dist4`` chain, in-core FW, dynamic patches —
funnels through a :class:`KernelEngine`. It runs the compiled C kernels
when :func:`~repro.core.backends.jit.compiled_kernels` returns them, and
the numpy kernels (:func:`~repro.core.backends.base.rank1_update`,
:func:`~repro.core.backends.base.numpy_fw_inplace`) under
``REPRO_JIT=off`` or without a C compiler; batched Near-Far asks the
same switch. The engine guards the kernels' operand contract:

* operands are coerced to C-layout :data:`~repro.core.minplus.DIST_DTYPE`
  (a Fortran-ordered or float64 tile can no longer silently take a slow
  broadcast path or change the result dtype);
* non-``DIST_DTYPE`` accumulators keep the generic numpy path,
  preserving exact legacy semantics for float64 callers;
* the output array is updated strictly in place, whatever its layout;
* the output never shares memory with an input: :meth:`KernelEngine.update`
  rejects overlapping operands, so no kernel needs an aliased path.

One rule spreads a product across cores (:func:`panel_count`): a product
of fewer than :data:`SPLIT_WORK` ``rows × depth × cols`` steps is one
kernel call, and a larger one is split into disjoint row panels of
``C`` (with the matching rows of ``A`` and all of ``B``), one per worker
of :func:`shared_executor`, whose workers are each bound to one CPU.
Rows, not columns: the compiled kernel walks ``C`` in column panels of
up to 128, and a column split would narrow them (the 228- and 229-wide
halves of a 457-wide product would each run as 128 + 100 or 101). The
compiled kernels release the GIL, and a disjoint split leaves every
element's candidate set unchanged, so the result is bit-identical
either way. This is blocked FW's own parallel unit: phase-3 updates
write disjoint outputs.

The same pool runs batched Near-Far across cores (:func:`range_count`):
a compiled batch of at least :data:`NEAR_FAR_SPLIT_WORK` ``rows × edges``
is split into contiguous row ranges, one per CPU
(:func:`repro.sssp.near_far.near_far_batch`), the paper's own parallel
unit of one SSSP instance per thread block. Pool workers run all but
the first range, and the caller runs the first, bound for that call to
a CPU none of those workers is bound to (:func:`bound_apart`).

:meth:`KernelEngine.fw_inplace` closes matrices up to
:data:`FW_CLOSURE_BLOCK` with the tile kernel and larger ones with the
blocked closure (:func:`~repro.core.blocked_fw.blocked_floyd_warshall`),
which runs on the same disjoint ``update``.

Drivers take an explicit ``engine=``; without one they use
:func:`default_engine`, which follows ``REPRO_JIT``. Run
``python -m repro bench-kernels`` for the full wall-clock sweep (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro.core.backends.base import numpy_fw_inplace, rank1_update
from repro.core.backends.jit import compiled_kernels
from repro.core.blocked_fw import blocked_floyd_warshall
from repro.core.minplus import DIST_DTYPE

__all__ = [
    "KernelEngine",
    "bound_apart",
    "default_engine",
    "default_workers",
    "panel_count",
    "range_count",
    "reset_default_engine",
    "shared_executor",
    "worker_cpu",
]

#: smallest product (``rows × depth × cols``) :meth:`KernelEngine.update`
#: splits across workers. Measured on 2 cores (``docs/PERFORMANCE.md``):
#: a two-panel row split loses up to 15.2M (800×8×800, 256×256×232),
#: ties at 16.8M and 24.0M (256³, 306×256×306) and wins from 30.4M
#: (258×457×258); so fw-rmat's 457-wide products split and every smaller
#: product is one serial call
SPLIT_WORK = 27_000_000

#: smallest batched Near-Far launch (``rows × edges``)
#: :func:`repro.sssp.near_far.near_far_batch` splits into row ranges, one
#: per CPU. Measured on 2 cores in two sweeps (``docs/PERFORMANCE.md``):
#: two ranges lose on every graph below 50k (up to 3× slower), tie or
#: lose on the rmat graphs up to 95k, and win on all four graphs
#: measured from 200k (0.52–0.76× the one-call time)
NEAR_FAR_SPLIT_WORK = 200_000

#: largest matrix :meth:`KernelEngine.fw_inplace` closes with the tile
#: kernel; larger ones run the blocked closure with this block edge
FW_CLOSURE_BLOCK = 256

_EXECUTOR: ThreadPoolExecutor | None = None
_EXECUTOR_WORKERS = 0
_LOCK = threading.Lock()
#: per pool thread, the CPU :func:`_bind_worker` bound it to
_WORKER = threading.local()


def default_workers() -> int:
    """Worker count: the CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _bind_worker(cpus: list[int], started: itertools.count) -> None:
    """Pool-thread initializer: bind the new thread to the next CPU of
    ``cpus`` (none given: leave it unbound)."""
    if not cpus:  # pragma: no cover - no affinity API on this OS
        return
    cpu = cpus[next(started) % len(cpus)]
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # pragma: no cover - the mask shrank since the pool was built
        return
    _WORKER.cpu = cpu


def worker_cpu() -> int | None:
    """The CPU the calling pool worker is bound to; ``None`` on any other
    thread, or where the worker could not be bound."""
    return getattr(_WORKER, "cpu", None)


@contextlib.contextmanager
def bound_apart(taken: set[int | None]) -> Iterator[None]:
    """Bind the calling thread, for the block, to the first CPU of its
    affinity mask not in ``taken`` (the CPUs of pool workers computing
    beside it); restore its mask after.

    Unbound, a caller that computes beside a bound worker can share that
    worker's CPU while another CPU idles, and the two parts then run one
    after the other: the scheduler seldom moves a running thread
    (``docs/PERFORMANCE.md``). Nothing is bound when ``taken`` holds no
    CPU, or every CPU of the mask.
    """
    busy = {cpu for cpu in taken if cpu is not None}
    own = os.sched_getaffinity(0) if busy else set()
    free = sorted(own - busy)
    if not free:
        yield
        return
    os.sched_setaffinity(0, {free[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


def shared_executor(workers: int) -> ThreadPoolExecutor:
    """Process-wide kernel thread pool, grown on demand, never shrunk.

    Worker ``i`` is bound to the ``i``-th CPU of the process's affinity
    mask (round robin past its end). Unbound, the OS may run both panels
    of a split on one core for seconds while the other idles, which
    turns the split into a slowdown on some runs and a speedup on others
    (``docs/PERFORMANCE.md``).
    """
    global _EXECUTOR, _EXECUTOR_WORKERS
    with _LOCK:
        if _EXECUTOR is None or workers > _EXECUTOR_WORKERS:
            if _EXECUTOR is not None:
                _EXECUTOR.shutdown(wait=False)
            cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="repro-kernel",
                initializer=_bind_worker,
                initargs=(cpus, itertools.count()),
            )
            _EXECUTOR_WORKERS = workers
        return _EXECUTOR


def panel_count(rows: int, depth: int, cols: int) -> int:
    """Row panels :meth:`KernelEngine.update` splits a product into: one
    below :data:`SPLIT_WORK`, else one per worker (at most one per row of
    ``C``)."""
    if rows * depth * cols < SPLIT_WORK:
        return 1
    return max(1, min(default_workers(), rows))


def range_count(rows: int, edges: int) -> int:
    """Row ranges :func:`~repro.sssp.near_far.near_far_batch` splits a
    batch of ``rows`` sources over a graph of ``edges`` edges into: one
    below :data:`NEAR_FAR_SPLIT_WORK`, else one per CPU of the affinity
    mask (at most one per row)."""
    if rows * edges < NEAR_FAR_SPLIT_WORK:
        return 1
    return max(1, min(default_workers(), rows))


class KernelEngine:
    """The min-plus/FW tile kernels — compiled when
    :func:`~repro.core.backends.jit.compiled_kernels` returns them at
    construction, else numpy — plus the operand-contract guard rails and
    the split of large products across cores. ``tile`` is the compiled
    min-plus kernel's column tile."""

    def __init__(self, *, tile: int = 256) -> None:
        self.tile = tile
        #: always ``None``: no persisted winner is read (kept for readers
        #: of the attribute)
        self.tuned: dict | None = None
        self._cc = compiled_kernels()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def flavor(self) -> str:
        """The kernels in use: ``cc`` (compiled) or ``numpy``."""
        return "cc" if self._cc is not None else "numpy"

    def describe(self) -> str:
        """The kernels in use, for CLI output and run statistics."""
        return self.flavor

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
            self._product(packed, a, b)
            c[...] = packed
            return c
        self._product(c, a, b)
        return c

    def _serial(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """One kernel call on contract-conforming float32 operands."""
        if self._cc is not None:
            self._cc.update(c, a, b, self.tile)
        else:
            rank1_update(c, a, b)

    def _product(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """One kernel call, or :func:`panel_count` disjoint row panels on
        the shared pool, each one kernel call on ``C[lo:hi]``,
        ``A[lo:hi]`` and all of ``B``. Every panel is joined before any
        panel's exception propagates, so no worker is still writing ``C``
        when the caller sees the error."""
        panels = panel_count(a.shape[0], a.shape[1], c.shape[1])
        if panels < 2:
            self._serial(c, a, b)
            return
        bounds = np.linspace(0, c.shape[0], panels + 1, dtype=int)
        ex = shared_executor(panels)
        futures = [
            ex.submit(self._serial, c[lo:hi], a[lo:hi], b)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        wait(futures)
        for fut in futures:
            fut.result()  # re-raise the first failed panel's exception

    def fw_inplace(self, dist: np.ndarray) -> np.ndarray:
        """Floyd–Warshall closure of a square matrix, in place.

        Matrices larger than :data:`FW_CLOSURE_BLOCK` run the blocked
        closure on this engine; smaller ones the tile kernel.
        """
        n = dist.shape[0]
        if dist.shape != (n, n):
            raise ValueError("dist must be square")
        if n > FW_CLOSURE_BLOCK:
            return blocked_floyd_warshall(dist, FW_CLOSURE_BLOCK, engine=self)
        if n == 0:
            return dist
        if self._cc is None or dist.dtype != DIST_DTYPE or dist.strides[-1] != dist.itemsize:
            return numpy_fw_inplace(dist)
        self._cc.fw_tile(dist)
        return dist

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


def default_engine() -> KernelEngine:
    """The lazily created process-wide engine, rebuilt whenever
    :func:`~repro.core.backends.jit.compiled_kernels` answers otherwise
    (``REPRO_JIT`` changed since), so it runs the kernels the switch names."""
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT._cc is not compiled_kernels():
        _DEFAULT = KernelEngine()
    return _DEFAULT


def reset_default_engine() -> None:
    """Drop the cached default engine (next use re-resolves it)."""
    global _DEFAULT
    _DEFAULT = None
