"""Thread-pool backend: fan independent column panels across workers.

numpy's ufunc loops and the ctypes JIT kernels all release the GIL,
so slicing ``C`` (and the matching columns of ``B``) into disjoint column
panels and updating each on its own thread scales the single-product
min-plus across cores. Every caller — the out-of-core drivers and the
blocked FW closure alike — runs one update at a time and gets its
parallelism from this split.

Panels are views, not copies — every inner backend accepts arbitrary row
strides — and each worker writes a disjoint slice of ``C``, so no
synchronisation beyond the final join is needed. That holds because
``C`` never shares memory with ``A`` or ``B``: the engine rejects
overlapping operands. A disjoint panel split does not change any
per-element candidate set, so the results are bit-identical to the
serial inner backend.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.backends.base import KernelBackend
from repro.core.backends.jit import JITBackend

__all__ = ["ThreadedBackend", "default_workers", "shared_executor"]

_EXECUTOR: ThreadPoolExecutor | None = None
_EXECUTOR_WORKERS = 0
_LOCK = threading.Lock()


def default_workers() -> int:
    """Worker count: ``REPRO_KERNEL_WORKERS`` or the usable CPU count."""
    env = os.environ.get("REPRO_KERNEL_WORKERS")
    if env:
        return max(1, int(env))
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def shared_executor(workers: int) -> ThreadPoolExecutor:
    """Process-wide kernel thread pool, grown on demand, never shrunk."""
    global _EXECUTOR, _EXECUTOR_WORKERS
    with _LOCK:
        if _EXECUTOR is None or workers > _EXECUTOR_WORKERS:
            if _EXECUTOR is not None:
                _EXECUTOR.shutdown(wait=False)
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-kernel"
            )
            _EXECUTOR_WORKERS = workers
        return _EXECUTOR


class ThreadedBackend(KernelBackend):
    """Column-panel fan-out of an inner backend across a thread pool."""

    name = "threaded"
    summary = "thread-pool column panels over the best serial backend"

    #: panels narrower than this run serially (thread overhead dominates)
    MIN_PANEL = 64

    def __init__(
        self, inner: KernelBackend | None = None, workers: int | None = None
    ) -> None:
        self.inner = inner if inner is not None else JITBackend()
        self.workers = workers if workers is not None else default_workers()

    @property
    def flavor(self) -> str:
        """``threaded(<inner flavor>)×<workers>``."""
        return f"threaded({self.inner.flavor})x{self.workers}"

    def update(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """In-place ``C = min(C, A ⊗ B)``, column panels across workers."""
        bj = c.shape[1]
        panels = min(self.workers, max(1, bj // self.MIN_PANEL))
        if panels < 2:
            return self.inner.update(c, a, b)
        bounds = np.linspace(0, bj, panels + 1, dtype=int)
        ex = shared_executor(self.workers)
        futures = [
            ex.submit(self.inner.update, c[:, lo:hi], a, b[:, lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        for fut in futures:
            fut.result()  # re-raise worker exceptions
        return c

    def fw_inplace(self, dist: np.ndarray) -> np.ndarray:
        """FW has a loop-carried pivot dependency — run the inner serially."""
        return self.inner.fw_inplace(dist)
