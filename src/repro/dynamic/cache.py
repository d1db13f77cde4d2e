"""Content-hash keyed distance-closure cache with incremental revalidation.

A solved closure is expensive; a :class:`DistanceCache` keys each one by
its graph's content hash (:func:`repro.faults.checkpoint.graph_fingerprint`,
which the caller computes once and holds) in a per-fingerprint
:class:`~repro.faults.checkpoint.CheckpointStore` subdirectory. A graph
mutation rotates the fingerprint, so stale entries can never be served
for the wrong graph — the store's own ``bind`` validation refuses a
directory written for a different fingerprint.

Instead of discarding the old entry on mutation, :meth:`revalidate`
*patches* it through :class:`~repro.dynamic.patch.DynamicAPSP` and
re-files the result under the new fingerprint — an ``O(n²)`` transfer
instead of an ``O(n³)`` re-solve, bit-identical for integer weights.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.engine import DIST_DTYPE, KernelEngine
from repro.dynamic.patch import DynamicAPSP, EdgeUpdate, UpdateResult
from repro.faults.checkpoint import CheckpointError, CheckpointStore
from repro.gpu.device import DeviceSpec
from repro.graphs.csr import CSRGraph

__all__ = ["DistanceCache"]

_ALGORITHM = "dynamic-dist"


class DistanceCache:
    """Directory of solved distance closures, keyed by graph content hash."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def _subdir(self, fingerprint: str) -> Path:
        return self.directory / fingerprint[:16]

    def _store(self, fingerprint: str) -> CheckpointStore:
        store = CheckpointStore(self._subdir(fingerprint))
        store.bind(algorithm=_ALGORITHM, fingerprint=fingerprint)
        return store

    def store(self, fingerprint: str, dist: np.ndarray) -> Path:
        """File ``dist`` as the closure of the graph with ``fingerprint``."""
        dist = np.ascontiguousarray(dist, dtype=DIST_DTYPE)
        return self._store(fingerprint).save("dist", dist=dist)

    def has(self, fingerprint: str) -> bool:
        """Whether a closure is filed under ``fingerprint``, without
        reading it. A foreign entry raises like :meth:`lookup`."""
        return self._subdir(fingerprint).exists() and self._store(fingerprint).has("dist")

    def lookup(self, fingerprint: str) -> np.ndarray | None:
        """The closure filed under ``fingerprint``, or ``None``.

        Raises :class:`~repro.faults.checkpoint.CheckpointError` if the
        entry's metadata names a different graph or algorithm (a stale or
        foreign checkpoint is refused, never returned).
        """
        if not self._subdir(fingerprint).exists():
            return None
        data = self._store(fingerprint).load("dist")
        return None if data is None else np.ascontiguousarray(data["dist"], dtype=DIST_DTYPE)

    def revalidate(
        self,
        graph: CSRGraph,
        fingerprint: str,
        updates: Sequence[EdgeUpdate],
        *,
        spec: DeviceSpec,
        engine: KernelEngine | None = None,
        block_size: int | None = None,
    ) -> tuple[CSRGraph, np.ndarray, UpdateResult]:
        """Patch the cached closure of ``graph`` (filed under its
        ``fingerprint``) under ``updates``, its passes on a ``spec``
        device, and re-file it under the mutated graph's fingerprint.

        Loads the closure once. Returns ``(new_graph, new_dist, result)``.
        Raises :class:`~repro.faults.checkpoint.CheckpointError` when no
        entry exists — revalidation never solves from scratch — and
        ``ValueError`` when ``fingerprint`` is not ``graph``'s.
        """
        dist = self.lookup(fingerprint)
        if dist is None:
            raise CheckpointError(
                f"no cached closure to revalidate for graph {fingerprint[:12]}",
                path=self.directory,
            )
        apsp = DynamicAPSP(graph, dist, spec=spec, engine=engine, block_size=block_size)
        result = apsp.apply(updates)
        if result.old_fingerprint != fingerprint:
            raise ValueError("fingerprint does not name the graph being revalidated")
        self.store(result.new_fingerprint, apsp.dist)
        return apsp.graph, apsp.dist, result
