"""LRU closure cache for the serving layer.

:class:`ClosureCache` wraps :class:`repro.dynamic.cache.DistanceCache`
(fingerprint-keyed, :class:`~repro.faults.checkpoint.CheckpointStore`-backed
closures on disk) with a RAM residency tier under a hard ``memory_budget``:
closures promoted into RAM serve queries without touching disk, and LRU
eviction drops residency — never the durable disk copy — once the budget
is exceeded.

Invalidation is structural: entries are keyed by graph *content*
fingerprint, so after a mutation the new fingerprint simply misses and the
stale closure can never be served (the store's own ``bind`` refuses a
directory written for a different fingerprint — see
:meth:`~repro.faults.checkpoint.CheckpointStore.bind`). Instead of
discarding the old entry, :meth:`revalidate` patches it forward through
:class:`~repro.dynamic.patch.DynamicAPSP` (``O(n²)`` instead of ``O(n³)``)
and files the result under the mutated graph's fingerprint — the ROADMAP
item-3 "wire the cache into the service layer" remainder.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.engine import DIST_DTYPE
from repro.dynamic.cache import DistanceCache
from repro.dynamic.patch import EdgeUpdate, UpdateResult
from repro.graphs.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import DeviceSpec

__all__ = ["CacheStats", "ClosureCache"]

#: default RAM residency budget for cached closures
DEFAULT_MEMORY_BUDGET = 8 * 1024 * 1024


@dataclass
class CacheStats:
    """Counters of every way a lookup or revalidation can go."""

    #: lookups answered from the RAM tier
    ram_hits: int = 0
    #: lookups answered from disk (and promoted into RAM)
    disk_hits: int = 0
    #: lookups with no entry for the fingerprint
    misses: int = 0
    #: closures filed (stores + successful revalidations)
    stores: int = 0
    #: RAM residencies dropped by the LRU budget
    evictions: int = 0
    #: mutations patched forward from a cached closure
    revalidate_hits: int = 0
    #: mutations with no cached closure to patch (nothing to do)
    revalidate_misses: int = 0

    @property
    def hits(self) -> int:
        return self.ram_hits + self.disk_hits

    def to_dict(self) -> dict:
        return {
            "ram_hits": self.ram_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "revalidate_hits": self.revalidate_hits,
            "revalidate_misses": self.revalidate_misses,
        }


@dataclass
class _Resident:
    dist: np.ndarray
    nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.nbytes = int(self.dist.nbytes)


class ClosureCache:
    """Solved-closure cache: durable disk tier + budgeted RAM LRU tier."""

    def __init__(
        self,
        directory: "str | Path",
        *,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
    ) -> None:
        if memory_budget < 0:
            raise ValueError("memory_budget must be >= 0")
        self.disk = DistanceCache(directory)
        self.memory_budget = int(memory_budget)
        self.stats = CacheStats()
        self._resident: "OrderedDict[str, _Resident]" = OrderedDict()

    # ------------------------------------------------------------------
    # Residency management
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        return sum(entry.nbytes for entry in self._resident.values())

    @property
    def resident_fingerprints(self) -> tuple[str, ...]:
        """RAM-resident fingerprints, least- to most-recently used."""
        return tuple(self._resident)

    def _admit(self, fingerprint: str, dist: np.ndarray) -> None:
        entry = _Resident(dist)
        if entry.nbytes > self.memory_budget:
            # larger than the whole budget: disk-only, nothing to evict for
            self._resident.pop(fingerprint, None)
            return
        self._resident[fingerprint] = entry
        self._resident.move_to_end(fingerprint)
        while self.resident_bytes > self.memory_budget:
            evicted, _ = self._resident.popitem(last=False)
            if evicted == fingerprint:  # pragma: no cover - guarded above
                break
            self.stats.evictions += 1

    def drop(self, fingerprint: str) -> None:
        """Drop one RAM residency (the disk copy is untouched)."""
        self._resident.pop(fingerprint, None)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def contains(self, fingerprint: str) -> bool:
        """Whether either tier holds the closure filed under
        ``fingerprint``, without reading it or counting a hit or miss
        (admission pricing peeks, it does not read)."""
        return fingerprint in self._resident or self.disk.has(fingerprint)

    def get(self, fingerprint: str) -> "np.ndarray | None":
        """The closure filed under ``fingerprint``, or ``None``.

        RAM tier first; a disk hit is promoted into RAM (possibly evicting
        the least-recently-used residency). A directory written for a
        different fingerprint raises
        :class:`~repro.faults.checkpoint.CheckpointError` — a stale entry
        is refused, never served.
        """
        entry = self._resident.get(fingerprint)
        if entry is not None:
            self._resident.move_to_end(fingerprint)
            self.stats.ram_hits += 1
            return entry.dist
        dist = self.disk.lookup(fingerprint)
        if dist is None:
            self.stats.misses += 1
            return None
        self.stats.disk_hits += 1
        self._admit(fingerprint, dist)
        return dist

    def put(self, fingerprint: str, dist: np.ndarray) -> None:
        """File a copy of ``dist`` as the closure under ``fingerprint``."""
        dist = np.array(dist, dtype=DIST_DTYPE)
        self.disk.store(fingerprint, dist)
        self._admit(fingerprint, dist)
        self.stats.stores += 1

    # ------------------------------------------------------------------
    # Mutation: patch-forward revalidation
    # ------------------------------------------------------------------
    def revalidate(
        self,
        graph: CSRGraph,
        fingerprint: str,
        updates: Sequence[EdgeUpdate],
        *,
        spec: "DeviceSpec",
    ) -> "tuple[CSRGraph, np.ndarray, UpdateResult] | None":
        """Patch the cached closure of ``graph`` (filed under its
        ``fingerprint``) under ``updates`` on a ``spec`` device and file it
        under the mutated fingerprint.

        Returns ``(new_graph, new_dist, result)`` on a hit; ``None`` when
        no closure of ``graph`` is cached (a revalidation *miss* — the
        service just proceeds uncached; nothing stale survives because the
        old entry stays keyed to the old fingerprint).
        """
        # a foreign/stale bind must propagate as CheckpointError — only a
        # genuinely absent entry counts as a revalidation miss
        if not self.disk.has(fingerprint):
            self.stats.revalidate_misses += 1
            self.drop(fingerprint)
            return None
        new_graph, new_dist, result = self.disk.revalidate(
            graph, fingerprint, updates, spec=spec
        )
        self.stats.revalidate_hits += 1
        self.stats.stores += 1
        self.drop(fingerprint)
        self._admit(result.new_fingerprint, new_dist)
        return new_graph, new_dist, result
