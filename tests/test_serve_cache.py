"""DistanceCache/ClosureCache behaviour under the serving layer.

Covers the ISSUE's cache satellite: LRU eviction at the RAM budget (the
durable disk copy survives), a fingerprint-stale bind is *refused* rather
than degraded to a miss, and revalidation hits vs misses are counted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic.patch import EdgeUpdate
from repro.faults.checkpoint import CheckpointError, graph_fingerprint
from repro.graphs.generators import erdos_renyi
from repro.gpu.device import TEST_DEVICE
from repro.serve import APSPService, ClosureCache, Query
from tests.conftest import oracle_apsp

N = 10  # closure = 10*10 float32 = 400 bytes


def _graph(seed: int):
    return erdos_renyi(N, 30, seed=seed)


def _closure(graph) -> np.ndarray:
    return oracle_apsp(graph).astype(np.float32)


def _put(cache: ClosureCache, graph) -> str:
    """File ``graph``'s closure; returns its fingerprint."""
    fingerprint = graph_fingerprint(graph)
    cache.put(fingerprint, _closure(graph))
    return fingerprint


class TestResidencyLru:
    def test_eviction_at_budget_keeps_disk_copy(self, tmp_path):
        cache = ClosureCache(tmp_path, memory_budget=1000)  # fits 2 closures
        graphs = [_graph(seed) for seed in (1, 2, 3)]
        fps = [_put(cache, g) for g in graphs]

        assert cache.stats.evictions == 1
        assert cache.resident_fingerprints == (fps[1], fps[2])
        assert cache.resident_bytes <= 1000

        # the evicted entry is still durable: disk hit, promoted back,
        # displacing the now-least-recently-used residency
        dist = cache.get(fps[0])
        assert np.array_equal(np.asarray(dist, dtype=np.float64), oracle_apsp(graphs[0]))
        assert cache.stats.disk_hits == 1
        assert cache.stats.evictions == 2
        assert cache.resident_fingerprints == (fps[2], fps[0])

        cache.get(fps[0])
        assert cache.stats.ram_hits == 1

    def test_get_refreshes_recency(self, tmp_path):
        cache = ClosureCache(tmp_path, memory_budget=1000)
        g1, g2, g3 = (_graph(seed) for seed in (4, 5, 6))
        fp1 = _put(cache, g1)
        fp2 = _put(cache, g2)
        cache.get(fp1)  # g2 becomes the LRU entry
        fp3 = _put(cache, g3)
        assert fp2 not in cache.resident_fingerprints
        assert cache.resident_fingerprints == (fp1, fp3)

    def test_oversized_entry_stays_disk_only(self, tmp_path):
        cache = ClosureCache(tmp_path, memory_budget=300)  # < one closure
        graph = _graph(7)
        fingerprint = _put(cache, graph)
        assert cache.resident_fingerprints == ()
        assert cache.stats.evictions == 0
        assert cache.get(fingerprint) is not None
        assert cache.stats.disk_hits == 1
        assert cache.resident_fingerprints == ()  # never admitted

    def test_contains_peeks_without_counting(self, tmp_path):
        cache = ClosureCache(tmp_path)
        graph = _graph(8)
        assert not cache.contains(graph_fingerprint(graph))
        fingerprint = _put(cache, graph)
        assert cache.contains(fingerprint)
        cache.drop(fingerprint)  # disk only: still a member, still unread
        assert cache.contains(fingerprint)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ClosureCache(tmp_path, memory_budget=-1)


class TestStaleBindRefused:
    def test_foreign_fingerprint_directory_raises(self, tmp_path):
        """An entry whose on-disk metadata names a different graph must be
        refused (CheckpointError), never served and never silently treated
        as a miss."""
        cache = ClosureCache(tmp_path)
        victim, impostor = _graph(10), _graph(11)
        _put(cache, victim)

        # graft victim's entry into the directory slot keyed by impostor's
        # fingerprint — the store's bind validation must catch the mismatch
        victim_dir = tmp_path / graph_fingerprint(victim)[:16]
        impostor_dir = tmp_path / graph_fingerprint(impostor)[:16]
        victim_dir.rename(impostor_dir)

        fingerprint = graph_fingerprint(impostor)
        with pytest.raises(CheckpointError):
            cache.get(fingerprint)
        with pytest.raises(CheckpointError):
            cache.contains(fingerprint)
        with pytest.raises(CheckpointError):
            cache.revalidate(impostor, fingerprint, [EdgeUpdate(0, 1, 5.0)], spec=TEST_DEVICE)


class TestRevalidation:
    def test_miss_counts_and_returns_none(self, tmp_path):
        cache = ClosureCache(tmp_path)
        graph = _graph(12)
        miss = cache.revalidate(
            graph, graph_fingerprint(graph), [EdgeUpdate(0, 1, 5.0)], spec=TEST_DEVICE
        )
        assert miss is None
        assert cache.stats.revalidate_misses == 1
        assert cache.stats.revalidate_hits == 0

    def test_hit_patches_forward_and_refiles(self, tmp_path):
        cache = ClosureCache(tmp_path)
        graph = _graph(13)
        old_fp = _put(cache, graph)
        updates = [EdgeUpdate(0, 1, 2.0), EdgeUpdate(3, 4, float("inf"))]

        hit = cache.revalidate(graph, old_fp, updates, spec=TEST_DEVICE)
        assert hit is not None
        new_graph, new_dist, result = hit
        assert cache.stats.revalidate_hits == 1
        assert result.applied + result.noops == 2
        # patched closure is bit-identical to a fresh solve of the new graph
        assert np.array_equal(
            np.asarray(new_dist, dtype=np.float64), oracle_apsp(new_graph)
        )
        # filed under the NEW fingerprint; old residency dropped
        new_fp = graph_fingerprint(new_graph)
        assert new_fp != old_fp
        assert new_fp in cache.resident_fingerprints
        assert old_fp not in cache.resident_fingerprints
        cache.get(new_fp)
        assert cache.stats.ram_hits == 1


class TestFingerprintKeying:
    def test_submits_against_a_cached_closure_hash_nothing(self, tmp_path, monkeypatch):
        """Admission peeks the cache by the fingerprint the service holds:
        no query re-hashes the graph."""
        import sys

        from repro.faults import checkpoint

        graph = erdos_renyi(24, 90, seed=23)
        service = APSPService(
            graph, spec=TEST_DEVICE, cache_dir=tmp_path, algorithm="johnson"
        )
        service.submit(Query.full())
        service.drain()
        calls: list[object] = []
        real = checkpoint.graph_fingerprint

        def counting(g):
            calls.append(g)
            return real(g)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "graph_fingerprint", None) is real:
                monkeypatch.setattr(module, "graph_fingerprint", counting)
        for i in range(128):
            service.submit(Query.sssp(i % 24))
        assert calls == []

    def test_disk_closure_is_read_at_most_once(self, tmp_path, monkeypatch):
        """A membership peek at a disk-only closure reads nothing, and a
        revalidation reads it once."""
        from repro.faults.checkpoint import CheckpointStore

        loads: list[str] = []
        real = CheckpointStore.load

        def counting(store, stage):
            loads.append(stage)
            return real(store, stage)

        monkeypatch.setattr(CheckpointStore, "load", counting)
        cache = ClosureCache(tmp_path, memory_budget=0)  # disk tier only
        graph = _graph(24)
        fingerprint = _put(cache, graph)
        assert cache.contains(fingerprint) and loads == []
        hit = cache.revalidate(graph, fingerprint, [EdgeUpdate(0, 1, 2.0)], spec=TEST_DEVICE)
        assert hit is not None and loads == ["dist"]


class TestServiceWiring:
    def test_closure_cache_serves_repeat_queries(self, tmp_path):
        graph = erdos_renyi(24, 90, seed=20)
        service = APSPService(
            graph, spec=TEST_DEVICE, cache_dir=tmp_path, algorithm="johnson"
        )
        service.submit(Query.full())
        (first,) = service.drain()
        assert first.served_from == "solve"
        assert service.cache.stats.stores == 1

        service.submit(Query.full())
        service.submit(Query.sssp(3))
        service.submit(Query.point(1, 2))
        repeats = service.drain()
        assert [r.served_from for r in repeats] == ["closure-cache"] * 3
        assert service.cache.stats.hits >= 1
        assert service.served["solve"] == 1  # no second solve happened

    def test_mutation_revalidates_then_serves_from_cache(self, tmp_path):
        graph = erdos_renyi(24, 90, seed=21)
        service = APSPService(
            graph, spec=TEST_DEVICE, cache_dir=tmp_path, algorithm="johnson"
        )
        service.submit(Query.full())
        service.drain()

        result = service.mutate([EdgeUpdate(2, 3, 1.0)])
        assert result is not None  # patched forward, not recomputed
        assert service.cache.stats.revalidate_hits == 1

        service.submit(Query.sssp(2))
        (resp,) = service.drain()
        assert resp.served_from == "closure-cache"
        assert np.array_equal(
            np.asarray(resp.value, dtype=np.float64), oracle_apsp(service.graph)[2]
        )
        assert "solve" not in service.served or service.served["solve"] == 1

    def test_mutation_of_a_closure_larger_than_the_device(self, tmp_path):
        # the 300 x 300 closure is bigger than TEST_DEVICE's memory
        graph = erdos_renyi(300, 1200, seed=23)
        service = APSPService(graph, spec=TEST_DEVICE, cache_dir=tmp_path)
        service.submit(Query.full())
        service.drain()
        src, dst, w = graph.edge_array()
        result = service.mutate([
            EdgeUpdate(int(src[0]), int(dst[0]), float(w[0]) + 5.0),
            EdgeUpdate(int(src[1]), int(dst[1]), float(w[1]) // 2),
        ])
        assert result is not None and service.cache.stats.revalidate_hits == 1
        sources = [int(src[0]), int(dst[1]), 7]
        for s in sources:
            service.submit(Query.sssp(s))
        responses = service.drain()
        assert [r.served_from for r in responses] == ["closure-cache"] * 3
        truth = oracle_apsp(service.graph)
        for r in responses:
            assert np.array_equal(np.asarray(r.value, dtype=np.float64), truth[r.query.source])

    def test_row_cache_budget_and_hits(self):
        graph = erdos_renyi(24, 90, seed=22)
        service = APSPService(graph, spec=TEST_DEVICE, row_budget=2)
        for source in (0, 1, 2):
            service.submit(Query.sssp(source))
        assert all(r.served_from == "batch" for r in service.drain())
        assert service.stats()["cached_rows"] == 2  # LRU kept sources 1, 2

        service.submit(Query.sssp(1))
        (hit,) = service.drain()
        assert hit.served_from == "row-cache"

        service.submit(Query.sssp(0))  # evicted earlier: recomputed
        (refill,) = service.drain()
        assert refill.served_from == "batch"
        assert np.array_equal(
            np.asarray(refill.value, dtype=np.float64), oracle_apsp(graph)[0]
        )
