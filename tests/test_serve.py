"""The serving layer: differential correctness, faults, fairness, admission.

The core property (ISSUE acceptance): *any* interleaving of point/SSSP/full
queries and edge-update mutations answered by :class:`repro.serve.APSPService`
must be bit-identical to a fresh solve of the graph version the drain ran
against. Hypothesis drives the interleavings; seeded-fault legs check that
transient mid-batch faults retry (never corrupting an answer) and that a
killed solve resumes from the spool instead of recomputing.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.ooc_johnson import graph_device_bytes, upload_csr
from repro.dynamic.patch import EdgeUpdate
from repro.faults.checkpoint import graph_fingerprint
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs.generators import erdos_renyi, rmat
from repro.gpu.device import TEST_DEVICE, V100
from repro.gpu.errors import TransientDeviceError
from repro.select.cost_models import analytic_estimate_johnson
from repro.select.selector import Selector
from repro.serve import AdmissionError, APSPService, Query
from repro.serve.service import _batch_schedule
from repro.verifyplan import IREmitter, analyze_hb, audit_ir
from tests.conftest import oracle_apsp

N = 16
TENANTS = ("alpha", "beta")


def _graph(seed: int = 123):
    return erdos_renyi(N, 60, seed=seed)


def _assert_matches(resp, truth: np.ndarray) -> None:
    q = resp.query
    if q.kind == "point":
        assert float(resp.value) == float(truth[q.u, q.v]), resp
    elif q.kind == "sssp":
        assert np.array_equal(
            np.asarray(resp.value, dtype=np.float64), truth[q.source]
        ), resp
    else:
        assert np.array_equal(np.asarray(resp.value, dtype=np.float64), truth), resp


# ---------------------------------------------------------------------------
# hypothesis strategies: one op = a query, a mutation batch, or a drain
# ---------------------------------------------------------------------------
_vertex = st.integers(0, N - 1)
_tenant = st.sampled_from(TENANTS)
_weight = st.one_of(st.integers(1, 50).map(float), st.just(math.inf))


@st.composite
def _edge_update(draw):
    u = draw(_vertex)
    v = draw(st.integers(0, N - 2))
    if v >= u:
        v += 1
    return EdgeUpdate(u, v, draw(_weight))


_op = st.one_of(
    st.tuples(st.just("point"), _vertex, _vertex, _tenant),
    st.tuples(st.just("sssp"), _vertex, _tenant),
    st.tuples(st.just("sssp"), _vertex, _tenant),
    st.tuples(st.just("full"), _tenant),
    st.tuples(st.just("mutate"), st.lists(_edge_update(), min_size=1, max_size=3)),
    st.tuples(st.just("drain")),
)


class TestDifferentialHarness:
    """Service answers == fresh ground truth under arbitrary interleavings."""

    @given(ops=st.lists(_op, max_size=24))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_any_interleaving_matches_fresh_solve(self, ops):
        graph = _graph()
        truths: dict[str, np.ndarray] = {}
        with tempfile.TemporaryDirectory(prefix="repro-serve-test-") as tmp:
            service = APSPService(
                graph,
                spec=TEST_DEVICE,
                cache_dir=Path(tmp) / "cache",
                spool_dir=Path(tmp) / "spool",
                algorithm="johnson",
            )

            def check_drain() -> None:
                # queries are answered against the graph at drain time
                fp = service.fingerprint
                if fp not in truths:
                    truths[fp] = oracle_apsp(service.graph)
                for resp in service.drain():
                    assert resp.fingerprint == fp
                    _assert_matches(resp, truths[fp])

            for op in ops:
                if op[0] == "point":
                    service.submit(Query.point(op[1], op[2], tenant=op[3]))
                elif op[0] == "sssp":
                    service.submit(Query.sssp(op[1], tenant=op[2]))
                elif op[0] == "full":
                    service.submit(Query.full(tenant=op[1]))
                elif op[0] == "mutate":
                    service.mutate(op[1])
                else:
                    check_drain()
            check_drain()
            assert not service.pending

    @given(seed=st.integers(0, 7))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_transient_faults_mid_batch_never_corrupt_answers(self, seed):
        """Injected transfer/kernel faults retry inside the streams; every
        answer stays bit-identical and the clock pays the backoff."""
        graph = _graph(seed=9)
        truth = oracle_apsp(graph)
        service = APSPService(
            graph,
            spec=TEST_DEVICE,
            faults=FaultPlan.random(seed, 4, sites=("h2d", "d2h", "kernel"), horizon=2),
        )
        for u in range(0, N, 2):
            service.submit(Query.sssp(u))
            service.submit(Query.point(u, (u + 3) % N))
        responses = service.drain()
        assert len(responses) == N
        for resp in responses:
            _assert_matches(resp, truth)
        # the plan's early ordinals are guaranteed to be exercised
        assert service.device.fault_report.injected > 0
        assert not service.pending


class TestBatchSchedule:
    def test_failed_csr_upload_frees_its_buffers(self):
        """An upload that exhausts its retries frees the CSR buffers it
        allocated; the drain that finally uploads leaves exactly one
        resident CSR on the persistent device."""
        graph = rmat(200, 1600)
        service = APSPService(
            graph, spec=V100, faults=FaultPlan([FaultSpec("h2d", 1, count=8)])
        )
        failures = 0
        for _ in range(3):
            service.submit(Query.sssp(0))
            try:
                service.drain()
            except TransientDeviceError:
                failures += 1
        assert failures == 2 and not service.pending
        assert service.device.memory.num_live == 3  # indptr, indices, weights
        assert service.device.memory.used == graph_device_bytes(graph, V100) + 3

    def test_drain_schedule_compiles_clean(self):
        """One drain's schedule (CSR upload, then a full and a partial
        batch) compiled to IR has no residency, def-use, redundancy or
        happens-before finding."""
        graph = rmat(200, 1600)
        service = APSPService(graph, spec=V100, batch_size=16)
        bat = service.plan_batch()
        em = IREmitter("serve", V100.name, V100.memory_bytes)
        csr = upload_csr(em, graph, V100)
        for num_sources in (bat, 5):
            _batch_schedule(
                em, graph, V100, csr, bat, num_sources, queue_factor=service.queue_factor
            )
        ir = em.finish()
        _peak, tally, findings = audit_ir(ir)
        assert findings == []
        assert tally.num_h2d == 3 and tally.num_d2h == 2
        hb = analyze_hb([ir])
        assert hb.ok and not hb.findings


class TestKillAndResume:
    def test_killed_solve_stays_pending_and_resumes_in_new_service(self, tmp_path):
        """Permanent device loss mid-solve: the drain raises, the ticket is
        NOT answered (no stale/partial data), and a replacement service
        over the same spool resumes from the checkpoint."""
        graph = erdos_renyi(100, 1000, seed=5)
        cache_dir, spool = tmp_path / "cache", tmp_path / "spool"
        crashed = APSPService(
            graph,
            spec=TEST_DEVICE,
            cache_dir=cache_dir,
            spool_dir=spool,
            algorithm="johnson",
            faults=FaultPlan.kill("d2h", 1),
        )
        ticket = crashed.submit(Query.full())
        with pytest.raises(TransientDeviceError):
            crashed.drain()
        assert [t.ticket_id for t in crashed.pending] == [ticket.ticket_id]
        assert crashed.served == {}

        fresh = APSPService(
            graph,
            spec=TEST_DEVICE,
            cache_dir=cache_dir,
            spool_dir=spool,
            algorithm="johnson",
        )
        fresh.submit(Query.full())
        (resp,) = fresh.drain()
        assert resp.served_from == "solve-resumed"
        assert np.array_equal(
            np.asarray(resp.value, dtype=np.float64), oracle_apsp(graph)
        )


class TestFairScheduling:
    def test_light_tenant_is_not_starved_by_a_flood(self):
        """WFQ: after 8 queued requests from one tenant, a single request
        from another tenant completes second, not ninth."""
        graph = _graph()
        service = APSPService(graph, spec=TEST_DEVICE, batch_size=1, row_budget=0)
        for u in range(8):
            service.submit(Query.sssp(u, tenant="flood"))
        light = service.submit(Query.sssp(9, tenant="light"))
        order = [r.ticket_id for r in service.drain()]
        assert order.index(light.ticket_id) == 1

    def test_heavier_weight_drains_first(self):
        graph = _graph()
        service = APSPService(
            graph,
            spec=TEST_DEVICE,
            batch_size=1,
            row_budget=0,
            tenant_weights={"gold": 4.0, "free": 1.0},
        )
        for u in range(4):
            service.submit(Query.sssp(u, tenant="free"))
            service.submit(Query.sssp(u + 4, tenant="gold"))
        order = [r.query.tenant for r in service.drain()]
        # gold's virtual clock advances 4x slower: its 4 requests all land
        # before free's 2nd request
        assert order.index("gold") <= 1
        assert order[:6].count("gold") == 4

    def test_completion_times_follow_fair_order(self):
        graph = _graph()
        service = APSPService(graph, spec=TEST_DEVICE, batch_size=1, row_budget=0)
        for u in range(6):
            service.submit(Query.sssp(u, tenant=TENANTS[u % 2]))
        responses = service.drain()
        completed = [r.completed for r in responses]
        assert completed == sorted(completed)
        assert all(r.latency > 0 for r in responses)


class TestAdmissionControl:
    def test_over_budget_request_is_refused_with_retry_hint(self):
        graph = _graph()
        probe = APSPService(graph, spec=TEST_DEVICE, algorithm="johnson")
        full_cost = probe.submit(Query.full()).cost_estimate
        assert full_cost > 0

        service = APSPService(
            graph,
            spec=TEST_DEVICE,
            algorithm="johnson",
            budget_seconds=1.5 * full_cost,
        )
        service.submit(Query.full())
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(Query.full(tenant="late"))
        err = excinfo.value
        assert err.budget_seconds == pytest.approx(1.5 * full_cost)
        assert err.backlog_seconds == pytest.approx(full_cost)
        assert err.retry_after >= 0
        assert service.admission.tenant("late").rejected == 1
        # the refused request left no ticket behind
        assert len(service.pending) == 1

    def test_cache_hits_are_always_admissible(self, tmp_path):
        graph = _graph()
        service = APSPService(
            graph,
            spec=TEST_DEVICE,
            cache_dir=tmp_path / "cache",
            algorithm="johnson",
            budget_seconds=1e-12,
        )
        # a cold full query blows the (absurd) budget...
        with pytest.raises(AdmissionError):
            service.submit(Query.full())
        # ...but once the closure is cached, everything prices at zero
        service.cache.put(service.fingerprint, oracle_apsp(graph).astype(np.float32))
        for query in (Query.full(), Query.sssp(3), Query.point(1, 2)):
            service.submit(query)
        responses = service.drain()
        assert [r.served_from for r in responses] == ["closure-cache"] * 3

    def test_full_query_priced_when_johnson_is_the_only_candidate(self):
        # a middle-band graph: the selector prices no candidate, so the
        # full query costs the analytic Johnson makespan rows are priced from
        graph = rmat(600, 1800)
        service = APSPService(graph, spec=V100)
        assert Selector(V100, analytic=True).select(graph).candidates == ("johnson",)
        ticket = service.submit(Query.full())
        johnson = analytic_estimate_johnson(graph, V100).total_seconds
        assert ticket.cost_estimate == johnson > 0
        row = service.submit(Query.sssp(0)).cost_estimate
        assert row == johnson / graph.num_vertices

    def test_full_query_selects_once_per_fingerprint(self, monkeypatch):
        # admission prices a cold full query with the analytic selection,
        # and the solve runs the algorithm that same selection picked
        selected: list[str] = []
        select = Selector.select

        def counting(self, graph):
            selected.append(graph_fingerprint(graph))
            return select(self, graph)

        monkeypatch.setattr(Selector, "select", counting)
        service = APSPService(_graph(), spec=TEST_DEVICE)
        for _version in range(2):
            service.submit(Query.full())
            assert [r.served_from for r in service.drain()] == ["solve"]
            service.mutate([EdgeUpdate(0, 1, 1.0)])
        assert len(selected) == len(set(selected)) == 2

    def test_backlog_releases_on_completion(self):
        graph = _graph()
        service = APSPService(graph, spec=TEST_DEVICE, row_budget=0)
        for u in range(4):
            service.submit(Query.sssp(u))
        assert service.admission.backlog_seconds > 0
        service.drain()
        assert service.admission.backlog_seconds == pytest.approx(0.0, abs=1e-15)


class TestServeCli:
    def test_selftest_smoke(self, capsys):
        assert main(["serve", "--selftest"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_serve_json_schema(self, capsys):
        import json

        code = main([
            "serve", "er:n=32,m=120", "--queries", "12", "--mutations", "2",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.cli import SCHEMA_VERSION

        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["answered"] == 12
        assert payload["rejected"] == 0
        assert payload["p99_us"] >= payload["p50_us"] > 0
        assert payload["stats"]["cache"] is None
