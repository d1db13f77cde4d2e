"""The APSP query service: one request path over every subsystem.

:class:`APSPService` composes the previously-built layers under a single
modeled-clock engine:

* **batching** — pending point/SSSP queries coalesce (keyed dedup, see
  :mod:`repro.serve.batcher`) into MSSP batches sized by the paper's
  ``bat = (L − S)/(c·m)`` formula and run on a persistent simulated
  device through :class:`~repro.gpu.executor.DeviceEmitter`, built from
  the same emitter helpers as
  :func:`repro.core.ooc_johnson.ooc_johnson`'s schedule — a resident CSR
  (:func:`~repro.core.ooc_johnson.upload_csr`, once per graph version),
  then per batch a worklist and row buffer around one
  :func:`~repro.core.ooc_johnson.mssp_batch` (real Near-Far numerics,
  modelled kernel cost, synchronous download);
* **caching** — full closures live in the
  :class:`~repro.serve.cache.ClosureCache` (fingerprint-keyed
  ``DistanceCache`` disk tier + budgeted RAM LRU); hot SSSP rows live in
  a second row-level LRU. Graph mutations revalidate the closure by
  patch-forward (:mod:`repro.dynamic`) instead of discarding it;
* **admission + fairness** — the analytic selector prices every request
  (:mod:`repro.serve.admission`); over-budget requests are refused and
  admitted ones drain in weighted-fair order;
* **resilience** — the device carries the service's
  :class:`~repro.faults.FaultPlan`; transient mid-batch faults retry
  inside the streams and a ticket is only answered once its batch
  completed, so a failed drain leaves tickets *pending*, never answered
  stale or partial. Full solves checkpoint into a spool directory keyed
  by graph fingerprint, so a replacement service over the same spool
  resumes a killed solve instead of recomputing it.

Everything advances one modeled clock (``self.now``, simulated seconds):
batch costs are the persistent device's elapsed-time delta, solve costs
are :attr:`~repro.core.result.APSPResult.simulated_seconds`, cache reads
are free. Latency numbers are therefore machine-independent — the bench
(:mod:`repro.bench.serve`) gates them in CI with exact equality.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.api import solve_apsp
from repro.core.minplus import DIST_DTYPE
from repro.core.ooc_johnson import (
    DEFAULT_QUEUE_FACTOR,
    csr_host_array,
    graph_device_bytes,
    mssp_batch,
    mssp_numerics,
    plan_batch_size,
    upload_csr,
)
from repro.dynamic.patch import EdgeUpdate, _canonical_changes, apply_edge_updates
from repro.faults.checkpoint import graph_fingerprint
from repro.gpu.device import V100, Device, DeviceSpec
from repro.gpu.executor import DeviceEmitter
from repro.graphs.csr import CSRGraph
from repro.serve.admission import AdmissionController
from repro.serve.batcher import SourceBatch, coalesce
from repro.serve.cache import DEFAULT_MEMORY_BUDGET, ClosureCache
from repro.serve.request import Query, Response, Ticket

__all__ = ["APSPService", "DEFAULT_ROW_BUDGET"]

#: default row-LRU capacity (number of cached SSSP rows)
DEFAULT_ROW_BUDGET = 256


def _batch_schedule(em, graph: CSRGraph, spec: DeviceSpec, csr: tuple, bat: int,
                    num_sources: int, *, queue_factor: float) -> None:
    """One service batch through ``em``, against the resident ``csr``:
    the worklists and a ``bat``-row output buffer around one
    :func:`~repro.core.ooc_johnson.mssp_batch` over the batch's
    ``num_sources`` sources (keys ``("sources", 0, num_sources)`` and
    ``("rows", 0, num_sources)``). Allocations and copies are fault
    sites, so this order is part of the fault-plan contract."""
    n, m = graph.num_vertices, graph.num_edges
    charge = spec.sparse_charge_factor
    queues = em.alloc("queues", (max(1, int(bat * queue_factor * m * charge)),))
    rows = em.alloc(
        "rows", (bat, n),
        charged_bytes=int(bat * n * np.dtype(DIST_DTYPE).itemsize * charge) + 1,
    )
    mssp_batch(em, graph, csr, rows, 0, num_sources)
    em.free(queues)
    em.free(rows)


class APSPService:
    """Batched, cached, admission-controlled APSP query service."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        spec: "DeviceSpec | None" = None,
        cache_dir: "str | Path | None" = None,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        row_budget: int = DEFAULT_ROW_BUDGET,
        spool_dir: "str | Path | None" = None,
        budget_seconds: "float | None" = None,
        tenant_weights: "Mapping[str, float] | None" = None,
        faults=None,
        retry=None,
        batch_size: "int | None" = None,
        algorithm: str = "auto",
        queue_factor: float = DEFAULT_QUEUE_FACTOR,
    ) -> None:
        self.graph = graph
        self.spec = spec if spec is not None else V100
        self.fingerprint = graph_fingerprint(graph)
        self.algorithm = algorithm
        self.queue_factor = float(queue_factor)
        self.batch_size = batch_size
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.cache: "ClosureCache | None" = (
            ClosureCache(cache_dir, memory_budget=memory_budget)
            if cache_dir is not None
            else None
        )
        if row_budget < 0:
            raise ValueError("row_budget must be >= 0")
        self.row_budget = int(row_budget)
        self._rows: "OrderedDict[tuple[str, int], np.ndarray]" = OrderedDict()
        self.admission = AdmissionController(
            self.spec,
            budget_seconds=budget_seconds,
            weights=dict(tenant_weights or {}),
        )
        # the persistent batch device: never reset, so fault-plan ordinals
        # and the modeled clock accumulate across drains
        self.device = Device(self.spec, record_trace=False, faults=faults, retry=retry)
        self._faults = faults
        self._retry = retry
        self._csr: "tuple | None" = None
        #: the service's modeled clock (simulated seconds)
        self.now = 0.0
        self._next_ticket = 0
        self._pending: "dict[int, Ticket]" = {}
        self.served: "dict[str, int]" = {}

    # ------------------------------------------------------------------
    # Submission (admission control happens here)
    # ------------------------------------------------------------------
    def submit(self, query: Query, *, at: "float | None" = None) -> Ticket:
        """Admit one query; raises
        :class:`~repro.serve.request.AdmissionError` past the budget."""
        if at is not None:
            self.now = max(self.now, float(at))
        cost = self.admission.estimate(
            self.graph, self.fingerprint, query, cached=self._is_cached(query)
        )
        vfinish = self.admission.admit(query, cost)
        ticket = Ticket(
            ticket_id=self._next_ticket,
            query=query,
            arrival=self.now,
            cost_estimate=cost,
            vfinish=vfinish,
        )
        self._next_ticket += 1
        self._pending[ticket.ticket_id] = ticket
        return ticket

    def _is_cached(self, query: Query) -> bool:
        if self.cache is not None and self.cache.contains(self.fingerprint):
            return True
        return query.needs_row and (self.fingerprint, query.source) in self._rows

    @property
    def pending(self) -> tuple[Ticket, ...]:
        """Admitted-but-unanswered tickets in fair-queue drain order."""
        return tuple(
            sorted(self._pending.values(), key=lambda t: (t.vfinish, t.ticket_id))
        )

    # ------------------------------------------------------------------
    # Mutation (invalidation + patch-forward revalidation)
    # ------------------------------------------------------------------
    def mutate(self, updates: Sequence[EdgeUpdate], *, at: "float | None" = None):
        """Apply edge updates to the served graph.

        With a closure cached, the cache is *revalidated*: the old closure
        is patched forward through :mod:`repro.dynamic` (``O(n²)``) and
        filed under the new fingerprint. Without one, the graph simply
        moves on — the old fingerprint's entries can never be served again.
        Returns the :class:`~repro.dynamic.patch.UpdateResult` on a
        revalidation hit, else ``None``.
        """
        if at is not None:
            self.now = max(self.now, float(at))
        changes = _canonical_changes(self.graph, updates)
        old_fingerprint = self.fingerprint
        result = None
        revalidated = None
        if self.cache is not None:
            revalidated = self.cache.revalidate(
                self.graph, old_fingerprint, updates, spec=self.spec
            )
        if revalidated is not None:
            self.graph, _dist, result = revalidated
            self.fingerprint = result.new_fingerprint
        else:
            self.graph = apply_edge_updates(self.graph, changes)
            self.fingerprint = graph_fingerprint(self.graph)
        # stale-state hygiene: rows keyed to the old fingerprint can never
        # match again, drop them now; analytic prices and the CSR residency
        # belong to the old graph
        for key in [k for k in self._rows if k[0] == old_fingerprint]:
            del self._rows[key]
        self.admission.forget(old_fingerprint)
        self._free_csr()
        return result

    # ------------------------------------------------------------------
    # Drain: answer every pending ticket in weighted-fair order
    # ------------------------------------------------------------------
    def drain(self) -> list[Response]:
        """Serve all pending tickets against the *current* graph.

        Tickets are walked in ``(vfinish, ticket_id)`` order; consecutive
        row queries coalesce into MSSP batches, full queries run the
        out-of-core solver (checkpointed into the spool). A fault that
        exhausts its retry budget propagates and the unanswered tickets
        stay pending — the service never returns stale or partial
        distances.
        """
        if not self._pending:
            return []
        responses: list[Response] = []
        closure = self.cache.get(self.fingerprint) if self.cache is not None else None
        run: list[Ticket] = []
        for ticket in self.pending:
            if ticket.query.kind == "full" and closure is None:
                responses.extend(self._flush_rows(run))
                run = []
                closure, response = self._serve_full_solve(ticket)
                responses.append(response)
                continue
            if closure is not None:
                responses.append(self._serve_from_closure(ticket, closure))
                continue
            row = self._rows.get((self.fingerprint, ticket.query.source))
            if row is not None:
                self._rows.move_to_end((self.fingerprint, ticket.query.source))
                responses.append(self._answer(ticket, row, "row-cache"))
                continue
            run.append(ticket)
        responses.extend(self._flush_rows(run))
        return responses

    def _answer(self, ticket: Ticket, row: np.ndarray, served_from: str, *, started: "float | None" = None) -> Response:
        q = ticket.query
        value: "float | np.ndarray"
        if q.kind == "point":
            value = float(row[q.v])
        elif q.kind == "sssp":
            value = row.copy()
        else:
            value = row.copy()  # full: row is the whole matrix here
        response = Response(
            ticket_id=ticket.ticket_id,
            query=q,
            value=value,
            arrival=ticket.arrival,
            started=ticket.arrival if started is None else started,
            completed=self.now,
            served_from=served_from,
            fingerprint=self.fingerprint,
        )
        del self._pending[ticket.ticket_id]
        self.admission.complete(ticket.cost_estimate, ticket.vfinish)
        self.served[served_from] = self.served.get(served_from, 0) + 1
        return response

    def _serve_from_closure(self, ticket: Ticket, closure: np.ndarray) -> Response:
        q = ticket.query
        if q.kind == "full":
            return self._answer(ticket, closure, "closure-cache")
        return self._answer(ticket, closure[q.source], "closure-cache")

    # -- full solves ----------------------------------------------------
    def _plan_algorithm(self) -> str:
        """Concrete algorithm for full solves: ``auto`` reads the
        admission controller's analytic selection (free, deterministic),
        made once per graph version, so spool checkpoints bind to a
        stable algorithm."""
        if self.algorithm != "auto":
            return self.algorithm
        return self.admission.selection(self.graph, self.fingerprint).algorithm

    def _serve_full_solve(self, ticket: Ticket) -> tuple[np.ndarray, Response]:
        algorithm = self._plan_algorithm()
        checkpoint_dir = None
        if self.spool_dir is not None:
            checkpoint_dir = str(
                self.spool_dir / f"{self.fingerprint[:16]}-{algorithm}"
            )
        started = self.now
        result = solve_apsp(
            self.graph,
            algorithm=algorithm,
            device=self.spec,
            faults=self._faults,
            retry=self._retry,
            checkpoint_dir=checkpoint_dir,
        )
        self.now += result.simulated_seconds
        closure = np.ascontiguousarray(result.to_array(), dtype=DIST_DTYPE)
        if self.cache is not None:
            self.cache.put(self.fingerprint, closure)
        served_from = "solve-resumed" if result.faults.resumed > 0 else "solve"
        response = self._answer(ticket, closure, served_from, started=started)
        return closure, response

    # -- the batched MSSP path ------------------------------------------
    def plan_batch(self) -> int:
        """Distinct sources per MSSP launch: the paper's ``bat`` formula
        on the service device, optionally capped by ``batch_size``."""
        bat = plan_batch_size(
            self.graph, self.spec, queue_factor=self.queue_factor, num_row_buffers=1
        )
        bat = max(1, min(bat, self.graph.num_vertices))
        if self.batch_size is not None:
            bat = max(1, min(bat, int(self.batch_size)))
        return bat

    def _free_csr(self) -> None:
        if self._csr is not None:
            for arr in self._csr:
                arr.free()
            self._csr = None

    def _flush_rows(self, run: list[Ticket]) -> list[Response]:
        if not run:
            return []
        bat = self.plan_batch()
        responses: list[Response] = []
        for batch in coalesce(run, bat):
            responses.extend(self._run_batch(batch, bat))
        return responses

    def _run_batch(self, batch: SourceBatch, bat: int) -> list[Response]:
        graph = self.graph
        device = self.device
        started = self.now
        t0 = device.elapsed
        host_rows = np.empty((batch.num_sources, graph.num_vertices), dtype=DIST_DTYPE)

        def host(key: tuple) -> np.ndarray:
            if key[0] == "csr":
                return csr_host_array(graph, key[1])
            return (batch.sources if key[0] == "sources" else host_rows)[key[1] : key[2]]

        em = DeviceEmitter(
            device, host=host, kernels={"mssp": mssp_numerics(graph, self.spec, bat=bat)}
        )
        if self._csr is None:
            # a failed upload frees its buffers; the next batch retries it
            with device.memory.cleanup_on_error():
                self._csr = upload_csr(em, graph, self.spec)
        with device.memory.cleanup_on_error():
            _batch_schedule(
                em, graph, self.spec, self._csr, bat, batch.num_sources,
                queue_factor=self.queue_factor,
            )
        self.now += device.synchronize() - t0
        for idx, source in enumerate(batch.sources.tolist()):
            self._store_row(int(source), host_rows[idx])
        return [
            self._answer(ticket, host_rows[row], "batch", started=started)
            for ticket, row in batch.assignments
        ]

    def _store_row(self, source: int, row: np.ndarray) -> None:
        if self.row_budget == 0:
            return
        key = (self.fingerprint, source)
        self._rows[key] = row.copy()
        self._rows.move_to_end(key)
        while len(self._rows) > self.row_budget:
            self._rows.popitem(last=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-serialisable service counters (CLI ``--json`` payload)."""
        return {
            "now_seconds": self.now,
            "fingerprint": self.fingerprint,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "pending": len(self._pending),
            "served": dict(sorted(self.served.items())),
            "batch_plan": self.plan_batch(),
            "graph_device_bytes": graph_device_bytes(self.graph, self.spec),
            "cached_rows": len(self._rows),
            "cache": self.cache.stats.to_dict() if self.cache is not None else None,
            "admission": self.admission.to_dict(),
        }
