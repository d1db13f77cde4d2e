"""Admission control and per-tenant fair scheduling for the query service.

Admission prices every request with the **analytic selector's** makespan
predictions (the ``select --analytic`` machinery of
:mod:`repro.select.cost_models`): a full-APSP request costs the predicted
critical-path makespan of the best algorithm's schedule IR, and a row
(point/SSSP) request costs the amortised per-source share of the batched
Johnson makespan. No device time is spent on estimation — the same
property that makes ``--analytic`` free makes admission control free.

Two mechanisms ride on those prices:

* **admission** — a request whose cost would push the predicted queue
  backlog past ``budget_seconds`` is refused up front with
  :class:`~repro.serve.request.AdmissionError` carrying a ``retry_after``
  hint, instead of being accepted into a queue it would time out of;
* **weighted fair queuing** — each tenant owns a virtual clock advanced by
  ``cost / weight`` per admitted request; drains execute tickets in
  virtual-finish-time order, so a flooding tenant slows itself down, not
  its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.gpu.device import DeviceSpec
from repro.graphs.csr import CSRGraph
from repro.serve.request import AdmissionError, Query

if TYPE_CHECKING:  # pragma: no cover
    from repro.select.selector import SelectionReport

__all__ = ["AdmissionController", "TenantState"]


@dataclass
class TenantState:
    """Fair-queuing state and counters for one tenant."""

    name: str
    weight: float = 1.0
    #: virtual finish time of the tenant's last admitted request
    vtime: float = 0.0
    admitted: int = 0
    rejected: int = 0
    cost_admitted: float = 0.0

    def to_dict(self) -> dict:
        return {
            "weight": self.weight,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "cost_admitted_seconds": self.cost_admitted,
        }


@dataclass
class AdmissionController:
    """Prices requests analytically; admits, rejects, and orders them."""

    spec: DeviceSpec
    #: predicted-backlog ceiling; ``None`` disables admission rejection
    budget_seconds: "float | None" = None
    #: per-tenant weights (missing tenants default to 1.0)
    weights: dict[str, float] = field(default_factory=dict)
    #: estimated seconds of admitted-but-unfinished work
    backlog_seconds: float = 0.0
    #: global virtual clock: advanced to each ticket's vfinish as it completes
    vnow: float = 0.0
    tenants: dict[str, TenantState] = field(default_factory=dict)
    #: the analytic selection per fingerprint (prices full solves and
    #: names the algorithm the service runs them with)
    _selection: "dict[str, SelectionReport]" = field(default_factory=dict)
    #: analytic Johnson makespan per fingerprint (prices rows, and full
    #: solves when Johnson is the only candidate)
    _johnson_cost: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Analytic pricing (cached per graph fingerprint)
    # ------------------------------------------------------------------
    def estimate(
        self, graph: CSRGraph, fingerprint: str, query: Query, *, cached: bool
    ) -> float:
        """Predicted cost of ``query`` in modeled seconds.

        ``cached=True`` (the closure of the current graph is resident)
        prices at zero: cache reads do no device work, so they are always
        admissible and never charge a tenant's fair-queue clock.
        """
        if cached:
            return 0.0
        if query.kind == "full":
            return self._full_seconds(graph, fingerprint)
        return self._row_seconds(graph, fingerprint)

    def selection(self, graph: CSRGraph, fingerprint: str) -> "SelectionReport":
        """The analytic selector's report for ``graph``, run once per
        fingerprint."""
        report = self._selection.get(fingerprint)
        if report is None:
            from repro.select.selector import Selector

            report = Selector(self.spec, analytic=True).select(graph)
            self._selection[fingerprint] = report
        return report

    def _full_seconds(self, graph: CSRGraph, fingerprint: str) -> float:
        report = self.selection(graph, fingerprint)
        if report.estimates:
            return report.estimated_seconds()
        # the density band leaves Johnson alone: nothing was priced
        return self._johnson_seconds(graph, fingerprint)

    def _row_seconds(self, graph: CSRGraph, fingerprint: str) -> float:
        return self._johnson_seconds(graph, fingerprint) / max(1, graph.num_vertices)

    def _johnson_seconds(self, graph: CSRGraph, fingerprint: str) -> float:
        cost = self._johnson_cost.get(fingerprint)
        if cost is None:
            from repro.select.cost_models import analytic_estimate_johnson

            cost = analytic_estimate_johnson(graph, self.spec).total_seconds
            self._johnson_cost[fingerprint] = cost
        return cost

    def forget(self, fingerprint: str) -> None:
        """Drop cached prices for a fingerprint (after a mutation)."""
        self._selection.pop(fingerprint, None)
        self._johnson_cost.pop(fingerprint, None)

    # ------------------------------------------------------------------
    # Admission + fair queuing
    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = TenantState(name, weight=float(self.weights.get(name, 1.0)))
            self.tenants[name] = state
        return state

    def admit(self, query: Query, cost: float) -> float:
        """Admit one request; returns its fair-queue virtual finish time.

        Raises :class:`~repro.serve.request.AdmissionError` when the
        predicted backlog (including this request) would exceed the
        budget.
        """
        state = self.tenant(query.tenant)
        if (
            self.budget_seconds is not None
            and cost > 0.0
            and self.backlog_seconds + cost > self.budget_seconds
        ):
            state.rejected += 1
            raise AdmissionError(
                f"admission refused for tenant {query.tenant!r} "
                f"({query.kind} query, estimated {cost:.6f}s)",
                backlog_seconds=self.backlog_seconds,
                budget_seconds=self.budget_seconds,
                retry_after=self.backlog_seconds,
            )
        # WFQ: an idle tenant restarts at the global virtual clock instead
        # of spending banked idle time to burst past active tenants
        start = max(self.vnow, state.vtime)
        state.vtime = start + cost / state.weight
        state.admitted += 1
        state.cost_admitted += cost
        self.backlog_seconds += cost
        return state.vtime

    def complete(self, cost: float, vfinish: float) -> None:
        """Account one finished ticket: release its backlog share and
        advance the global virtual clock."""
        self.backlog_seconds = max(0.0, self.backlog_seconds - cost)
        self.vnow = max(self.vnow, vfinish)

    def to_dict(self) -> dict:
        return {
            "budget_seconds": self.budget_seconds,
            "backlog_seconds": self.backlog_seconds,
            "tenants": {name: t.to_dict() for name, t in sorted(self.tenants.items())},
        }
