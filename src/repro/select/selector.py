"""The full selection methodology (paper Section IV).

:class:`Selector` combines the density filter with the cost models:

1. classify the graph's (paper-equivalent) density into a band;
2. if the band leaves a single candidate, select it without modelling;
3. otherwise estimate each candidate's execution time and pick the minimum.

For the sparse band the boundary candidate may turn out *infeasible* (the
working set of every balanced partition exceeds device memory — the
paper's "maximal number of components ... is small" case); the selector
then falls back to Johnson's algorithm, which is exactly the behaviour the
paper describes for "other sparse graphs".

Two ranking backends are available. The default (``method="measured"``)
is the paper's: reference timings calibrated once per process and device
(:meth:`Calibration.run`, which replays the reference schedules' IRs),
plus Johnson priced from sampled batch workloads. ``analytic=True``
instead prices each candidate off its own schedule IR — the symbolic
critical-path makespan from
:func:`repro.verifyplan.timing.predict_timing` — and needs no
calibration at all. Both price simulated device seconds, and neither
touches the device the chosen algorithm later runs on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ooc_boundary import BoundaryInfeasibleError
from repro.gpu.device import DeviceSpec
from repro.select.calibrate import Calibration
from repro.select.cost_models import (
    CostEstimate,
    analytic_estimate_boundary,
    analytic_estimate_fw,
    analytic_estimate_johnson,
    estimate_boundary,
    estimate_fw,
    estimate_johnson,
)
from repro.select.density_filter import density_band, filter_candidates

__all__ = ["SelectionReport", "Selector"]


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of one selection: the pick plus everything it considered."""

    algorithm: str
    density: float
    band: str
    candidates: tuple[str, ...]
    estimates: dict[str, CostEstimate] = field(default_factory=dict)
    infeasible: tuple[str, ...] = ()
    #: ranking backend: ``"measured"`` (paper-style sampling) or
    #: ``"analytic"`` (schedule-DAG critical path)
    method: str = "measured"

    def estimated_seconds(self, algorithm: str | None = None) -> float:
        alg = algorithm or self.algorithm
        return self.estimates[alg].total_seconds

    def to_dict(self) -> dict:
        """JSON-serialisable view (used by ``python -m repro select --json``)."""
        return {
            "algorithm": self.algorithm,
            "density": self.density,
            "band": self.band,
            "method": self.method,
            "candidates": list(self.candidates),
            "infeasible": list(self.infeasible),
            "estimates": {
                name: {
                    "compute_seconds": est.compute_seconds,
                    "transfer_seconds": est.transfer_seconds,
                    "total_seconds": est.total_seconds,
                    "detail": {k: v for k, v in est.detail.items()
                               if isinstance(v, (int, float, str, bool))},
                }
                for name, est in self.estimates.items()
            },
        }


class Selector:
    """Select the best out-of-core APSP implementation for a graph."""

    def __init__(
        self,
        spec: DeviceSpec,
        calibration: Calibration | None = None,
        *,
        density_scale: float = 1.0,
        seed: int = 0,
        analytic: bool = False,
    ) -> None:
        """``density_scale`` converts scaled stand-in densities back to
        paper-equivalent units (see :mod:`repro.graphs.suite`).

        ``analytic=True`` ranks candidates by the symbolic critical-path
        makespan of their schedule IRs instead of the calibrated models
        (the up-front :meth:`Calibration.run` is skipped entirely).
        """
        self.spec = spec
        self.analytic = analytic
        self.calibration = (
            None if analytic else (calibration or Calibration(spec)).run()
        )
        self.density_scale = density_scale
        self.seed = seed

    @property
    def method(self) -> str:
        return "analytic" if self.analytic else "measured"

    def select(self, graph) -> SelectionReport:
        """Run the methodology on ``graph``."""
        density = graph.density * self.density_scale
        band = density_band(density)
        candidates = filter_candidates(graph, density_scale=self.density_scale)

        if candidates == ("johnson",):
            return SelectionReport(
                algorithm="johnson", density=density, band=band,
                candidates=candidates, method=self.method,
            )

        if self.analytic:
            estimates, infeasible = self._estimate_analytic(graph, candidates)
        else:
            estimates, infeasible = self._estimate_measured(graph, candidates)
        best = min(estimates, key=lambda a: estimates[a].total_seconds)
        return SelectionReport(
            algorithm=best,
            density=density,
            band=band,
            candidates=candidates,
            estimates=estimates,
            infeasible=tuple(infeasible),
            method=self.method,
        )

    def _estimate_measured(
        self, graph, candidates: tuple[str, ...]
    ) -> tuple[dict[str, CostEstimate], list[str]]:
        assert self.calibration is not None
        estimates: dict[str, CostEstimate] = {}
        infeasible: list[str] = []
        for cand in candidates:
            if cand == "johnson":
                estimates[cand] = estimate_johnson(graph, self.spec, seed=self.seed)
            elif cand == "floyd-warshall":
                estimates[cand] = estimate_fw(graph, self.spec, self.calibration)
            elif cand == "boundary":
                try:
                    estimates[cand] = estimate_boundary(
                        graph, self.spec, self.calibration, seed=self.seed
                    )
                except BoundaryInfeasibleError:
                    infeasible.append(cand)
        return estimates, infeasible

    def _estimate_analytic(
        self, graph, candidates: tuple[str, ...]
    ) -> tuple[dict[str, CostEstimate], list[str]]:
        estimates: dict[str, CostEstimate] = {}
        infeasible: list[str] = []
        for cand in candidates:
            if cand == "johnson":
                estimates[cand] = analytic_estimate_johnson(
                    graph, self.spec, seed=self.seed
                )
            elif cand == "floyd-warshall":
                estimates[cand] = analytic_estimate_fw(graph, self.spec)
            elif cand == "boundary":
                try:
                    estimates[cand] = analytic_estimate_boundary(
                        graph, self.spec, seed=self.seed
                    )
                except BoundaryInfeasibleError:
                    infeasible.append(cand)
        return estimates, infeasible
