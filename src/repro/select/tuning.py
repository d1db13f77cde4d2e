"""Empirical parameter tuning (extension).

The paper fixes two knobs by observation — Δ for Near-Far (implicit) and
``k = √n/4`` for the boundary algorithm (§V-F). This module turns both
observations into *procedures*, using the same sampled-measurement idea as
the paper's Johnson cost model:

* :func:`tune_delta` — price a few sampled MSSP batches per candidate Δ
  and keep the fastest;
* :func:`tune_components` — run the boundary algorithm per candidate ``k``
  (these runs are cheap at component granularity) and keep the fastest.

Both return the winning parameter plus the full sweep for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ooc_boundary import BoundaryInfeasibleError, ooc_boundary
from repro.core.ooc_johnson import (
    collect_mssp_workloads,
    plan_batch_size,
    sample_batch_sources,
)
from repro.gpu.device import Device, DeviceSpec
from repro.gpu.kernels import mssp_batch_cost
from repro.sssp.frontier import suggest_delta

__all__ = ["SweepPoint", "TuningResult", "tune_components", "tune_delta"]


@dataclass(frozen=True)
class SweepPoint:
    value: float
    seconds: float
    feasible: bool = True


@dataclass(frozen=True)
class TuningResult:
    parameter: str
    best: float
    sweep: tuple[SweepPoint, ...]

    def describe(self) -> str:
        rows = ", ".join(
            f"{p.value:g}→{p.seconds:.4g}s" if p.feasible else f"{p.value:g}→infeasible"
            for p in self.sweep
        )
        return f"{self.parameter}: best={self.best:g} ({rows})"


def tune_delta(
    graph,
    spec: DeviceSpec,
    *,
    factors: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    num_sample_batches: int = 3,
    seed: int = 0,
) -> TuningResult:
    """Pick Δ by pricing sampled MSSP batches per candidate.

    Candidates are multiples of the :func:`suggest_delta` heuristic; the
    winner minimises the summed modelled kernel time of the same sampled
    batches (:func:`~repro.core.ooc_johnson.collect_mssp_workloads`;
    correctness is Δ-independent, so only time matters).
    """
    base = suggest_delta(graph)
    bat = plan_batch_size(graph, spec)
    chosen = sample_batch_sources(graph.num_vertices, bat, num_sample_batches, seed)

    sweep = []
    for factor in factors:
        delta = base * factor
        workloads = collect_mssp_workloads(
            graph, batch_size=bat, delta=delta, heavy_degree=32,
            sample=num_sample_batches, seed=seed,
        )
        seconds = sum(
            mssp_batch_cost(spec, workloads[b], bat, dynamic_parallelism=True)
            for b in chosen
        )
        sweep.append(SweepPoint(value=delta, seconds=seconds))
    best = min(sweep, key=lambda p: p.seconds)
    return TuningResult("delta", best.value, tuple(sweep))


def tune_components(
    graph,
    spec: DeviceSpec,
    *,
    factors: tuple[float, ...] = (1 / 8, 1 / 4, 1 / 2, 1.0),
    seed: int = 0,
) -> TuningResult:
    """Pick the boundary algorithm's ``k`` by measuring candidate runs.

    Candidates are multiples of √n (the paper's √n/4 is ``factor=0.25``).
    Infeasible candidates (working set exceeds device memory) are recorded
    and skipped.
    """
    root_n = np.sqrt(max(1, graph.num_vertices))
    sweep = []
    for factor in factors:
        k = max(2, int(round(root_n * factor)))
        try:
            res = ooc_boundary(graph, Device(spec), num_components=k, seed=seed)
        except BoundaryInfeasibleError:
            sweep.append(SweepPoint(value=float(k), seconds=np.inf, feasible=False))
            continue
        sweep.append(SweepPoint(value=float(k), seconds=res.simulated_seconds))
    feasible = [p for p in sweep if p.feasible]
    if not feasible:
        raise BoundaryInfeasibleError(0, 0, spec.memory_bytes, "no feasible k in sweep")
    best = min(feasible, key=lambda p: p.seconds)
    return TuningResult("num_components", best.value, tuple(sweep))
