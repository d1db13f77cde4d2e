"""Per-algorithm execution-time estimators (paper Section IV-B).

Each estimator returns a :class:`CostEstimate` splitting the prediction
into computation and data-transfer terms, mirroring the paper's structure:
transfer terms follow §IV-B.1 (volumes over the measured PCIe throughput,
plus per-call latencies our transfer model charges), computation terms
follow §IV-B.2.

The **transfer** term of every estimator is the price of the schedule
that runs: the verifier's traffic record for the plan
(:func:`~repro.verifyplan.bounds.fw_traffic`,
:func:`~repro.verifyplan.bounds.johnson_traffic`,
:func:`~repro.verifyplan.bounds.boundary_traffic`: bytes and copies per
direction plus strided row segments, each field proven equal to the
emitted IR's tally) priced by
:meth:`~repro.verifyplan.bounds.Traffic.seconds`, which equals the sum of
the transfer model's per-copy durations. The record is closed-form, so
pricing it emits no IR.

The **computation** models:

* Floyd–Warshall — cost is ``O(n³)`` with graph-independent constants, so a
  single calibration replay at ``n₀`` extrapolates:
  ``T = T₀ · (n/n₀)³``.
* Johnson — per-batch times are near-uniform (the paper measures batch
  std-dev at 1.67–13.4% of the mean), so price ``k`` randomly chosen
  batches and scale: ``T = (n_b / k) · T_sampled``. The paper assumes
  ``n_b ≫ k``; at reduced scale one batch often holds every source, so a
  batch with more than ``K`` sources is itself priced from ``K`` of them
  (:func:`repro.core.ooc_johnson.collect_mssp_workloads`).
* boundary, small separator — operation count is ``O(n^{3/2})`` at
  ``k = √n`` [Djidjev], with graph-independent unit costs:
  ``T = T₀ · (n/n₀)^{3/2}``.
* boundary, large separator — ``N_op = n³/k² + (kB)³ + nkB² + n²B`` (steps
  2, 3, 4 with ``B`` boundary vertices per component), priced by a unit
  cost ``c_unit`` that *grows with the total boundary count* ``NB``; the
  paper bins ``NB`` into ranges ``[n^{3/4}, 2n^{3/4})``, ``[2n^{3/4},
  4n^{3/4})``, … and learns one ``c_unit`` per bin from training graphs
  (:class:`repro.select.calibrate.Calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.ooc_boundary import BoundaryPlan, plan_boundary
from repro.core.ooc_fw import plan_fw_block_size
from repro.core.ooc_johnson import (
    collect_mssp_workloads,
    plan_batch_size,
    sample_batch_sources,
)
from repro.gpu.device import DeviceSpec
from repro.gpu.kernels import mssp_batch_cost
from repro.verifyplan.bounds import boundary_traffic, fw_traffic, johnson_traffic

if TYPE_CHECKING:  # pragma: no cover
    from repro.select.calibrate import Calibration
    from repro.verifyplan.timing import TimingReport

__all__ = [
    "CostEstimate",
    "analytic_estimate_boundary",
    "analytic_estimate_fw",
    "analytic_estimate_johnson",
    "boundary_n_op",
    "estimate_boundary",
    "estimate_fw",
    "estimate_johnson",
]

#: batches sampled by the Johnson estimator ("In our experiments we set k to
#: be 5 as that achieved sufficient accuracy", §IV-B.2 footnote)
JOHNSON_SAMPLE_BATCHES = 5


@dataclass(frozen=True)
class CostEstimate:
    """Predicted execution time, split the way the paper's models are."""

    algorithm: str
    compute_seconds: float
    transfer_seconds: float
    detail: dict

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.transfer_seconds


# ----------------------------------------------------------------------
# Floyd–Warshall
# ----------------------------------------------------------------------
def estimate_fw(graph, spec: DeviceSpec, calibration: "Calibration") -> CostEstimate:
    """``T₀·(n/n₀)³`` compute + the priced traffic of the overlapped
    schedule at the planned block size."""
    n = graph.num_vertices
    t0, n0 = calibration.fw_reference
    compute = t0 * (n / n0) ** 3
    transfer = fw_traffic(n, plan_fw_block_size(n, spec)).seconds(spec)
    return CostEstimate(
        "floyd-warshall", compute, transfer, {"n0": n0, "t0": t0}
    )


# ----------------------------------------------------------------------
# Johnson
# ----------------------------------------------------------------------
def estimate_johnson(
    graph,
    spec: DeviceSpec,
    *,
    num_sample_batches: int = JOHNSON_SAMPLE_BATCHES,
    dynamic_parallelism: bool = True,
    seed: int = 0,
) -> CostEstimate:
    """Price ``k`` random batches, scale by the batch count (§IV-B.2).

    The sampled batches' Near-Far workloads come from
    :func:`~repro.core.ooc_johnson.collect_mssp_workloads` (host
    numerics, no device), each batch cut to a source sample when it holds
    more; :func:`~repro.gpu.kernels.mssp_batch_cost` prices them as the
    kernel time a device run would charge.
    """
    n = graph.num_vertices
    bat = plan_batch_size(graph, spec)
    n_b = (n + bat - 1) // bat
    k = min(num_sample_batches, n_b)
    chosen = sample_batch_sources(n, bat, k, seed)
    workloads = collect_mssp_workloads(
        graph, batch_size=bat, dynamic_parallelism=dynamic_parallelism,
        heavy_degree=64, sample=k, seed=seed,
    )
    sampled = sum(
        mssp_batch_cost(
            spec, workloads[b], bat, dynamic_parallelism=dynamic_parallelism
        )
        for b in chosen
    )

    compute = (n_b / k) * sampled
    transfer = johnson_traffic(n, graph.num_edges, bat).seconds(spec)
    return CostEstimate(
        "johnson", compute, transfer,
        {
            "bat": bat, "n_b": n_b, "sampled_batches": k,
            "sampled_sources": sum(s.size for s in chosen.values()),
            "sampled_seconds": sampled,
        },
    )


# ----------------------------------------------------------------------
# boundary
# ----------------------------------------------------------------------
def boundary_n_op(n: int, k: int, b_avg: float) -> float:
    """The paper's operation count for a large-separator graph:

    ``N_op = n³/k² + (kB)³ + nkB² + n²B`` (steps 2, 3, 4).
    """
    return n**3 / k**2 + (k * b_avg) ** 3 + n * k * b_avg**2 + n**2 * b_avg


def estimate_boundary(
    graph,
    spec: DeviceSpec,
    calibration: "Calibration",
    *,
    plan: BoundaryPlan | None = None,
    seed: int = 0,
) -> CostEstimate:
    """Small-separator graphs extrapolate ``n^{3/2}``; large-separator
    graphs price ``N_op`` with the binned ``c_unit`` (§IV-B.2).

    ``detail["plan"]`` is the :class:`BoundaryPlan` priced, which
    :func:`repro.core.api.solve_apsp` hands on to the driver.
    """
    n = graph.num_vertices
    if plan is None:
        plan = plan_boundary(graph, spec, seed=seed)
    k = plan.num_components
    nb = plan.num_boundary
    ideal = float(np.sqrt(k * n))
    small = nb <= calibration.small_separator_factor * ideal

    if small:
        t0, n0 = calibration.boundary_reference
        compute = t0 * (n / n0) ** 1.5
        detail = {"model": "small-separator", "n0": n0, "t0": t0}
    else:
        b_avg = nb / k
        n_op = boundary_n_op(n, k, b_avg)
        c_unit = calibration.c_unit_for(n, nb)
        compute = n_op * c_unit
        detail = {"model": "large-separator", "n_op": n_op, "c_unit": c_unit}
    transfer = boundary_traffic(plan).seconds(spec)
    detail.update({"k": k, "num_boundary": nb, "plan": plan})
    return CostEstimate("boundary", compute, transfer, detail)


# ----------------------------------------------------------------------
# analytic estimators (schedule-DAG critical path, no calibration)
# ----------------------------------------------------------------------
def _estimate_from_timing(algorithm: str, report: "TimingReport") -> CostEstimate:
    """A :class:`CostEstimate` whose total is the predicted makespan.

    The compute term is the compute engine's busy time; everything the
    critical path adds on top (exposed transfer time, launch overheads)
    lands in the transfer term, so ``total_seconds`` equals the symbolic
    makespan exactly.
    """
    compute = report.compute_seconds
    transfer = max(0.0, report.makespan - compute)
    return CostEstimate(
        algorithm, compute, transfer,
        {
            "model": "schedule-dag",
            "makespan_seconds": report.makespan,
            "overlap_efficiency": report.overlap_efficiency,
            "critical_path_length": len(report.critical_path),
        },
    )


def analytic_estimate_fw(graph, spec: DeviceSpec) -> CostEstimate:
    """Price Algorithm 1 off its own schedule IR: emit the plan, replay it
    symbolically, and report the critical-path makespan. No device runs."""
    from repro.core.ooc_fw import emit_fw_ir
    from repro.verifyplan.timing import predict_timing

    n = graph.num_vertices
    b = plan_fw_block_size(n, spec, overlap=True)
    ir = emit_fw_ir(n, spec, block_size=b, overlap=True)
    return _estimate_from_timing("floyd-warshall", predict_timing([ir], spec))


def analytic_estimate_johnson(
    graph,
    spec: DeviceSpec,
    *,
    num_sample_batches: int = JOHNSON_SAMPLE_BATCHES,
    seed: int = 0,
) -> CostEstimate:
    """Johnson via the schedule IR: sample ``k`` batch workloads on the
    CPU frontier simulator (no device time; the same source sample as
    :func:`estimate_johnson`), price every ``mssp`` launch with the
    modelled cost, and take the symbolic makespan."""
    from repro.core.ooc_johnson import emit_johnson_ir
    from repro.verifyplan.timing import predict_timing

    n = graph.num_vertices
    bat = max(1, min(plan_batch_size(graph, spec, num_row_buffers=2), n))
    workloads = collect_mssp_workloads(
        graph, batch_size=bat, sample=num_sample_batches, seed=seed
    )
    ir = emit_johnson_ir(graph, spec, batch_size=bat, workloads=workloads)
    return _estimate_from_timing("johnson", predict_timing([ir], spec))


def analytic_estimate_boundary(
    graph,
    spec: DeviceSpec,
    *,
    plan: BoundaryPlan | None = None,
    seed: int = 0,
) -> CostEstimate:
    """Boundary method via the schedule IR critical path. Raises
    :class:`~repro.core.ooc_boundary.BoundaryInfeasibleError` like
    :func:`estimate_boundary` when no partition fits the device."""
    from repro.core.ooc_boundary import emit_boundary_ir
    from repro.verifyplan.timing import predict_timing

    if plan is None:
        plan = plan_boundary(graph, spec, seed=seed)
    ir = emit_boundary_ir(graph, spec, plan=plan, seed=seed)
    return _estimate_from_timing("boundary", predict_timing([ir], spec))
