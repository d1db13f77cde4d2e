"""One-time per-device calibration for the cost models (paper §IV-B.2).

The paper seeds its models with measured reference runs:

* FW — "for a randomly generated graph with n₀ vertices, we can observe the
  computation time T₀";
* boundary, small separator — same idea with a small-separator reference
  graph and ``n^{3/2}`` scaling;
* boundary, large separator — a ``c_unit`` (seconds per operation) per
  ``NB``-range bin, fit on a set of training graphs.

Here the computation time is the simulated device's, which depends only
on the schedule: :class:`Calibration` replays each reference run's
schedule IR on the device's own clock
(:func:`~repro.verifyplan.timing.predict_timing`) and reads the compute
engine's busy seconds — a device run's ``clock.busy["compute"]`` — as
the models add their own transfer terms. It solves nothing and builds
no device; FW's schedule needs only ``n₀``, while the boundary
references still partition their graphs to plan theirs.

As in the paper, calibration is a one-time step per device: the constants
are simulated seconds, fixed by the spec, the reference sizes and the
seed, so :meth:`Calibration.run` computes them once per process and key
and copies them into every later instance with the same key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ooc_boundary import BoundaryInfeasibleError, emit_boundary_ir, plan_boundary
from repro.core.ooc_fw import emit_fw_ir
from repro.gpu.device import DeviceSpec
from repro.graphs.generators import planar_like, random_geometric
from repro.verifyplan.timing import predict_timing

__all__ = ["Calibration"]

#: constants :meth:`Calibration.run` computed in this process, keyed by
#: spec, reference sizes, separator factor, seed and
#: ``with_large_separator_bins``: ``(fw_reference, boundary_reference,
#: c_unit_bins)``
_CALIBRATED: dict[
    tuple, tuple[tuple[float, float], tuple[float, float], dict[int, float]]
] = {}


@dataclass
class Calibration:
    """Reference timings + c_unit table for one device spec."""

    spec: DeviceSpec
    #: reference graphs are sized relative to the target workloads
    fw_n0: int = 384
    boundary_n0: int = 768
    small_separator_factor: float = 4.0
    seed: int = 0
    fw_reference: tuple[float, float] = field(init=False, default=(0.0, 1.0))
    boundary_reference: tuple[float, float] = field(init=False, default=(0.0, 1.0))
    #: c_unit (seconds/op) per NB-range bin index (0 → [n^¾, 2n^¾), …)
    c_unit_bins: dict[int, float] = field(init=False, default_factory=dict)
    _calibrated: bool = field(init=False, default=False)

    # ------------------------------------------------------------------
    def run(self, *, with_large_separator_bins: bool = True) -> "Calibration":
        """Execute all calibration runs (idempotent; once per process and
        key, see :data:`_CALIBRATED`)."""
        if self._calibrated:
            return self
        key = (
            self.spec, self.fw_n0, self.boundary_n0,
            self.small_separator_factor, self.seed, with_large_separator_bins,
        )
        memo = _CALIBRATED.get(key)
        if memo is None:
            self._run_fw_reference()
            self._run_boundary_reference()
            if with_large_separator_bins:
                self._fit_c_unit_bins()
            _CALIBRATED[key] = (
                self.fw_reference, self.boundary_reference, dict(self.c_unit_bins)
            )
        else:
            self.fw_reference, self.boundary_reference, bins = memo
            self.c_unit_bins = dict(bins)
        self._calibrated = True
        return self

    def _compute_seconds(self, ir) -> float:
        """Compute-engine busy seconds of one schedule, replayed."""
        return predict_timing([ir], self.spec).compute_seconds

    def _run_fw_reference(self) -> None:
        n0 = self.fw_n0
        self.fw_reference = (
            self._compute_seconds(emit_fw_ir(n0, self.spec)), float(n0)
        )

    def _run_boundary_reference(self) -> None:
        n0 = self.boundary_n0
        g = planar_like(n0, seed=self.seed, name="boundary-calib")
        ir = emit_boundary_ir(g, self.spec, seed=self.seed)
        self.boundary_reference = (self._compute_seconds(ir), float(n0))

    def _fit_c_unit_bins(self) -> None:
        """Train c_unit per NB-range on geometric graphs of rising degree.

        Denser geometric graphs partition with progressively larger
        boundary sets, populating successive NB bins. Every graph is
        partitioned, as its bin depends on its boundary count, but only the
        last feasible graph of a bin is replayed: its c_unit is the one the
        bin keeps. Bins keep the order in which a graph first lands in
        them, which :meth:`c_unit_for` breaks nearest-bin ties by.
        """
        from repro.select.cost_models import boundary_n_op

        n0 = self.boundary_n0
        last: dict[int, tuple] = {}  # bin -> (graph, plan) of its last graph
        for idx, deg in enumerate((6.0, 12.0, 24.0, 48.0)):
            radius = float(np.sqrt(deg / (np.pi * n0)))
            g = random_geometric(n0, radius, seed=self.seed + idx, name=f"cunit-{idx}")
            try:
                plan = plan_boundary(g, self.spec, seed=self.seed)
            except BoundaryInfeasibleError:
                continue
            last[self._bin_index(g.num_vertices, plan.num_boundary)] = (g, plan)
        for bin_idx, (g, plan) in last.items():
            ir = emit_boundary_ir(g, self.spec, plan=plan, seed=self.seed)
            k = plan.num_components
            n_op = boundary_n_op(g.num_vertices, k, plan.num_boundary / k)
            self.c_unit_bins[bin_idx] = self._compute_seconds(ir) / n_op

    # ------------------------------------------------------------------
    @staticmethod
    def _bin_index(n: int, nb: int) -> int:
        """NB-range index: 0 → [n^¾, 2n^¾), 1 → [2n^¾, 4n^¾), … (§IV-B.2)."""
        ideal = n**0.75
        ratio = max(nb / ideal, 1.0)
        return int(np.floor(np.log2(ratio)))

    def c_unit_for(self, n: int, nb: int) -> float:
        """c_unit for a graph with ``nb`` boundary vertices (nearest bin)."""
        if not self.c_unit_bins:
            raise RuntimeError("calibration has no c_unit bins; call run() first")
        idx = self._bin_index(n, nb)
        if idx in self.c_unit_bins:
            return self.c_unit_bins[idx]
        nearest = min(self.c_unit_bins, key=lambda b: abs(b - idx))
        return self.c_unit_bins[nearest]
