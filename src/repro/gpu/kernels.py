"""Kernel cost models for the simulated device.

Each function returns the modelled duration (seconds) of one kernel, built
roofline-style: ``max(flop time, memory time)`` plus the launch overhead.
The numeric work itself is done by the algorithm layer (:mod:`repro.core`,
:mod:`repro.sssp`) on the device arrays. :func:`kernel_seconds` prices the
out-of-core drivers' kernels by name from their operand shapes, and
:func:`launch_seconds` applies it to one launch's operands; the device
executor (:mod:`repro.gpu.executor`) and the cluster's rank executor
charge that, and the static timing pass (:mod:`repro.verifyplan.timing`)
replays the same number, so one code path yields both the distances and
the simulated timing.

The Near-Far MSSP model additionally captures the two GPU-specific effects
the paper engineers around (Section III-B):

* **occupancy** — one SSSP instance occupies one thread block, so a batch of
  ``bat`` instances uses ``bat`` of the device's ``max_active_blocks``;
  memory-bound traversal kernels saturate device throughput at a fraction
  of full occupancy (``spec.occupancy_saturation``), below which the rate
  falls off linearly;
* **dynamic parallelism** — child kernels spread the edge lists of
  high-out-degree vertices across otherwise-idle blocks, restoring full
  throughput for those relaxations at a per-launch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import DeviceSpec

__all__ = [
    "MsspWorkload",
    "extract_cost",
    "fw_tile_cost",
    "kernel_seconds",
    "launch_seconds",
    "minplus_cost",
    "mssp_batch_cost",
    "mssp_occupancy",
]

#: bytes per distance value on the device — the paper uses 4-byte ``int``,
#: our numeric layer uses float32 tiles (see ``repro.core.minplus``), so the
#: modelled and actual element sizes agree.
DEVICE_ELEM_BYTES = 4


def _roofline(spec: "DeviceSpec", flops: float, nbytes: float, rate: float) -> float:
    return spec.kernel_launch_overhead + max(flops / rate, nbytes / spec.mem_bandwidth)


def minplus_cost(spec: "DeviceSpec", bi: int, bk: int, bj: int) -> float:
    """Cost of one tiled min-plus product ``C(bi×bj) ⊦ A(bi×bk) ⊗ B(bk×bj)``.

    2 ops (add + min) per inner element; with shared-memory tiling each
    operand element is read ``O(1)`` times from global memory.
    """
    flops = 2.0 * bi * bk * bj
    nbytes = DEVICE_ELEM_BYTES * (bi * bk + bk * bj + 2.0 * bi * bj)
    return _roofline(spec, flops, nbytes, spec.minplus_rate)


def fw_tile_cost(spec: "DeviceSpec", b: int) -> float:
    """Cost of running Floyd–Warshall to closure on one ``b×b`` tile.

    Same ``2b³`` op count as a min-plus product but with a sequential
    dependence across the ``b`` outer iterations, which costs a modest
    efficiency factor relative to the fully parallel product kernel.
    """
    flops = 2.0 * b**3 * 1.25
    nbytes = DEVICE_ELEM_BYTES * (b * b) * 3.0
    return _roofline(spec, flops, nbytes, spec.minplus_rate)


def extract_cost(spec: "DeviceSpec", rows: int, cols: int) -> float:
    """Cost of an on-device submatrix extraction (ExtractRow/ExtractCol in
    Algorithm 3): pure memory movement."""
    nbytes = DEVICE_ELEM_BYTES * rows * cols * 2.0
    return _roofline(spec, 0.0, nbytes, spec.minplus_rate)


_FW_KERNELS = frozenset({"fw_diag", "fw_comp", "fw_bound", "fw_incore", "fold_closure"})
_EXTRACT_KERNELS = frozenset({"extract_c2b", "extract_b2c"})
_MINPLUS_KERNELS = frozenset({"fold_panel", "rank1_patch"})


def kernel_seconds(
    name: str,
    spec: "DeviceSpec",
    out_shape: tuple[int, ...],
    operand_shapes: "Iterable[tuple[int, ...]]",
) -> float:
    """Modelled duration of the driver kernel ``name`` from its shapes.

    ``out_shape`` is the written tile; ``operand_shapes`` are the tiles it
    reads, without the accumulator. FW closures (including the dynamic
    patch's ``fold_closure``) price by the written tile, extractions by the
    bytes they move, and min-plus products (``mp_*``, and the patch's
    ``fold_panel``/``rank1_patch``) take ``(bi, bj)`` from the output and
    the inner dimension from the first operand that conforms with it.
    Data-dependent kernels (Johnson's ``mssp``, the patch's ``sssp_rows``)
    have no shape rule: their caller supplies the cost.
    """
    rows, cols = out_shape
    if name in _FW_KERNELS:
        return fw_tile_cost(spec, rows)
    if name in _EXTRACT_KERNELS:
        return extract_cost(spec, rows, cols)
    if name.startswith("mp_") or name in _MINPLUS_KERNELS:
        for r, c in operand_shapes:
            if r == rows:
                return minplus_cost(spec, rows, c, cols)
            if c == cols:
                return minplus_cost(spec, rows, r, cols)
        raise ValueError(
            f"kernel {name!r}: no read operand conforms with the "
            f"{rows}×{cols} write — cannot infer the inner dimension"
        )
    raise ValueError(f"kernel {name!r} has no cost model — attach cost= at emission")


def launch_seconds(
    name: str,
    spec: "DeviceSpec",
    reads: Sequence[Any],
    writes: Sequence[Any],
    shape: Callable[[Any], tuple[int, ...]],
) -> float:
    """:func:`kernel_seconds` of one launch, from its operands.

    Operands are ``buffer`` or ``(buffer, rect)``, as a schedule passes
    them to an emitter; ``buffer`` is an array (compared by identity) or
    an IR buffer id. ``shape(operand)`` is the ``(rows, cols)`` it covers.
    The first write is priced against every read that is not that same
    region of that same buffer — the accumulator a min-plus product folds
    into. A bare buffer is its whole extent.
    """
    out = writes[0]
    operands = [shape(r) for r in reads if not _same_operand(r, out, shape)]
    return kernel_seconds(name, spec, shape(out), operands)


def _same_operand(a: Any, b: Any, shape: Callable[[Any], tuple[int, ...]]) -> bool:
    a_buf, a_rect = a if isinstance(a, tuple) else (a, None)
    b_buf, b_rect = b if isinstance(b, tuple) else (b, None)
    if not (a_buf is b_buf or (isinstance(a_buf, int) and a_buf == b_buf)):
        return False
    if a_rect is None or b_rect is None:
        return shape(a) == shape(b)
    return a_rect == b_rect


@dataclass(frozen=True)
class MsspWorkload:
    """Workload statistics of one executed MSSP (multi-source SSSP) batch.

    Collected by the real Near-Far execution in
    :mod:`repro.sssp.near_far`; consumed by :func:`mssp_batch_cost`.
    """

    #: total edge relaxations performed across all sources in the batch
    relaxations: int
    #: relaxations of edges out of high-out-degree vertices (dynamic
    #: parallelism candidates)
    heavy_relaxations: int
    #: number of near/far bucket iterations (synchronisation points)
    iterations: int
    #: number of dynamic-parallelism child kernel launches that the heavy
    #: vertices would require (0 when the feature is off)
    child_launches: int

    def __post_init__(self) -> None:
        if self.heavy_relaxations > self.relaxations:
            raise ValueError("heavy_relaxations cannot exceed relaxations")


def mssp_occupancy(spec: "DeviceSpec", bat: int) -> float:
    """Fraction of ``relax_rate`` a ``bat``-instance MSSP launch reaches:
    full once ``bat`` covers ``occupancy_saturation`` of the active blocks."""
    return min(1.0, bat / max(1.0, spec.occupancy_saturation * spec.max_active_blocks))


def mssp_batch_cost(
    spec: "DeviceSpec",
    workload: MsspWorkload,
    bat: int,
    *,
    dynamic_parallelism: bool,
) -> float:
    """Cost of one MSSP kernel processing ``bat`` SSSP instances.

    Without dynamic parallelism every relaxation runs at the
    occupancy-limited rate ``relax_rate · min(1, bat/max_active_blocks)``.
    With it, heavy-vertex relaxations run at the full rate but pay the
    child-kernel launch overheads.
    """
    if bat <= 0:
        raise ValueError("bat must be positive")
    base_rate = spec.relax_rate * mssp_occupancy(spec, bat)
    if dynamic_parallelism and workload.heavy_relaxations:
        light = workload.relaxations - workload.heavy_relaxations
        time = light / base_rate
        time += workload.heavy_relaxations / spec.relax_rate
        time += workload.child_launches * spec.child_kernel_overhead
    else:
        time = workload.relaxations / base_rate
    time += workload.iterations * spec.sync_overhead
    return spec.kernel_launch_overhead + time
