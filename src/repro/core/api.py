"""Top-level facade: ``solve_apsp``.

One call runs the full pipeline a user of the paper's system would run:
optionally auto-select the algorithm (density filter + cost models), then
execute the chosen out-of-core implementation on the simulated device.
"""

from __future__ import annotations

from repro.core.ooc_boundary import ooc_boundary
from repro.core.ooc_fw import ooc_floyd_warshall
from repro.core.ooc_johnson import ooc_johnson
from repro.core.result import APSPResult
from repro.gpu.device import Device, DeviceSpec, V100

__all__ = ["ALGORITHMS", "solve_apsp", "solve_apsp_negative"]

ALGORITHMS = ("auto", "floyd-warshall", "johnson", "boundary")


def solve_apsp(
    graph,
    *,
    algorithm: str = "auto",
    device: Device | DeviceSpec | None = None,
    density_scale: float = 1.0,
    store_mode: str = "ram",
    store_dir=None,
    seed: int = 0,
    faults=None,
    retry=None,
    checkpoint_dir=None,
    **algorithm_options,
) -> APSPResult:
    """Solve all-pairs shortest paths out-of-core.

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.csr.CSRGraph` with non-negative weights.
    algorithm:
        ``"auto"`` (the paper's selector), ``"floyd-warshall"``,
        ``"johnson"``, or ``"boundary"``.
    device:
        A :class:`~repro.gpu.device.Device`, a spec, or ``None`` for a
        fresh V100.
    density_scale:
        Converts scaled stand-in densities to paper-equivalent units for
        the selector's density filter (see :mod:`repro.graphs.suite`).
    store_mode:
        ``"ram"`` or ``"disk"`` for the output matrix (Table IV regime).
    faults:
        A :class:`~repro.faults.FaultPlan` injected into the device — chosen
        transfers, kernel launches, or allocations raise transient errors
        that the drivers retry with capped exponential backoff.
    retry:
        A :class:`~repro.faults.RetryPolicy` overriding the default retry
        budget/backoff schedule.
    checkpoint_dir:
        Directory for per-outer-iteration checkpoints; a later call with
        the same directory resumes from whatever it holds (a
        :class:`~repro.faults.CheckpointError` if that belongs to a
        different graph/algorithm).
    algorithm_options:
        Forwarded to the chosen driver (e.g. ``overlap``,
        ``batch_transfers``, ``dynamic_parallelism``, ``num_components``,
        ``block_size``, ``batch_size``, or ``engine``, a
        :class:`~repro.core.engine.KernelEngine` for the FW and boundary
        drivers' host min-plus and FW tiles, which Johnson ignores;
        without one they run the process-wide default, compiled unless
        ``REPRO_JIT=off``).

    Returns
    -------
    APSPResult
        Distances plus the simulated execution record; when the selector
        ran, its :class:`~repro.select.selector.SelectionReport` is under
        ``result.stats["selection"]``.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if device is None:
        device = Device(V100, faults=faults, retry=retry)
    elif isinstance(device, DeviceSpec):
        device = Device(device, faults=faults, retry=retry)
    elif faults is not None or retry is not None:
        if faults is not None:
            device.faults = faults
        if retry is not None:
            device.retry = retry
    report = None
    if algorithm == "auto":
        from repro.select.selector import Selector

        selector = Selector(device.spec, density_scale=density_scale, seed=seed)
        report = selector.select(graph)
        algorithm = report.algorithm
        if algorithm == "boundary" and not algorithm_options.keys() & {
            "plan", "num_components", "batch_transfers", "overlap"
        }:
            # the selector planned with the driver's defaults and seed:
            # run the plan it priced instead of partitioning again
            algorithm_options["plan"] = report.estimates["boundary"].detail["plan"]

    common = dict(store_mode=store_mode, store_dir=store_dir)
    if checkpoint_dir is not None:
        common["checkpoint"] = checkpoint_dir
    if algorithm == "floyd-warshall":
        result = ooc_floyd_warshall(graph, device, **common, **algorithm_options)
    elif algorithm == "johnson":
        # SSSP-based: no dense min-plus tiles, so no kernel engine to pass
        # (``engine=`` may still come with ``algorithm="auto"``)
        algorithm_options.pop("engine", None)
        result = ooc_johnson(graph, device, **common, **algorithm_options)
    else:
        result = ooc_boundary(graph, device, seed=seed, **common, **algorithm_options)
    if report is not None:
        result.stats["selection"] = report
    return result


def solve_apsp_negative(
    num_vertices: int,
    src,
    dst,
    weights,
    *,
    name: str = "",
    **solve_options,
) -> APSPResult:
    """Solve APSP on a digraph that may contain **negative** edge weights.

    Classic Johnson's algorithm, phase 1: Bellman–Ford potentials reweight
    every edge non-negative (raising
    :class:`~repro.sssp.reweight.NegativeCycleError` if impossible), any
    :func:`solve_apsp` configuration runs on the reweighted graph, and the
    stored distances are shifted back to original weights in place.

    Takes raw edge arrays because :class:`~repro.graphs.csr.CSRGraph`
    rejects negative weights by construction.
    """
    from repro.sssp.reweight import reweight_graph

    graph, h = reweight_graph(num_vertices, src, dst, weights, name=name)
    result = solve_apsp(graph, **solve_options)
    # Undo the reweighting on the host store, respecting the internal
    # vertex order (the boundary algorithm permutes vertices).
    h_internal = h if result.perm is None else h[result.inv_perm]
    shift = (h_internal[None, :] - h_internal[:, None]).astype(
        result.store.data.dtype
    )
    result.store.data[...] = result.store.data + shift
    result.stats["reweighted"] = True
    result.stats["potentials"] = h
    return result
