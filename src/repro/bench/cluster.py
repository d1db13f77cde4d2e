"""Cluster scaling record (``benchmarks/test_cluster_scaling.py``).

Collects the distributed blocked-FW model's **strong-scaling** (fixed
``n``, growing node/device count) and **weak-scaling** (``n ∝ √N``,
constant matrix share per node) curves as the ``cluster`` record under
``benchmarks/results/``. For every configuration the sweep records the
statically predicted makespan (α–β link replay,
:func:`repro.verifyplan.timing.predict_timing`), the network
busy time, and the exact communication volume — and *also* executes the
dynamic cluster simulator, whose simulated makespan must equal the
static prediction bit-for-bit (``exact`` per row).

Both sides are deterministic models (simulated clocks, not wall
clocks), so the record is machine-independent and
``tests/test_benchmark_records.py`` demands exact equality with the
committed copy: any schedule or cost-model drift fails before a
wall-clock benchmark would notice.
"""

from __future__ import annotations

from repro.bench.runner import ExperimentRecord

__all__ = ["SCALING_CONFIGS", "collect_baseline"]

#: (entry name, vertices, nodes, devices/node, edge seed) — strong
#: scaling holds n fixed while the fleet grows; weak scaling grows the
#: matrix with the node count (n ∝ √N keeps the per-node share flat)
SCALING_CONFIGS = (
    {"name": "strong-n180-1x1", "curve": "strong", "n": 180, "nodes": 1, "devices": 1, "seed": 5},
    {"name": "strong-n180-2x1", "curve": "strong", "n": 180, "nodes": 2, "devices": 1, "seed": 5},
    {"name": "strong-n180-2x2", "curve": "strong", "n": 180, "nodes": 2, "devices": 2, "seed": 5},
    {"name": "strong-n180-4x1", "curve": "strong", "n": 180, "nodes": 4, "devices": 1, "seed": 5},
    {"name": "strong-n180-4x2", "curve": "strong", "n": 180, "nodes": 4, "devices": 2, "seed": 5},
    {"name": "weak-n120-1x1", "curve": "weak", "n": 120, "nodes": 1, "devices": 1, "seed": 6},
    {"name": "weak-n170-2x1", "curve": "weak", "n": 170, "nodes": 2, "devices": 1, "seed": 6},
    {"name": "weak-n240-4x1", "curve": "weak", "n": 240, "nodes": 4, "devices": 1, "seed": 6},
)


def _run_config(cfg: dict) -> dict:
    from repro.cluster import ClusterSpec, verify_cluster
    from repro.graphs.generators import rmat

    graph = rmat(cfg["n"], 6 * cfg["n"], seed=cfg["seed"])
    cluster = ClusterSpec.make(cfg["nodes"], cfg["devices"])
    ver = verify_cluster(cfg["n"], cluster, graph=graph)
    audit = ver.audits["cluster-fw"]
    params = audit.parameters
    timing = audit.timing
    assert timing is not None
    return {
        "config": cfg["name"],
        "curve": cfg["curve"],
        "n": cfg["n"],
        "nodes": cfg["nodes"],
        "devices": cfg["devices"],
        "seed": cfg["seed"],
        "cluster": cluster.name,
        "grid": params["grid"],
        "ok": ver.ok,
        "exact": bool(audit.checks) and all(c.passed for c in audit.checks),
        "block_size": params["block_size"],
        "num_messages": params["num_messages"],
        "total_bytes": params["total_bytes"],
        "peak_bytes": audit.peak_bytes,
        "num_kernels": params["num_kernels"],
        "makespan": timing.makespan,
        "net_seconds": timing.net_seconds,
        "compute_seconds": timing.compute_seconds,
    }


def collect_baseline() -> ExperimentRecord:
    """Verify + simulate every scaling configuration: one row each."""
    return ExperimentRecord(
        experiment="cluster",
        title="distributed blocked-FW scaling baseline (predicted == simulated)",
        paper_expectation=(
            "the statically predicted makespan of the distributed blocked-FW "
            "schedule equals the cluster simulator's, at every node and "
            "device count"
        ),
        rows=[_run_config(cfg) for cfg in SCALING_CONFIGS],
    )
