"""Cluster scaling baseline (``python -m repro bench-cluster``).

Pins the distributed blocked-FW model's **strong-scaling** (fixed
``n``, growing node/device count) and **weak-scaling** (``n ∝ √N``,
constant matrix share per node) curves into ``BENCH_cluster.json`` at
the repo root. For every configuration the sweep records the statically
predicted makespan (α–β link replay,
:func:`repro.verifyplan.timing.predict_timing`), the network
busy time, and the exact communication volume — and *also* executes the
dynamic cluster simulator, asserting its simulated makespan equals the
static prediction bit-for-bit (``exact`` per entry).

Both sides are deterministic models (simulated clocks, not wall
clocks), so the baseline is machine-independent and ``--check`` can
demand exact equality: any schedule or cost-model drift fails CI before
a wall-clock benchmark would notice.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.baseline import baseline_path, diff_configs, read_json, record

__all__ = [
    "SCALING_CONFIGS",
    "bench_cluster_path",
    "collect_baseline",
    "compare_baseline",
    "load_baseline",
    "save_baseline",
]

#: per-entry fields that must match the recorded baseline exactly (the
#: models are deterministic, so even the float makespans are pinned)
BASELINE_FIELDS = (
    "ok",
    "exact",
    "block_size",
    "num_messages",
    "total_bytes",
    "peak_bytes",
    "num_kernels",
    "makespan",
    "net_seconds",
)

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


def bench_cluster_path() -> Path:
    """Canonical location of ``BENCH_cluster.json`` (repo root, or
    ``REPRO_BENCH_CLUSTER`` when set)."""
    return baseline_path("BENCH_cluster.json", "REPRO_BENCH_CLUSTER")


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
        "config": dict(cfg),
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


def collect_baseline(configs=SCALING_CONFIGS) -> dict:
    """Verify + simulate every scaling configuration; return the payload."""
    entries = {cfg["name"]: _run_config(cfg) for cfg in configs}
    return {
        "experiment": "cluster",
        "title": "distributed blocked-FW scaling baseline (predicted == simulated)",
        "generated_by": "python -m repro bench-cluster",
        "fields": list(BASELINE_FIELDS),
        "configs": entries,
    }


def save_baseline(payload: dict | None = None, path: Path | str | None = None) -> Path:
    """Write the baseline to ``BENCH_cluster.json``."""
    return record(
        payload or collect_baseline(), path or bench_cluster_path(), sort_keys=False
    )


def load_baseline(path: Path | str | None = None) -> dict:
    """Read the checked-in baseline."""
    return read_json(path or bench_cluster_path())


def compare_baseline(baseline: dict | None = None) -> list[str]:
    """Recompute the sweep and diff it against ``baseline`` exactly."""
    return diff_configs(baseline or load_baseline(), collect_baseline(), BASELINE_FIELDS)
