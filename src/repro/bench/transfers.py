"""Transfer-volume baseline (``python -m repro bench-transfers``).

The static plan verifier (:mod:`repro.verifyplan`) predicts, per
algorithm, exactly how many bytes each OOC schedule moves across PCIe
and how much device memory it peaks at. This module pins those symbolic
predictions for a fixed set of graph/device configurations into
``BENCH_transfers.json`` at the repo root so CI can catch *transfer
regressions* — a driver change that silently starts re-uploading
resident blocks or doubles its download volume fails the
``--check`` gate (and ``tests/test_transfer_baseline.py``) before any
wall-clock benchmark would notice.

Everything here is static: no :class:`~repro.gpu.device.Device` is
instantiated and nothing executes, so the baseline is exact and
machine-independent.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.baseline import baseline_path, diff_configs, read_json, record

__all__ = [
    "STANDARD_CONFIGS",
    "bench_transfers_path",
    "collect_baseline",
    "compare_baseline",
    "load_baseline",
    "save_baseline",
]

#: audited fields that must match the baseline exactly (all byte-exact
#: integers — the plan IR is deterministic)
BASELINE_FIELDS = (
    "feasible",
    "peak_bytes",
    "bytes_h2d",
    "bytes_d2h",
    "num_h2d",
    "num_d2h",
    "redundant_bytes",
)

#: (config name, graph builder args, device) — small enough to audit in
#: milliseconds, varied enough to exercise every driver code path
#: (multi-block FW incl. the nd=3 buffer-reuse case, batched boundary
#: output, Johnson row batching, the scaled-V100 charge model).
STANDARD_CONFIGS = (
    {"name": "road220-test", "kind": "road", "n": 220, "deg": 2.6, "seed": 1, "device": "test"},
    {"name": "rmat110-test", "kind": "rmat", "n": 110, "m": 800, "seed": 2, "device": "test"},
    {"name": "er200-test", "kind": "er", "n": 200, "m": 1200, "seed": 3, "device": "test"},
    {"name": "road400-test", "kind": "road", "n": 400, "deg": 2.6, "seed": 7, "device": "test"},
    {"name": "road900-v100", "kind": "road", "n": 900, "deg": 2.6, "seed": 3, "device": "v100/64"},
)


def bench_transfers_path() -> Path:
    """Canonical location of ``BENCH_transfers.json`` (repo root, or
    ``REPRO_BENCH_TRANSFERS`` when set)."""
    return baseline_path("BENCH_transfers.json", "REPRO_BENCH_TRANSFERS")


def _build_graph(cfg: dict):
    from repro.graphs.generators import erdos_renyi, rmat, road_like

    if cfg["kind"] == "road":
        return road_like(cfg["n"], cfg["deg"], seed=cfg["seed"])
    if cfg["kind"] == "rmat":
        return rmat(cfg["n"], cfg["m"], seed=cfg["seed"])
    return erdos_renyi(cfg["n"], cfg["m"], seed=cfg["seed"])


def _device_spec(name: str):
    from repro.gpu.device import TEST_DEVICE, V100

    if name == "test":
        return TEST_DEVICE
    if name == "v100/64":
        return V100.scaled(1 / 64)
    raise ValueError(f"unknown baseline device {name!r}")


def collect_baseline(configs=STANDARD_CONFIGS) -> dict:
    """Audit every standard configuration with the plan verifier and
    return the baseline payload (without writing it)."""
    from repro.verifyplan import verify_plan

    entries = {}
    for cfg in configs:
        graph = _build_graph(cfg)
        ver = verify_plan(graph, _device_spec(cfg["device"]))
        entries[cfg["name"]] = {
            "config": dict(cfg),
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "ok": ver.ok,
            "algorithms": {
                name: {
                    "verified": audit.ok,
                    **{f: getattr(audit, f) for f in BASELINE_FIELDS},
                }
                for name, audit in ver.audits.items()
            },
        }
    return {
        "experiment": "transfers",
        "title": "static transfer-volume and peak-residency baseline",
        "generated_by": "python -m repro bench-transfers",
        "fields": list(BASELINE_FIELDS),
        "configs": entries,
    }


def save_baseline(payload: dict | None = None, path: Path | str | None = None) -> Path:
    """Write the baseline to ``BENCH_transfers.json``."""
    return record(
        payload or collect_baseline(), path or bench_transfers_path(), sort_keys=False
    )


def load_baseline(path: Path | str | None = None) -> dict:
    """Read the checked-in baseline."""
    return read_json(path or bench_transfers_path())


def compare_baseline(baseline: dict | None = None) -> list[str]:
    """Recompute the audits and diff them against ``baseline``.

    Returns a list of human-readable drift messages — empty means every
    byte count, copy count, and peak matches the recorded baseline
    exactly.
    """
    return diff_configs(
        baseline or load_baseline(),
        collect_baseline(),
        ("verified", *BASELINE_FIELDS),
        rows="algorithms",
    )
