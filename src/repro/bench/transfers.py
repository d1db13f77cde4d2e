"""Transfer-volume record (``benchmarks/test_transfer_volumes.py``).

The static plan verifier (:mod:`repro.verifyplan`) predicts, per
algorithm, exactly how many bytes each OOC schedule moves across PCIe
and how much device memory it peaks at. This module collects those
symbolic predictions for a fixed set of graph/device configurations as
the ``transfers`` record under ``benchmarks/results/``, so a driver
change that silently starts re-uploading resident blocks or doubles its
download volume changes a committed figure (compared exactly by
``tests/test_benchmark_records.py`` and within ``REL_TOL`` by
``benchmarks/check_records.py``) before any wall-clock benchmark would
notice.

Everything here is static: no :class:`~repro.gpu.device.Device` is
instantiated and nothing executes, so the record is exact and
machine-independent.
"""

from __future__ import annotations

from repro.bench.runner import ExperimentRecord

__all__ = ["STANDARD_CONFIGS", "collect_baseline"]

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


def collect_baseline() -> ExperimentRecord:
    """Audit every standard configuration with the plan verifier: one
    row per (configuration, algorithm), one note per configuration."""
    from repro.verifyplan import verify_plan

    record = ExperimentRecord(
        experiment="transfers",
        title="static transfer-volume and peak-residency baseline",
        paper_expectation=(
            "every feasible out-of-core plan moves exactly its closed-form "
            "bytes and copies and no redundant byte"
        ),
        notes=["n, m: the built graph's vertices and edges; per graph, its generator"],
    )
    for cfg in STANDARD_CONFIGS:
        graph = _build_graph(cfg)
        ver = verify_plan(graph, _device_spec(cfg["device"]))
        for name, audit in ver.audits.items():
            record.add(
                graph=cfg["name"],
                n=graph.num_vertices,
                m=graph.num_edges,
                ok=ver.ok,
                algorithm=name,
                verified=audit.ok,
                feasible=audit.feasible,
                peak_bytes=audit.peak_bytes,
                bytes_h2d=audit.bytes_h2d,
                bytes_d2h=audit.bytes_d2h,
                num_h2d=audit.num_h2d,
                num_d2h=audit.num_d2h,
                redundant_bytes=audit.redundant_bytes,
            )
        record.note_config(cfg)
    return record
