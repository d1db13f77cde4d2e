"""Serving-layer latency/throughput record
(``benchmarks/test_serve_throughput.py``).

A deterministic load generator drives the real :class:`~repro.serve.service.
APSPService` — admission, keyed-dedup coalescing, the persistent simulated
device, the modelled MSSP kernel cost — at fixed offered loads of
*distinct-source* SSSP queries, once with the paper's ``bat`` batching and
once with the batch size capped at 1 (the per-query path). Everything runs
on the service's modeled clock, so p50/p99 latency and throughput are
machine-independent: the ``serve`` record under ``benchmarks/results/`` is
compared exactly, and its benchmark enforces the hard floor — batched
throughput must stay **≥ 3×** the unbatched path at offered loads ≥ 64.

Distinct sources make this the *adversarial* shape for batching — keyed
dedup never merges two queries, so the whole win must come from occupancy
(``mssp_batch_cost``: a 1-source launch leaves the grid at ``1/384`` of
the V100's saturation point).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bench.runner import ExperimentRecord
from repro.graphs.generators import rmat, road_like
from repro.serve.loadgen import generate_queries
from repro.serve.service import APSPService

__all__ = [
    "OFFERED_LOADS",
    "SERVE_CONFIGS",
    "SPEEDUP_FLOOR",
    "SPEEDUP_GATE_LOAD",
    "collect_serve",
]

#: benchmark graphs (V100 spec: the occupancy story needs the real
#: ``max_active_blocks`` ceiling, not the shrunken test device)
SERVE_CONFIGS = (
    {"name": "rmat-n244-v100", "kind": "rmat", "n": 244, "m": 1600,
     "device": "v100", "seed": 7},
    {"name": "road-n300-v100", "kind": "road", "n": 300, "deg": 2.5,
     "device": "v100", "seed": 11},
)

#: offered loads: concurrent distinct-source SSSP queries arriving at t=0
OFFERED_LOADS = (16, 64, 128)

#: floor on batched/unbatched throughput, applied at loads >= the gate
SPEEDUP_FLOOR = 3.0
SPEEDUP_GATE_LOAD = 64


def _build_graph(cfg: dict) -> Any:
    if cfg["kind"] == "rmat":
        return rmat(cfg["n"], cfg["m"], seed=cfg["seed"], name=cfg["name"])
    return road_like(cfg["n"], cfg["deg"], seed=cfg["seed"], name=cfg["name"])


def _device_spec(name: str) -> Any:
    from repro.gpu.device import K80, V100

    return {"v100": V100, "k80": K80}[name]


def _run_leg(graph: Any, spec: Any, load: int, *, batch_size: "int | None") -> dict:
    """One offered-load leg: submit ``load`` distinct-source SSSP queries
    at t=0, drain, and summarise the modeled latency distribution."""
    service = APSPService(graph, spec=spec, batch_size=batch_size, row_budget=0)
    for query in generate_queries(
        graph, num_queries=load, seed=0,
        point_fraction=0.0, full_fraction=0.0, distinct_sources=True,
    ):
        service.submit(query, at=0.0)
    responses = service.drain()
    assert len(responses) == load
    latencies = np.array([r.latency for r in responses], dtype=np.float64)
    makespan = service.now
    return {
        "p50_us": float(np.percentile(latencies, 50) * 1e6),
        "p99_us": float(np.percentile(latencies, 99) * 1e6),
        "qps": load / makespan,
    }


def collect_serve() -> ExperimentRecord:
    """Drive every configuration at every offered load: one row per
    (configuration, load), one note per configuration."""
    record = ExperimentRecord(
        experiment="serve",
        title="service throughput/latency vs offered load, batched vs per-query (modeled)",
        paper_expectation=(
            "amortising many SSSP sources per MSSP launch restores occupancy: "
            "batched serving sustains >= 3x the per-query throughput at "
            "offered loads >= 64"
        ),
        notes=["modeled clock"],
    )
    for cfg in SERVE_CONFIGS:
        graph = _build_graph(cfg)
        spec = _device_spec(cfg["device"])
        for load in OFFERED_LOADS:
            batched = _run_leg(graph, spec, load, batch_size=None)
            unbatched = _run_leg(graph, spec, load, batch_size=1)
            record.add(
                graph=cfg["name"],
                offered_load=load,
                batched_p50_us=round(batched["p50_us"], 3),
                batched_p99_us=round(batched["p99_us"], 3),
                batched_qps=round(batched["qps"], 3),
                unbatched_p50_us=round(unbatched["p50_us"], 3),
                unbatched_p99_us=round(unbatched["p99_us"], 3),
                unbatched_qps=round(unbatched["qps"], 3),
                speedup=round(batched["qps"] / unbatched["qps"], 3),
            )
        record.note_config(cfg, num_edges=graph.num_edges)
    return record
