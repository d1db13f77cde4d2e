"""Serving-layer latency/throughput baseline (``repro bench-serve``).

A deterministic load generator drives the real :class:`~repro.serve.service.
APSPService` — admission, keyed-dedup coalescing, the persistent simulated
device, the modelled MSSP kernel cost — at fixed offered loads of
*distinct-source* SSSP queries, once with the paper's ``bat`` batching and
once with the batch size capped at 1 (the per-query path). Everything runs
on the service's modeled clock, so p50/p99 latency and throughput are
machine-independent and ``bench-serve --check`` gates CI with exact
equality, plus the issue's hard floor: batched throughput must stay
**≥ 3×** the unbatched path at offered loads ≥ 64.

Distinct sources make this the *adversarial* shape for batching — keyed
dedup never merges two queries, so the whole win must come from occupancy
(``mssp_batch_cost``: a 1-source launch leaves the grid at ``1/384`` of
the V100's saturation point).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.bench.baseline import baseline_path, diff_configs, read_json, record
from repro.graphs.generators import rmat, road_like
from repro.serve.loadgen import generate_queries
from repro.serve.service import APSPService

__all__ = [
    "OFFERED_LOADS",
    "SERVE_CONFIGS",
    "SPEEDUP_FLOOR",
    "SPEEDUP_GATE_LOAD",
    "bench_serve_path",
    "collect_serve",
    "compare_serve",
    "load_serve",
    "save_serve",
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

#: CI floor on batched/unbatched throughput, applied at loads >= the gate
SPEEDUP_FLOOR = 3.0
SPEEDUP_GATE_LOAD = 64

#: audited fields that must match the baseline exactly
BASELINE_FIELDS = (
    "batched_p50_us",
    "batched_p99_us",
    "batched_qps",
    "unbatched_p50_us",
    "unbatched_p99_us",
    "unbatched_qps",
    "speedup",
)


def bench_serve_path() -> Path:
    """Canonical location of ``BENCH_serve.json`` (repo root, or
    ``REPRO_BENCH_SERVE`` when set)."""
    return baseline_path("BENCH_serve.json", "REPRO_BENCH_SERVE")


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


def collect_serve(configs=None, loads=None) -> dict:
    """Drive every configuration at every offered load; returns the
    baseline payload. Defaults resolve at call time (so tests can
    monkeypatch the module-level tables)."""
    configs = SERVE_CONFIGS if configs is None else configs
    loads = OFFERED_LOADS if loads is None else loads
    entries: dict[str, Any] = {}
    for cfg in configs:
        graph = _build_graph(cfg)
        spec = _device_spec(cfg["device"])
        rows: dict[str, Any] = {}
        for load in loads:
            batched = _run_leg(graph, spec, load, batch_size=None)
            unbatched = _run_leg(graph, spec, load, batch_size=1)
            rows[str(load)] = {
                "batched_p50_us": round(batched["p50_us"], 3),
                "batched_p99_us": round(batched["p99_us"], 3),
                "batched_qps": round(batched["qps"], 3),
                "unbatched_p50_us": round(unbatched["p50_us"], 3),
                "unbatched_p99_us": round(unbatched["p99_us"], 3),
                "unbatched_qps": round(unbatched["qps"], 3),
                "speedup": round(batched["qps"] / unbatched["qps"], 3),
            }
        entries[cfg["name"]] = {
            "config": dict(cfg),
            "num_edges": graph.num_edges,
            "loads": rows,
        }
    return {
        "experiment": "serve",
        "title": "service throughput/latency vs offered load, batched vs per-query (modeled)",
        "generated_by": "python -m repro bench-serve",
        "fields": list(BASELINE_FIELDS),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_gate_load": SPEEDUP_GATE_LOAD,
        "configs": entries,
    }


def save_serve(payload: dict | None = None, path: Path | str | None = None) -> Path:
    """Write the baseline to ``BENCH_serve.json`` (stable key order) and
    mirror the table into ``benchmarks/results/`` — the mirror is only
    refreshed for the canonical (non-redirected) path, and only when its
    gated content actually changed."""
    return record(
        payload or collect_serve(), path or bench_serve_path(), mirror=_mirror_record
    )


def _mirror_record(payload: dict) -> dict:
    rows = []
    for name, entry in sorted(payload["configs"].items()):
        for load, row in sorted(entry["loads"].items(), key=lambda kv: int(kv[0])):
            rows.append({"graph": name, "offered_load": int(load), **row})
    return {
        "experiment": "serve",
        "title": payload["title"],
        "generated_by": payload["generated_by"],
        "paper_expectation": (
            "amortising many SSSP sources per MSSP launch restores occupancy: "
            "batched serving sustains >= 3x the per-query throughput at "
            "offered loads >= 64"
        ),
        "rows": rows,
        "notes": ["modeled clock — canonical copy: BENCH_serve.json"],
    }


def load_serve(path: Path | str | None = None) -> dict:
    """Read the checked-in baseline."""
    return read_json(path or bench_serve_path())


def compare_serve(baseline: dict | None = None) -> list[str]:
    """Re-drive the service and diff against ``baseline``; empty list
    means every modeled figure matches exactly AND the ≥ 3× batching
    floor holds at every gated load."""
    current = collect_serve()
    drifts = diff_configs(
        baseline or load_serve(), current, BASELINE_FIELDS, rows="loads", label="load="
    )
    for name, entry in current["configs"].items():
        for load, row in entry["loads"].items():
            if int(load) >= SPEEDUP_GATE_LOAD and row["speedup"] < SPEEDUP_FLOOR:
                drifts.append(
                    f"{name}/load={load}: batched speedup {row['speedup']} "
                    f"below the {SPEEDUP_FLOOR}x floor"
                )
    return drifts
