"""Update-latency vs re-solve crossover baseline (``repro bench-dynamic``).

Everything here is closed-form. Each term's transfer time is the price
(:meth:`~repro.verifyplan.bounds.Traffic.seconds`) of the verifier's
traffic record for the schedule that runs: a patch pass's
:func:`~repro.verifyplan.updatebounds.update_traffic` (proven by
``verify-update`` equal to the IR tally of the pass) and the overlapped
blocked-FW re-solve's :func:`~repro.verifyplan.bounds.fw_traffic`
(proven by ``verify-plan``). Compute is priced against a
:class:`~repro.gpu.device.DeviceSpec`'s min-plus and relax rates. No
device is instantiated and nothing executes, so the baseline is exact,
machine-independent, and committable — ``bench-dynamic --check`` gates
CI on the recorded crossover without rewriting anything.

Per configuration the record answers the selection question the paper
asks of every method pair: *when does patching stop paying?* A batch of
``k`` decreases costs one ``O(n²)`` sweep amortised over ``k`` edges;
``crossover_updates`` is the number of sequential single-edge patches
whose summed cost reaches one full blocked-FW re-solve.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.bench.baseline import baseline_path, diff_configs, read_json, record
from repro.dynamic.patch import UpdatePlan
from repro.verifyplan.bounds import fw_traffic
from repro.verifyplan.updatebounds import update_traffic

__all__ = [
    "DYNAMIC_CONFIGS",
    "bench_dynamic_path",
    "collect_dynamic",
    "compare_dynamic",
    "load_dynamic",
    "save_dynamic",
]

#: modeled configurations: (vertices, block rows, edges, device). Sizes
#: bracket the paper's single-GPU out-of-core range on both Table II cards.
DYNAMIC_CONFIGS = (
    {"name": "n1000-v100", "n": 1000, "nd": 4, "m": 2600, "device": "v100"},
    {"name": "n5000-v100", "n": 5000, "nd": 8, "m": 13000, "device": "v100"},
    {"name": "n2000-k80", "n": 2000, "nd": 4, "m": 5200, "device": "k80"},
)

#: batched-decrease widths recorded per configuration
BATCH_SIZES = (1, 4, 16)

#: audited fields that must match the baseline exactly
BASELINE_FIELDS = (
    "decrease_us",
    "per_update_us",
    "resolve_us",
    "speedup",
    "crossover_updates",
    "increase_us",
)


def bench_dynamic_path() -> Path:
    """Canonical location of ``BENCH_dynamic.json`` (repo root, or
    ``REPRO_BENCH_DYNAMIC`` when set)."""
    return baseline_path("BENCH_dynamic.json", "REPRO_BENCH_DYNAMIC")


def _device_spec(name: str) -> Any:
    from repro.gpu.device import K80, V100

    return {"v100": V100, "k80": K80}[name]


def _decrease_seconds(spec: Any, n: int, nd: int, k: int) -> float:
    plan = UpdatePlan(kind="decrease", n=n, block_size=-(-n // nd), k=k)
    flops = 2 * k**3 + 2 * n * k * k + 2 * n * n * k
    return update_traffic(plan).seconds(spec) + flops / spec.minplus_rate


def _increase_seconds(spec: Any, n: int, nd: int, m: int) -> float:
    # every fourth source affected: a quarter of the rows, in every block row
    plan = UpdatePlan(
        kind="increase", n=n, block_size=-(-n // nd),
        affected_rows=tuple(range(0, n, 4)), graph_m=m,
    )
    # SSSP rows priced at the relax rate: |X| runs over m edges, log n heap
    flops = len(plan.affected_rows) * m * max(1, n.bit_length())
    return update_traffic(plan).seconds(spec) + flops / spec.relax_rate


def _resolve_seconds(spec: Any, n: int, nd: int) -> float:
    traffic = fw_traffic(n, -(-n // nd))
    return traffic.seconds(spec) + 2 * n**3 / spec.minplus_rate


def collect_dynamic(configs=DYNAMIC_CONFIGS) -> dict:
    """Model every configuration; returns the baseline payload."""
    entries: dict[str, Any] = {}
    for cfg in configs:
        spec = _device_spec(cfg["device"])
        n, nd, m = cfg["n"], cfg["nd"], cfg["m"]
        resolve = _resolve_seconds(spec, n, nd)
        single = _decrease_seconds(spec, n, nd, 1)
        rows = {}
        for k in BATCH_SIZES:
            dec = _decrease_seconds(spec, n, nd, k)
            rows[str(k)] = {
                "decrease_us": round(dec * 1e6, 3),
                "per_update_us": round(dec * 1e6 / k, 3),
                "resolve_us": round(resolve * 1e6, 3),
                "speedup": round(resolve / dec, 3),
                "crossover_updates": -(-round(resolve, 12) // round(single, 12)),
                "increase_us": round(_increase_seconds(spec, n, nd, m) * 1e6, 3),
            }
        entries[cfg["name"]] = {"config": dict(cfg), "batches": rows}
    return {
        "experiment": "dynamic",
        "title": "incremental-update latency vs full re-solve crossover (modeled)",
        "generated_by": "python -m repro bench-dynamic",
        "fields": list(BASELINE_FIELDS),
        "configs": entries,
    }


def save_dynamic(payload: dict | None = None, path: Path | str | None = None) -> Path:
    """Write the baseline to ``BENCH_dynamic.json`` (stable key order)
    and mirror the crossover table into ``benchmarks/results/`` — the
    mirror is only refreshed for the canonical (non-redirected) path,
    and only when its gated content actually changed."""
    return record(
        payload or collect_dynamic(), path or bench_dynamic_path(), mirror=_mirror_record
    )


def _mirror_record(payload: dict) -> dict:
    rows = []
    for name, entry in sorted(payload["configs"].items()):
        for k, row in sorted(entry["batches"].items(), key=lambda kv: int(kv[0])):
            rows.append({"graph": name, "batch_k": int(k), **row})
    return {
        "experiment": "dynamic",
        "title": payload["title"],
        "generated_by": payload["generated_by"],
        "paper_expectation": (
            "incremental updates amortise: a batched O(n²) patch beats the "
            "O(n_d·n²)-movement re-solve until hundreds of sequential updates"
        ),
        "rows": rows,
        "notes": ["modeled (closed-form) — canonical copy: BENCH_dynamic.json"],
    }


def load_dynamic(path: Path | str | None = None) -> dict:
    """Read the checked-in baseline."""
    return read_json(path or bench_dynamic_path())


def compare_dynamic(baseline: dict | None = None) -> list[str]:
    """Recompute the model and diff it against ``baseline``; empty list
    means every modeled figure matches the recorded crossover exactly."""
    return diff_configs(
        baseline or load_dynamic(),
        collect_dynamic(),
        BASELINE_FIELDS,
        rows="batches",
        label="k=",
    )
