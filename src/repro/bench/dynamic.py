"""Update-latency vs re-solve crossover record
(``benchmarks/test_dynamic_crossover.py``).

Everything here is closed-form. Each term's transfer time is the price
(:meth:`~repro.verifyplan.bounds.Traffic.seconds`) of the verifier's
traffic record for the schedule that runs: a patch pass's
:func:`~repro.verifyplan.updatebounds.update_traffic` (proven by
``verify-update`` equal to the IR tally of the pass) and the overlapped
blocked-FW re-solve's :func:`~repro.verifyplan.bounds.fw_traffic`
(proven by ``verify-plan``). Compute is priced against a
:class:`~repro.gpu.device.DeviceSpec`'s min-plus and relax rates. No
device is instantiated and nothing executes, so the ``dynamic`` record
under ``benchmarks/results/`` is exact and machine-independent.

Per configuration the record answers the selection question the paper
asks of every method pair: *when does patching stop paying?* A batch of
``k`` decreases costs one ``O(n²)`` sweep amortised over ``k`` edges;
``crossover_updates`` is the number of sequential single-edge patches
whose summed cost reaches one full blocked-FW re-solve.
"""

from __future__ import annotations

from typing import Any

from repro.bench.runner import ExperimentRecord
from repro.dynamic.patch import UpdatePlan
from repro.verifyplan.bounds import fw_traffic
from repro.verifyplan.updatebounds import update_traffic

__all__ = ["DYNAMIC_CONFIGS", "collect_dynamic"]

#: modeled configurations: (vertices, block rows, edges, device). Sizes
#: bracket the paper's single-GPU out-of-core range on both Table II cards.
DYNAMIC_CONFIGS = (
    {"name": "n1000-v100", "n": 1000, "nd": 4, "m": 2600, "device": "v100"},
    {"name": "n2000-k80", "n": 2000, "nd": 4, "m": 5200, "device": "k80"},
    {"name": "n5000-v100", "n": 5000, "nd": 8, "m": 13000, "device": "v100"},
)

#: batched-decrease widths recorded per configuration
BATCH_SIZES = (1, 4, 16)


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


def collect_dynamic() -> ExperimentRecord:
    """Model every configuration: one row per (configuration, batch
    width), one note per configuration."""
    record = ExperimentRecord(
        experiment="dynamic",
        title="incremental-update latency vs full re-solve crossover (modeled)",
        paper_expectation=(
            "incremental updates amortise: a batched O(n²) patch beats the "
            "O(n_d·n²)-movement re-solve until hundreds of sequential updates"
        ),
        notes=["modeled (closed-form)"],
    )
    for cfg in DYNAMIC_CONFIGS:
        spec = _device_spec(cfg["device"])
        n, nd, m = cfg["n"], cfg["nd"], cfg["m"]
        resolve = _resolve_seconds(spec, n, nd)
        single = _decrease_seconds(spec, n, nd, 1)
        increase = _increase_seconds(spec, n, nd, m)
        for k in BATCH_SIZES:
            dec = _decrease_seconds(spec, n, nd, k)
            record.add(
                graph=cfg["name"],
                batch_k=k,
                decrease_us=round(dec * 1e6, 3),
                per_update_us=round(dec * 1e6 / k, 3),
                resolve_us=round(resolve * 1e6, 3),
                speedup=round(resolve / dec, 3),
                crossover_updates=-(-round(resolve, 12) // round(single, 12)),
                increase_us=round(increase * 1e6, 3),
            )
        record.note_config(cfg)
    return record
