"""The serving benchmark's floor, read from its committed record.

``benchmarks/results/serve.json`` reproduces exactly on the modeled
clock (``tests/test_benchmark_records.py``), and the hard floor —
batched throughput ≥ 3× unbatched at offered loads ≥ 64 — must hold in
its recorded figures.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.serve import SPEEDUP_FLOOR, SPEEDUP_GATE_LOAD

# read directly, not through tests.conftest: mypy checks this file and
# would follow that import into the untyped conftest
RECORD = Path(__file__).resolve().parents[1] / "benchmarks" / "results" / "serve.json"


class TestCommittedBaseline:
    def test_recorded_speedups_clear_the_floor(self) -> None:
        gated = [
            r for r in json.loads(RECORD.read_text())["rows"]
            if r["offered_load"] >= SPEEDUP_GATE_LOAD
        ]
        assert len(gated) >= 2  # both configs gate at 64 and 128
        for r in gated:
            assert r["speedup"] >= SPEEDUP_FLOOR, (r["graph"], r["offered_load"])
