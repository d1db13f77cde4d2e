"""Invariants of the committed transfer-volume record.

``benchmarks/results/transfers.json`` holds the static plan verifier's
byte-exact predictions for the standard configurations
(``tests/test_benchmark_records.py`` re-collects it exactly). Every
feasible plan in it must verify and move zero redundant bytes: a driver
that starts wasting bus bandwidth on redundant copies fails here.
"""

import copy

from repro.bench.transfers import STANDARD_CONFIGS
from tests.conftest import committed_record, record_checker


class TestBaselineFile:
    def test_checked_in_baseline_exists(self):
        rows = committed_record("transfers")["rows"]
        assert {r["graph"] for r in rows} == {c["name"] for c in STANDARD_CONFIGS}

    def test_compare_detects_drift(self):
        committed = committed_record("transfers")
        drifted = copy.deepcopy(committed)
        i, row = next(
            (i, r) for i, r in enumerate(drifted["rows"])
            if (r["graph"], r["algorithm"]) == ("road220-test", "floyd-warshall")
        )
        row["bytes_h2d"] += 4
        assert list(record_checker().diff(committed, drifted)) == [
            (f"/rows[{i}]/bytes_h2d", row["bytes_h2d"] - 4, row["bytes_h2d"])
        ]


class TestZeroRedundancy:
    def test_all_current_drivers_waste_no_bytes(self):
        # the acceptance invariant: every feasible plan of every
        # standard configuration moves zero redundant bytes
        for r in committed_record("transfers")["rows"]:
            if r["feasible"]:
                assert r["redundant_bytes"] == 0, (r["graph"], r["algorithm"])
                assert r["verified"], (r["graph"], r["algorithm"])

    def test_every_standard_config_verifies(self):
        for r in committed_record("transfers")["rows"]:
            assert r["ok"], r["graph"]
