"""The committed benchmark records and their checker.

Every record under ``benchmarks/results/`` is written by one
``benchmarks/test_*.py``, and ``benchmarks/check_records.py`` compares
each with a fresh run of those files. Four records are cheap and exact
(static audits and modeled clocks), so they are re-collected here and
must equal their committed copies after a JSON round trip. The
checker's comparison rule is tested on small records.
"""

import copy
import dataclasses
import json
import math

import pytest

from repro.bench.cluster import collect_baseline as collect_cluster
from repro.bench.dynamic import collect_dynamic
from repro.bench.serve import collect_serve
from repro.bench.transfers import collect_baseline as collect_transfers
from tests.conftest import committed_record, record_checker

COLLECTORS = {
    "transfers": collect_transfers,
    "cluster": collect_cluster,
    "dynamic": collect_dynamic,
    "serve": collect_serve,
}


@pytest.mark.parametrize("name", list(COLLECTORS))
def test_record_reproduces_exactly(name):
    record = COLLECTORS[name]()
    fresh = json.loads(json.dumps(dataclasses.asdict(record), default=str))
    assert fresh == committed_record(name)


check = record_checker()

RECORD = {
    "experiment": "demo",
    "rows": [{"graph": "g", "n": 3, "ok": True, "seconds": 0.25, "ratio": math.nan}],
    "notes": ["modeled"],
}


def _with(**fields):
    fresh = copy.deepcopy(RECORD)
    fresh["rows"][0].update(fields)
    return fresh


class TestDiff:
    def test_equal_records_differ_nowhere(self):
        assert list(check.diff(RECORD, copy.deepcopy(RECORD))) == []

    @pytest.mark.parametrize("field,value", [
        ("n", 4), ("ok", False), ("graph", "h"), ("n", 3.0),
    ])
    def test_changed_field_is_named(self, field, value):
        assert list(check.diff(RECORD, _with(**{field: value}))) == [
            (f"/rows[0]/{field}", RECORD["rows"][0][field], value)
        ]

    def test_list_length_change_is_reported(self):
        fresh = copy.deepcopy(RECORD)
        fresh["rows"].append(dict(fresh["rows"][0]))
        assert list(check.diff(RECORD, fresh)) == [("/rows (length)", 1, 2)]

    def test_float_beyond_tolerance_is_reported(self):
        moved = 0.25 * (1 + 10 * check.REL_TOL)
        assert list(check.diff(RECORD, _with(seconds=moved))) == [
            ("/rows[0]/seconds", 0.25, moved)
        ]

    def test_float_within_tolerance_is_equal(self):
        moved = 0.25 * (1 + check.REL_TOL / 10)
        assert moved != 0.25
        assert list(check.diff(RECORD, _with(seconds=moved))) == []

    def test_nan_equals_nan(self):
        assert list(check.diff(RECORD, _with(ratio=float("nan")))) == []
        assert list(check.diff(RECORD, _with(ratio=0.5))) != []


class TestMain:
    @pytest.fixture
    def dirs(self, tmp_path, monkeypatch):
        committed, fresh = tmp_path / "committed", tmp_path / "fresh"
        committed.mkdir()
        fresh.mkdir()
        (committed / "demo.json").write_text(json.dumps(RECORD))
        (committed / "kernels.json").write_text(json.dumps({"rows": []}))
        monkeypatch.setattr(check, "RESULTS", committed)
        return fresh

    def test_record_not_regenerated_fails(self, dirs, capsys):
        assert check.main([str(dirs)]) == 1
        out = capsys.readouterr().out
        assert "demo.json: not regenerated" in out
        assert "kernels.json" not in out

    def test_matching_records_pass_without_kernels(self, dirs, capsys):
        (dirs / "demo.json").write_text(json.dumps(RECORD))
        assert check.main([str(dirs)]) == 0
        assert "records: all match" in capsys.readouterr().out

    def test_changed_value_fails_and_is_named(self, dirs, capsys):
        (dirs / "demo.json").write_text(json.dumps(_with(n=5)))
        assert check.main([str(dirs)]) == 1
        assert "demo.json/rows[0]/n: committed 3, fresh 5" in capsys.readouterr().out

    def test_only_kernels_is_skipped(self):
        assert check.SKIPPED == {"kernels.json"}
