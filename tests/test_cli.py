"""Tests for the ``python -m repro`` command-line interface."""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.backends.jit import KERNEL_TEMPLATES
from repro.graphs.generators import erdos_renyi
from repro.graphs.io import write_edge_list, write_matrix_market


class TestSolve:
    def test_generator_spec(self, capsys):
        rc = main(["solve", "rmat:n=150,m=1000,seed=2", "--device", "test",
                   "--scale", "1", "--algorithm", "johnson"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm: johnson" in out
        assert "simulated time:" in out

    def test_verify_and_query(self, capsys):
        rc = main(["solve", "er:n=100,m=600,seed=3", "--device", "test",
                   "--scale", "1", "--algorithm", "floyd-warshall",
                   "--verify", "3", "--query", "0,5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verification (3 rows): ok" in out
        assert "dist(0, 5)" in out

    def test_auto_selection(self, capsys):
        rc = main(["solve", "road:n=600,deg=2.6,seed=4", "--scale", "0.015625"])
        assert rc == 0
        assert "algorithm: boundary" in capsys.readouterr().out

    def test_mtx_file(self, tmp_path, capsys):
        g = erdos_renyi(80, 500, seed=5)
        path = tmp_path / "g.mtx"
        write_matrix_market(g, path)
        rc = main(["solve", str(path), "--device", "test", "--scale", "1",
                   "--algorithm", "johnson", "--verify", "2"])
        assert rc == 0
        assert "verification (2 rows): ok" in capsys.readouterr().out

    def test_edge_list_file(self, tmp_path, capsys):
        g = erdos_renyi(60, 300, seed=6)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        rc = main(["info", str(path)])
        assert rc == 0
        assert "vertices:        60" in capsys.readouterr().out

    def test_trace_output(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        rc = main(["solve", "er:n=80,m=400,seed=7", "--device", "test",
                   "--scale", "1", "--algorithm", "johnson",
                   "--trace", str(trace)])
        assert rc == 0
        assert trace.exists()
        assert "busy" in capsys.readouterr().out

    def test_bad_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["solve", "nonsense:abc"])


class TestInfo:
    def test_separator_classification(self, capsys):
        rc = main(["info", "road:n=500,deg=2.6,seed=8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-> small" in out

    def test_suite_spec(self, capsys):
        rc = main(["info", "suite:luxembourg_osm", "--scale", "0.0078125"])
        assert rc == 0
        assert "density" in capsys.readouterr().out


class TestOthers:
    def test_suite_listing(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "usroads" in out and "af_shell1" in out
        assert out.count("\n") >= 30  # header + 29 graphs

    def test_devices_listing(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "V100" in out and "K80" in out
        assert "11.75 GB/s" in out

    def test_select_command(self, capsys):
        rc = main(["select", "road:n=500,deg=2.6,seed=9", "--scale", "0.015625"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selected:   boundary" in out


class TestSelectJson:
    def test_json_output_parses(self, capsys):
        import json

        from repro.cli import SCHEMA_VERSION, main

        rc = main(["select", "road:n=400,deg=2.6,seed=1",
                   "--scale", "0.015625", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["algorithm"] in ("johnson", "boundary", "floyd-warshall")
        assert "band" in data and "candidates" in data

    def test_analytic_mode(self, capsys):
        import json

        rc = main(["select", "road:n=220,deg=2.6,seed=1",
                   "--device", "test", "--scale", "1",
                   "--analytic", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "analytic"
        for est in data["estimates"].values():
            assert est["detail"]["model"] == "schedule-dag"

    def test_json_sparse_band_has_estimates(self, capsys):
        import json

        from repro.cli import main

        rc = main(["select", "road:n=900,deg=2.6,seed=2",
                   "--scale", "0.015625", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["band"] == "sparse"
        assert set(data["estimates"]) == {"johnson", "boundary"}
        for est in data["estimates"].values():
            assert est["total_seconds"] > 0


class TestVerifyPlan:
    def test_human_output_and_exit_zero(self, capsys):
        rc = main(["verify-plan", "rmat:n=110,m=800,seed=2",
                   "--device", "test", "--scale", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith("— VERIFIED")
        assert "floyd-warshall: VERIFIED" in out
        assert "multi-gpu: VERIFIED" in out

    def test_json_output_parses(self, capsys):
        import json

        from repro.cli import SCHEMA_VERSION

        rc = main(["verify-plan", "road:n=220,deg=2.6,seed=1",
                   "--device", "test", "--scale", "1", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["ok"] is True
        audit = data["audits"]["floyd-warshall"]
        assert audit["ok"] and audit["redundant_bytes"] == 0
        assert audit["bytes_h2d"] > 0 and audit["peak_bytes"] <= audit["capacity"]

    def test_single_algorithm_flag(self, capsys):
        rc = main(["verify-plan", "rmat:n=110,m=800,seed=2",
                   "--device", "test", "--scale", "1", "--algorithm", "fw"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "floyd-warshall" in out and "johnson" not in out

    def test_failing_bound_exits_one(self, capsys, monkeypatch):
        # a traffic record that miscounts by one element fails its exact
        # check: documented exit code 1
        import repro.verifyplan.verifier as verifier

        exact = verifier.fw_traffic

        def miscounted(*args, **kwargs):
            traffic = exact(*args, **kwargs)
            return dataclasses.replace(traffic, bytes_h2d=traffic.bytes_h2d + 4)

        monkeypatch.setattr(verifier, "fw_traffic", miscounted)
        rc = main(["verify-plan", "road:n=220,deg=2.6,seed=1",
                   "--device", "test", "--scale", "1", "--algorithm", "fw"])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith("— FAILED")
        assert "fw-h2d-volume" in out and "[FAILED]" in out

    @pytest.mark.parametrize("argv", [
        ["verify-plan", "--num-devices", "0"],
        ["verify-cluster", "--nodes", "0"],
        ["verify-cluster", "--num-devices", "0"],
        ["verify-cluster", "--block-size", "0"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_bad_count_is_usage_error(self, argv, capsys):
        # a count below 1 is a usage error (exit 2), not a traceback or a
        # silently clamped run
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "rmat:n=110,m=800", "--device", "test",
                  "--scale", "1", *argv[1:]])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


class TestCheckSchedule:
    """The schedule checks verify-plan runs on every feasible plan: the
    happens-before closure and the critical-path timing replay."""

    def test_human_output_pass(self, capsys):
        rc = main(["verify-plan", "road:n=220,deg=2.6,seed=1",
                   "--device", "test", "--scale", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith("— VERIFIED")
        assert "race/deadlock-free in every interleaving" in out
        assert out.count("predicted makespan") == 4

    def test_json_output(self, capsys):
        import json

        from repro.cli import SCHEMA_VERSION

        rc = main(["verify-plan", "road:n=220,deg=2.6,seed=1",
                   "--device", "test", "--scale", "1", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["ok"] is True
        for audit in data["audits"].values():
            if not audit["feasible"]:
                continue
            assert audit["hb"]["findings"] == []
            assert audit["timing"]["makespan_seconds"] > 0

    def test_no_overlap_mode(self, capsys):
        rc = main(["verify-plan", "road:n=220,deg=2.6,seed=1",
                   "--device", "test", "--scale", "1",
                   "--algorithm", "fw", "--no-overlap"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 event(s)" in out

    def test_injected_defect_exits_one(self, capsys, monkeypatch):
        # strip every wait edge from the FW emitter: the checker must
        # catch the resulting races and flip the exit code to 1
        import dataclasses

        import repro.core.ooc_fw as ooc_fw
        from repro.verifyplan.ir import WaitOp

        real = ooc_fw.emit_fw_ir

        def broken(*args, **kwargs):
            ir = real(*args, **kwargs)
            ops = tuple(op for op in ir.ops if not isinstance(op, WaitOp))
            return dataclasses.replace(ir, ops=ops)

        monkeypatch.setattr(ooc_fw, "emit_fw_ir", broken)
        rc = main(["verify-plan", "road:n=220,deg=2.6,seed=1",
                   "--device", "test", "--scale", "1", "--algorithm", "fw"])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith("— FAILED")
        assert "unordered-conflict" in out

    def test_bad_usage_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-plan", "road:n=220,deg=2.6,seed=1",
                  "--algorithm", "bogus"])
        assert exc.value.code == 2


class TestRemovedBenchCommands:
    @pytest.mark.parametrize("record", ["transfers", "cluster", "dynamic", "serve"])
    def test_is_a_usage_error(self, record):
        """These records are written by their benchmark files only."""
        with pytest.raises(SystemExit) as exc:
            main([f"bench-{record}", "--check"])
        assert exc.value.code == 2


class TestLintJson:
    def test_schema_and_violations(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('"""Doc."""\ndef pub():\n    return 2\n')
        from repro.cli import SCHEMA_VERSION

        rc = main(["lint", str(tmp_path), "--json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["ok"] is False
        assert payload["count"] == len(payload["violations"]) >= 1
        v = payload["violations"][0]
        assert {"rule", "name", "file", "line", "message"} <= set(v)

    def test_clean_tree_json(self, tmp_path, capsys):
        ok = tmp_path / "repro" / "good.py"
        ok.parent.mkdir(parents=True)
        ok.write_text('"""Doc."""\n__all__ = []\n')
        rc = main(["lint", str(tmp_path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["violations"] == []


class TestVerifyKernels:
    def test_static_json_schema(self, capsys):
        rc = main(["verify-kernels", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert set(payload["kernels"]) == {t.name for t in KERNEL_TEMPLATES}

    def test_static_text_mode(self, capsys):
        rc = main(["verify-kernels"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
