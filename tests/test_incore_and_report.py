"""Tests for in-core FW (the out-of-core driver's one-block plan), the
largest-component utility, and the results-report generator."""

import numpy as np
import pytest

from repro.bench.report import collect_records, render_markdown, write_report
from repro.bench.runner import ExperimentRecord
from repro.core.ooc_fw import ooc_floyd_warshall
from repro.gpu.device import TEST_DEVICE, Device
from repro.gpu.errors import OutOfMemoryError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi
from repro.graphs.properties import largest_component
from tests.conftest import oracle_apsp


def one_block_fw(graph, device):
    """In-core FW: the out-of-core driver's one-block plan."""
    return ooc_floyd_warshall(graph, device, block_size=graph.num_vertices)


class TestInCore:
    def test_matches_oracle(self, small_rmat, device):
        res = one_block_fw(small_rmat, device)
        assert np.allclose(res.to_array(), oracle_apsp(small_rmat))
        assert res.stats["num_blocks"] == 1

    def test_peak_is_the_matrix_alone(self):
        # TEST_DEVICE: 512 KiB holds one 300² matrix (360 kB) but not two
        g = erdos_renyi(300, 2000, seed=2)
        device = Device(TEST_DEVICE)
        res = one_block_fw(g, device)
        assert np.allclose(res.to_array(), oracle_apsp(g))
        assert device.memory.peak == 300 * 300 * 4

    def test_oom_beyond_boundary(self, device):
        g = erdos_renyi(450, 2000, seed=1)
        with pytest.raises(OutOfMemoryError):
            one_block_fw(g, device)

    def test_faster_than_ooc_when_it_fits(self, small_rmat):
        t_in = one_block_fw(small_rmat, Device(TEST_DEVICE)).simulated_seconds
        t_ooc = ooc_floyd_warshall(
            small_rmat, Device(TEST_DEVICE), block_size=40
        ).simulated_seconds
        assert t_in < t_ooc

    def test_exactly_three_transfers_total(self, small_rmat, device):
        res = one_block_fw(small_rmat, device)
        # one upload + one download (num_transfers counts both engines)
        assert res.stats["num_transfers"] == 2


class TestLargestComponent:
    def test_selects_biggest(self):
        g = CSRGraph.from_edges(
            7, np.array([0, 1, 4]), np.array([1, 2, 5]), np.ones(3)
        )
        sub, verts = largest_component(g)
        assert verts.tolist() == [0, 1, 2]
        assert sub.num_edges == 2

    def test_connected_graph_identity(self, small_planar):
        sub, verts = largest_component(small_planar)
        assert sub.num_vertices == small_planar.num_vertices
        assert np.array_equal(verts, np.arange(small_planar.num_vertices))

    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, np.array([]), np.array([]), np.array([]))
        sub, verts = largest_component(g)
        assert sub.num_vertices == 0 and verts.size == 0


class TestReport:
    def _write_record(self, tmp_path, name):
        rec = ExperimentRecord(name, f"title {name}", "expected X")
        rec.add(graph="g", value=1.0)
        rec.note("hello")
        import os

        os.environ["REPRO_RESULTS_DIR"] = str(tmp_path)
        rec.save()

    def test_collect_orders_canonically(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        for name in ("fig8", "table1", "zzz_custom"):
            self._write_record(tmp_path, name)
        records = collect_records(tmp_path)
        names = [r["experiment"] for r in records]
        assert names.index("table1") < names.index("fig8") < names.index("zzz_custom")

    def test_render_contains_tables_and_notes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        self._write_record(tmp_path, "fig2")
        text = render_markdown(collect_records(tmp_path))
        assert "## fig2 — title fig2" in text
        assert "> hello" in text
        assert "graph" in text

    def test_write_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        self._write_record(tmp_path, "fig3")
        out = write_report(tmp_path)
        assert out.name == "RESULTS.md"
        assert "fig3" in out.read_text()

    def test_empty_dir(self, tmp_path):
        text = render_markdown(collect_records(tmp_path))
        assert "No records" in text

    def test_ignores_non_record_json(self, tmp_path):
        (tmp_path / "junk.json").write_text("[1, 2, 3]")
        (tmp_path / "broken.json").write_text("{nope")
        assert collect_records(tmp_path) == []
