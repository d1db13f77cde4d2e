"""AST contract-checker tests: each rule fires on a fixture, the tree is clean."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.sanitize import format_violations, lint_file, lint_paths

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def _write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _rules(violations) -> set[str]:
    return {v.rule for v in violations}


# ---------------------------------------------------------------------------
# One fixture per rule
# ---------------------------------------------------------------------------
def test_rpr001_raw_minplus_in_core(tmp_path):
    path = _write(
        tmp_path, "repro/core/fused.py",
        '"""Doc."""\n'
        "import numpy as np\n"
        "__all__ = ['bad']\n"
        "def bad(C, A, B):\n"
        "    np.minimum(C, A[:, :, None] + B[None, :, :], out=C)\n",
    )
    violations = lint_file(path, root=tmp_path)
    assert _rules(violations) == {"RPR001"}
    v = violations[0]
    assert v.name == "raw-minplus" and v.line == 5
    assert "fused.py:5" in v.describe()


def test_rpr001_not_applied_outside_core(tmp_path):
    path = _write(
        tmp_path, "repro/select/model.py",
        '"""Doc."""\n'
        "import numpy as np\n"
        "__all__ = ['ok']\n"
        "def ok(C, A, B):\n"
        "    np.minimum(C, A[:, :, None] + B[None, :, :], out=C)\n",
    )
    assert lint_file(path, root=tmp_path) == []


def test_rpr001_backends_are_exempt(tmp_path):
    """core/backends/ implements the engine — raw broadcasts are its job."""
    path = _write(
        tmp_path, "repro/core/backends/raw.py",
        '"""Doc."""\n'
        "import numpy as np\n"
        "__all__ = ['kernel']\n"
        "def kernel(C, A, B):\n"
        "    np.minimum(C, A[:, :, None] + B[None, :, :], out=C)\n",
    )
    assert lint_file(path, root=tmp_path) == []


def test_rpr002_float64_at_engine_call_site(tmp_path):
    path = _write(
        tmp_path, "repro/core/driver.py",
        '"""Doc."""\n'
        "import numpy as np\n"
        "__all__ = ['go']\n"
        "def go(engine):\n"
        "    engine.minplus(np.zeros((4, 4)), np.ones((4, 4)), np.empty((4, 4)))\n"
        "    minplus_update(np.full((4, 4), np.inf, dtype=np.float64), a, b)\n",
    )
    violations = lint_file(path, root=tmp_path)
    assert _rules(violations) == {"RPR002"}
    assert len(violations) == 4  # three dtype-less ctors + one explicit float64


def test_rpr002_float32_operands_pass(tmp_path):
    path = _write(
        tmp_path, "repro/core/driver.py",
        '"""Doc."""\n'
        "import numpy as np\n"
        "__all__ = ['go']\n"
        "def go(engine, DIST_DTYPE):\n"
        "    engine.minplus(np.zeros((4, 4), dtype=np.float32),\n"
        "                   np.ones((4, 4), dtype=DIST_DTYPE),\n"
        "                   np.empty((4, 4), dtype='f4'))\n",
    )
    assert lint_file(path, root=tmp_path) == []


def test_rpr003_wall_clock_in_bench(tmp_path):
    path = _write(
        tmp_path, "repro/bench/sweep.py",
        '"""Doc."""\n'
        "import time\n"
        "from time import time as now\n"
        "__all__ = ['measure']\n"
        "def measure():\n"
        "    return time.time()\n",
    )
    violations = lint_file(path, root=tmp_path)
    assert [v.rule for v in violations] == ["RPR003", "RPR003"]
    assert {v.line for v in violations} == {3, 6}


def test_rpr003_perf_counter_passes_and_scope_is_bench_only(tmp_path):
    bench = _write(
        tmp_path, "repro/bench/sweep.py",
        '"""Doc."""\n'
        "from time import perf_counter\n"
        "__all__ = ['measure']\n"
        "def measure():\n"
        "    return perf_counter()\n",
    )
    core = _write(
        tmp_path, "repro/graphs/io.py",
        '"""Doc."""\n'
        "import time\n"
        "__all__ = ['stamp']\n"
        "def stamp():\n"
        "    return time.time()\n",  # fine outside bench/
    )
    assert lint_file(bench, root=tmp_path) == []
    assert lint_file(core, root=tmp_path) == []


def test_rpr004_mutable_default(tmp_path):
    path = _write(
        tmp_path, "repro/util.py",
        '"""Doc."""\n'
        "__all__ = ['f', 'g']\n"
        "def f(x=[]):\n"
        "    return x\n"
        "def g(*, y=dict()):\n"
        "    return y\n",
    )
    violations = lint_file(path, root=tmp_path)
    assert [v.rule for v in violations] == ["RPR004", "RPR004"]
    assert "f()" in violations[0].message


def test_rpr005_missing_all(tmp_path):
    path = _write(
        tmp_path, "repro/thing.py",
        '"""Doc."""\n'
        "def public():\n"
        "    return 1\n",
    )
    violations = lint_file(path, root=tmp_path)
    assert _rules(violations) == {"RPR005"}


def test_rpr005_private_modules_exempt(tmp_path):
    path = _write(
        tmp_path, "repro/_private.py",
        '"""Doc."""\n'
        "def helper():\n"
        "    return 1\n",
    )
    assert lint_file(path, root=tmp_path) == []


def test_rpr005_dunder_init_not_exempt(tmp_path):
    path = _write(
        tmp_path, "repro/pkg/__init__.py",
        '"""Doc."""\n'
        "def public():\n"
        "    return 1\n",
    )
    assert _rules(lint_file(path, root=tmp_path)) == {"RPR005"}


def test_rpr007_discarded_record(tmp_path):
    path = _write(
        tmp_path, "repro/core/driver.py",
        '"""Doc."""\n'
        "__all__ = ['go']\n"
        "def go(stream):\n"
        "    stream.record(Event('done'))\n",  # bare discard: orders nothing
    )
    violations = lint_file(path, root=tmp_path)
    assert _rules(violations) == {"RPR007"}
    assert "record()" in violations[0].message


def test_rpr007_assigned_but_never_waited(tmp_path):
    path = _write(
        tmp_path, "repro/core/driver.py",
        '"""Doc."""\n'
        "__all__ = ['go']\n"
        "def go(stream, events):\n"
        "    ev = stream.record(Event('a'))\n"
        "    events[0] = stream.record(Event('b'))\n"
        "    return None\n",
    )
    violations = lint_file(path, root=tmp_path)
    assert [v.rule for v in violations] == ["RPR007", "RPR007"]
    assert {v.line for v in violations} == {4, 5}


def test_rpr007_waited_records_pass(tmp_path):
    path = _write(
        tmp_path, "repro/core/driver.py",
        '"""Doc."""\n'
        "__all__ = ['go']\n"
        "def go(stream, copier, events):\n"
        "    ev = stream.record(Event('a'))\n"
        "    copier.wait(ev)\n"
        "    events[0] = stream.record(Event('b'))\n"
        "    copier.wait(events[0])\n",
    )
    assert lint_file(path, root=tmp_path) == []


def test_rpr007_escaping_records_pass(tmp_path):
    """A record whose handle escapes (returned, stored on an attribute,
    passed to another call) may be waited elsewhere — not our business."""
    path = _write(
        tmp_path, "repro/core/driver.py",
        '"""Doc."""\n'
        "__all__ = ['a', 'b', 'c']\n"
        "def a(stream):\n"
        "    return stream.record(Event('x'))\n"
        "def b(stream, self):\n"
        "    self.pending = stream.record(Event('y'))\n"
        "def c(stream, register):\n"
        "    register(stream.record(Event('z')))\n",
    )
    assert lint_file(path, root=tmp_path) == []


def test_rpr008_cdll_function_without_contract(tmp_path):
    path = _write(
        tmp_path, "repro/ffi.py",
        '"""Doc."""\n'
        "import ctypes\n"
        "__all__ = ['Lib']\n"
        "class Lib:\n"
        "    def __init__(self, path):\n"
        "        lib = ctypes.CDLL(path)\n"
        "        self.f = lib.foo\n"
        "        self.f.argtypes = [ctypes.c_void_p]\n"
        "        self.g = lib.bar\n"  # no argtypes, no restype
        "        lib.baz(0)\n",  # direct call, no declared contract
    )
    violations = lint_file(path, root=tmp_path)
    assert [v.rule for v in violations] == ["RPR008", "RPR008", "RPR008"]
    messages = " ".join(v.message for v in violations)
    assert "restype" in messages  # self.f has argtypes but no restype


def test_rpr008_declared_contract_passes(tmp_path):
    path = _write(
        tmp_path, "repro/ffi_ok.py",
        '"""Doc."""\n'
        "import ctypes\n"
        "__all__ = ['Lib']\n"
        "class Lib:\n"
        "    def __init__(self, lib: ctypes.CDLL):\n"
        "        self.f = lib.foo\n"
        "        self.f.argtypes = [ctypes.c_void_p]\n"
        "        self.f.restype = None\n",
    )
    assert lint_file(path, root=tmp_path) == []


def test_rpr009_unguarded_pointer_escape(tmp_path):
    """Pointers packed into tuples count too — not just direct call args."""
    path = _write(
        tmp_path, "repro/ptr.py",
        '"""Doc."""\n'
        "__all__ = ['call']\n"
        "def call(f, arr):\n"
        "    args = (arr.ctypes.data, arr.size)\n"
        "    f(*args)\n",
    )
    violations = lint_file(path, root=tmp_path)
    assert _rules(violations) == {"RPR009"}
    assert "arr" in violations[0].message


def test_rpr009_guarded_pointer_passes(tmp_path):
    path = _write(
        tmp_path, "repro/ptr_ok.py",
        '"""Doc."""\n'
        "import numpy as np\n"
        "__all__ = ['call']\n"
        "def call(f, arr):\n"
        "    arr = np.ascontiguousarray(arr, dtype=np.float32)\n"
        "    f(arr.ctypes.data, arr.size)\n",
    )
    assert lint_file(path, root=tmp_path) == []


def test_rpr011_dist_store_outside_dynamic(tmp_path):
    path = _write(
        tmp_path, "repro/select/tweak.py",
        '"""Doc."""\n'
        "__all__ = ['shortcut']\n"
        "def shortcut(apsp, u, v, w):\n"
        "    apsp.dist[u, v] = w\n",
    )
    violations = lint_file(path, root=tmp_path)
    assert _rules(violations) == {"RPR011"}
    v = violations[0]
    assert v.name == "stale-dist-mutation" and v.line == 4
    assert "DynamicAPSP" in v.message


def test_rpr011_frozen_csr_arrays(tmp_path):
    """weights/indptr/indices element stores are flagged everywhere,
    including augmented assignments and tuple targets."""
    path = _write(
        tmp_path, "repro/graphs/mutate.py",
        '"""Doc."""\n'
        "__all__ = ['reweight']\n"
        "def reweight(g, e, w):\n"
        "    g.weights[e] = w\n"
        "    g.indptr[0] += 1\n"
        "    g.indices[e], x = e, 0\n",
    )
    violations = lint_file(path, root=tmp_path)
    assert [v.rule for v in violations] == ["RPR011"] * 3
    assert {v.line for v in violations} == {4, 5, 6}
    assert all("apply_edge_updates" in v.message for v in violations)


def test_rpr011_store_data_outside_core(tmp_path):
    path = _write(
        tmp_path, "repro/analysis/poke.py",
        '"""Doc."""\n'
        "__all__ = ['poke']\n"
        "def poke(result):\n"
        "    result.store.data[...] = 0\n",
    )
    violations = lint_file(path, root=tmp_path)
    assert _rules(violations) == {"RPR011"}
    assert ".store.data" in violations[0].message


def test_rpr011_dynamic_and_core_owners_exempt(tmp_path):
    """The owning packages may mutate their own state: repro/dynamic/
    for dist/CSR panels, repro/core/ for a result's backing store."""
    dyn = _write(
        tmp_path, "repro/dynamic/patching.py",
        '"""Doc."""\n'
        "__all__ = ['patch']\n"
        "def patch(self, rows, view):\n"
        "    self.dist[rows, :] = view\n"
        "    self.graph.weights[0] = 1.0\n",
    )
    core = _write(
        tmp_path, "repro/core/shift.py",
        '"""Doc."""\n'
        "__all__ = ['unshift']\n"
        "def unshift(result, delta):\n"
        "    result.store.data[...] = result.store.data - delta\n",
    )
    assert lint_file(dyn, root=tmp_path) == []
    assert lint_file(core, root=tmp_path) == []


def test_rpr011_reads_and_local_names_pass(tmp_path):
    """Reads of dist/CSR arrays and stores to local matrices are fine —
    only attribute-chain element stores are the stale-state hazard."""
    path = _write(
        tmp_path, "repro/analysis/reader.py",
        '"""Doc."""\n'
        "import numpy as np\n"
        "__all__ = ['scan']\n"
        "def scan(apsp, g):\n"
        "    dist = apsp.dist.copy()\n"
        "    dist[0, 0] = 0.0\n"
        "    return float(dist.sum() + g.weights[0] + apsp.dist[1, 2])\n",
    )
    assert lint_file(path, root=tmp_path) == []


def test_syntax_error_reported_not_raised(tmp_path):
    path = _write(tmp_path, "repro/broken.py", "def broken(:\n")
    violations = lint_file(path, root=tmp_path)
    assert [v.rule for v in violations] == ["RPR000"]


# ---------------------------------------------------------------------------
# Directory walking, formatting, CLI
# ---------------------------------------------------------------------------
def test_lint_paths_walks_directories(tmp_path):
    _write(tmp_path, "repro/core/a.py",
           '"""Doc."""\n__all__ = []\n')
    _write(tmp_path, "repro/core/b.py",
           '"""Doc."""\ndef pub():\n    return 2\n')
    violations = lint_paths([tmp_path])
    assert _rules(violations) == {"RPR005"}
    text = format_violations(violations)
    assert "b.py" in text and "RPR005 missing-all" in text


def test_cli_lint_exit_codes(tmp_path, capsys):
    from repro.cli import main

    _write(tmp_path, "repro/bad.py", '"""Doc."""\ndef pub():\n    return 2\n')
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RPR005" in out and "bad.py" in out
    assert main(["lint", str(REPO_SRC)]) == 0


def test_repository_tree_is_lint_clean():
    """The acceptance gate: ``python -m repro lint src/`` exits 0."""
    violations = lint_paths([REPO_SRC], root=REPO_SRC.parent)
    assert violations == [], "\n" + format_violations(violations)
