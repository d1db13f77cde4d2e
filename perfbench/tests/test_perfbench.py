"""The benchmark's own tests, on tiny versions of the four workloads.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from perfbench import harness, spans
from perfbench.workloads import WORKLOADS, Solve, make_workload

ROOT = Path(__file__).resolve().parents[2]

#: per-layer metrics that are counts or modeled values, not wall times
EXACT_UNITS = {"count", "B", "Gop", "ratio"}


def _tiny_run(name: str, tmp_path: Path, *, trace: bool = True) -> harness.Run:
    return harness.run_benchmark(name, 7, 0.0, trace=trace, build_dir=tmp_path, tiny=True)


def _exact(run: harness.Run) -> dict[str, float]:
    layers = harness.per_layer(run)
    out = {k: v for k, (v, unit) in layers.items() if unit in EXACT_UNITS}
    out["gpu.sim_s"] = layers["gpu.sim_s"][0]
    out["sim_s"] = harness.sim_seconds(run)
    return out


def _answers(workload, out) -> list:
    """Every distance an op returned, in a comparable form."""
    if isinstance(workload, Solve):
        return [out.to_array(), out.simulated_seconds]
    return [(r.query, np.asarray(r.value), r.served_from)
            for _graph, responses in out for r in responses]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_repeats_inputs_sim_and_counts(name, tmp_path):
    workload = make_workload(name, tmp_root=tmp_path, tiny=True)
    first, second = workload.build(3), workload.build(3)
    graphs = [getattr(s, "graph", None) or s.service.graph for s in (first, second)]
    for attr in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(graphs[0], attr), getattr(graphs[1], attr))
    if not isinstance(workload, Solve):
        a, b = workload.prepare(first, 1), workload.prepare(second, 1)
        assert a.cycles == b.cycles
    workload.close(first)
    workload.close(second)

    runs = [_tiny_run(name, tmp_path) for _ in range(2)]
    assert all(run.failed == 0 for run in runs)
    assert _exact(runs[0]) == _exact(runs[1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_changes_no_distance_and_no_sim(name, tmp_path):
    workload = make_workload(name, tmp_root=tmp_path, tiny=True)
    answers = []
    for traced in (False, True):
        state = workload.build(5)
        tracer = spans.install() if traced else None
        try:
            outs = []
            for index in range(3):
                inputs = workload.prepare(state, index)
                if tracer is not None:
                    tracer.op = index
                out = workload.execute(state, inputs)
                if tracer is not None:
                    tracer.op = -1
                outs.append(_answers(workload, out)
                            + [workload.check(state, inputs, out).sim_seconds])
        finally:
            if tracer is not None:
                tracer.uninstall()
            workload.close(state)
        if traced:
            assert tracer.spans, "the traced pass recorded no span"
        answers.append(outs)
    for bare, traced in zip(*answers):
        for x, y in zip(bare, traced):
            if isinstance(x, tuple):
                assert x[0] == y[0] and np.array_equal(x[1], y[1]) and x[2] == y[2]
            else:
                assert np.array_equal(x, y)


def test_uninstall_restores_every_function():
    import repro.core.api as api
    import repro.dynamic.patch as patch
    from repro.core.engine import KernelEngine

    before = (api.ooc_floyd_warshall, patch.dijkstra, KernelEngine.update)
    spans.install().uninstall()
    assert (api.ooc_floyd_warshall, patch.dijkstra, KernelEngine.update) == before


class _WrongDistance:
    """A workload whose every op returns one negative distance."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def execute(self, state, inputs):
        out = self.inner.execute(state, inputs)
        if isinstance(self.inner, Solve):
            out.store.data[0, 0] = -1.0
            return out
        first = out[0][1][0]
        if first.query.kind == "point":
            first.value = -1.0
        else:
            first.value[0] = -1.0
        return out


@pytest.mark.parametrize("name", ["fw-rmat", "serve-rows"])
def test_seeded_wrong_distance_raises_error_rate(name, tmp_path, monkeypatch):
    clean = _tiny_run(name, tmp_path, trace=False)
    assert harness.error_rate(clean) == 0.0
    monkeypatch.setattr(
        harness, "make_workload", lambda *a, **k: _WrongDistance(make_workload(*a, **k))
    )
    broken = _tiny_run(name, tmp_path, trace=False)
    assert broken.failed == broken.attempted
    assert harness.error_rate(broken) == 1.0


def _tracked_digest() -> dict[str, str]:
    files = [*ROOT.glob("BENCH_*.json"), *ROOT.glob("benchmarks/results/*"),
             *ROOT.glob("src/**/*.py"), *ROOT.glob("perfbench/**/*.py"),
             ROOT / "BENCHMARK.json"]
    return {str(f): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in files if f.is_file()}


def test_run_leaves_tracked_files_unchanged(tmp_path):
    before = _tracked_digest()
    for name in WORKLOADS:
        run = _tiny_run(name, tmp_path)
        run.tracer.dump(tmp_path / "trace" / f"{name}.json", run.meta)
    assert _tracked_digest() == before
    # temporary closure caches are gone; only the span dumps remain
    assert not any((tmp_path / "tmp").iterdir())
    assert sorted(p.name for p in (tmp_path / "trace").iterdir()) == sorted(
        f"{name}.json" for name in WORKLOADS
    )


@pytest.mark.parametrize("kind", sorted(harness.REFERENCE_SAMPLE_S))
def test_speed_sampler_samples_inside_the_span_and_excludes_its_own_time(kind):
    with harness.SpeedSampler(kind) as clock:
        deadline = perf_counter() + 0.3
        while perf_counter() < deadline:
            pass
    assert len(clock.samples) >= 5
    assert clock.sampling == sum(clock.samples) > 0
    assert clock.seconds + clock.sampling == pytest.approx(0.3, abs=0.05)
    assert clock.scaled == pytest.approx(clock.seconds * clock.speed)


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    from perfbench import run

    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "fw-rmat", "--seed", "1"]) != 0
    assert capsys.readouterr().out == ""
