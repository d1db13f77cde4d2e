"""The four benchmark workloads and their scipy oracle.

Each workload is one fixed instance — a named graph plus, for the
service, a fixed sequence of mutations and query waves. The seed renames
its vertices: every seed is the same problem under another vertex
naming, so seeds differ in their inputs but not in how hard they are,
and the spread between seeds is the machine's, not the workload's.

Per op, :meth:`prepare` builds the inputs (untimed), :meth:`execute` runs
them through the public API (the timed part) and :meth:`check` compares
every answer with ``scipy.sparse.csgraph.shortest_path`` on the op's graph
version (untimed). Generated weights are integers, so every comparison is
exact equality.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
from scipy.sparse.csgraph import shortest_path

from repro.bench.runner import device_profile
from repro.core.api import solve_apsp
from repro.dynamic.patch import EdgeUpdate, apply_edge_updates
from repro.gpu.device import V100
from repro.graphs.generators import rmat
from repro.graphs.suite import get_suite_graph
from repro.serve.loadgen import generate_queries, generate_updates
from repro.serve.request import Query
from repro.serve.service import APSPService

__all__ = ["Check", "WORKLOADS", "make_workload", "oracle"]

#: workload names, in BENCHMARK.json order
WORKLOADS = ("auto-road", "fw-rmat", "serve-rows", "serve-patch")
#: edge updates per ``mutate``
UPDATES_PER_OP = 8


def oracle(graph, sources=None) -> np.ndarray:
    """Exact distances from ``sources`` (all vertices when ``None``)."""
    return shortest_path(graph.to_scipy(), method="D", directed=True, indices=sources)


def sub_seed(*path: int) -> int:
    """A stable 32-bit seed for one op (and wave) of the fixed instance."""
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def relabel(graph, seed: int):
    """``(renamed graph, perm)``: vertex ``v`` of ``graph`` is ``perm[v]``."""
    perm = np.random.default_rng(seed).permutation(graph.num_vertices)
    return graph.permute(perm), perm


@dataclass
class Check:
    """Outcome of checking one op against the oracle."""

    ok: bool
    #: queries answered by the op (a solve answers one full-matrix query)
    queries: int
    #: simulated device seconds the op charged
    sim_seconds: float
    #: per-op counters only the workload can read (e.g. device retries)
    counts: dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------------
# solves: one op is one solve_apsp call on a graph that never changes
# ----------------------------------------------------------------------------
@dataclass
class SolveState:
    graph: Any
    spec: Any
    truth: "np.ndarray | None" = None


class Solve:
    """``solve_apsp`` with one algorithm on the ``ratio`` device profile."""

    #: speed-sample work the op's code resembles (``perfbench.harness._work``)
    sample = "loop"

    def __init__(self, name: str, make_graph, *, algorithm: str, nominal_s: float,
                 density_scale: float = 1.0, min_ops: int = 3) -> None:
        self.name = name
        self.make_graph = make_graph
        self.algorithm = algorithm
        #: rough seconds per op here, to turn ``--seconds`` into an op count
        self.nominal_s = nominal_s
        self.density_scale = density_scale
        self.min_ops = min_ops

    def build(self, seed: int) -> SolveState:
        graph, _perm = relabel(self.make_graph(), seed)
        return SolveState(graph, device_profile("ratio"))

    def prepare(self, state: SolveState, index: int) -> None:
        return None

    def execute(self, state: SolveState, inputs: None):
        return solve_apsp(
            state.graph, algorithm=self.algorithm, device=state.spec,
            density_scale=self.density_scale,
        )

    def check(self, state: SolveState, inputs: None, result) -> Check:
        if state.truth is None:
            state.truth = oracle(state.graph)
        ok = np.array_equal(result.to_array().astype(np.float64), state.truth)
        return Check(ok, 1, result.simulated_seconds,
                     {"gpu.retries": result.faults.retried})

    def close(self, state: SolveState) -> None:
        pass


# ----------------------------------------------------------------------------
# service: one op is one mutate, then waves of submitted and drained queries
# ----------------------------------------------------------------------------
@dataclass
class ServeState:
    service: APSPService
    #: the instance in its own naming, mutated in step with the service
    canon: Any
    perm: np.ndarray
    cache_dir: "Path | None" = None


@dataclass
class ServeInputs:
    #: ``(updates, waves)`` per cycle: one ``mutate``, then each wave of
    #: queries submitted and drained
    cycles: list
    #: the service's cumulative counters before the op: modeled clock,
    #: device retries, admission refusals
    before: tuple[float, int, int]


def _service_counters(service: APSPService) -> tuple[float, int, int]:
    rejected = sum(t.rejected for t in service.admission.tenants.values())
    return service.now, service.device.fault_report.retried, rejected


def _weight(graph, u: int, v: int) -> float:
    """Weight of edge ``(u, v)``, ``inf`` when absent."""
    lo, hi = graph.indptr[u], graph.indptr[u + 1]
    hit = np.flatnonzero(graph.indices[lo:hi] == v)
    return float(graph.weights[lo + hit[0]]) if hit.size else math.inf


class Serve:
    """Closed loop, one client: cycles of ``mutate``, then ``waves`` × (submit, drain).

    An op is one cycle of fresh updates, or with ``toggle`` two cycles: one
    fixed batch of updates, then the batch that reverts it. A toggled op
    leaves the graph as it found it, so every op does the same work.
    """

    def __init__(self, name: str, num_vertices: int, num_edges: int, *,
                 waves: int, closure_cache: bool, nominal_s: float,
                 toggle: bool = False, min_ops: int = 3, queries_per_wave: int = 128,
                 sample: str = "loop", tmp_root: "Path | None" = None) -> None:
        self.name = name
        #: speed-sample work the op's code resembles (``perfbench.harness._work``)
        self.sample = sample
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.waves = waves
        self.closure_cache = closure_cache
        self.nominal_s = nominal_s
        self.toggle = toggle
        self.min_ops = min_ops
        self.queries_per_wave = queries_per_wave
        self.tmp_root = tmp_root

    def build(self, seed: int) -> ServeState:
        canon = rmat(self.num_vertices, self.num_edges)
        graph, perm = relabel(canon, seed)
        if not self.closure_cache:
            return ServeState(APSPService(graph, spec=V100), canon, perm)
        if self.tmp_root is not None:
            self.tmp_root.mkdir(parents=True, exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="closure-", dir=self.tmp_root))
        service = APSPService(graph, spec=V100, cache_dir=cache_dir)
        # prime the closure: every later query is answered from it
        service.submit(Query.full())
        service.drain()
        return ServeState(service, canon, perm, cache_dir)

    def _waves(self, state: ServeState, *path: int) -> list:
        perm = state.perm
        waves = []
        for w in range(self.waves):
            queries = generate_queries(
                state.canon, num_queries=self.queries_per_wave,
                seed=sub_seed(*path, w + 1), point_fraction=0.5,
            )
            waves.append([
                Query.point(perm[q.u], perm[q.v]) if q.kind == "point" else Query.sssp(perm[q.u])
                for q in queries
            ])
        return waves

    def _mutated(self, state: ServeState, updates: list) -> list:
        """Apply ``updates`` to the instance; returns them renamed."""
        state.canon = apply_edge_updates(state.canon, {(u.u, u.v): u.weight for u in updates})
        perm = state.perm
        return [EdgeUpdate(int(perm[u.u]), int(perm[u.v]), u.weight) for u in updates]

    def prepare(self, state: ServeState, index: int) -> ServeInputs:
        # draw from the instance in its own naming, then rename: the draw
        # (which edges change, which sources are asked) is the same for
        # every seed
        before = _service_counters(state.service)
        batch = generate_updates(
            state.canon, num_updates=UPDATES_PER_OP,
            seed=sub_seed(0 if self.toggle else index, 0),
        )
        if not self.toggle:
            updates = self._mutated(state, batch)
            return ServeInputs([(updates, self._waves(state, index))], before)
        revert = [EdgeUpdate(u.u, u.v, _weight(state.canon, u.u, u.v)) for u in reversed(batch)]
        cycles = []
        for half, updates in enumerate((batch, revert)):
            renamed = self._mutated(state, updates)
            cycles.append((renamed, self._waves(state, index, half)))
        return ServeInputs(cycles, before)

    def execute(self, state: ServeState, inputs: ServeInputs) -> list:
        """Run the op; returns ``(graph version, responses)`` per cycle."""
        service = state.service
        out = []
        for updates, waves in inputs.cycles:
            service.mutate(updates)
            responses = []
            for wave in waves:
                for query in wave:
                    service.submit(query)
                responses.extend(service.drain())
            out.append((service.graph, responses))
        return out

    def check(self, state: ServeState, inputs: ServeInputs, out: list) -> Check:
        ok = True
        answered = 0
        for (graph, responses), (_updates, waves) in zip(out, inputs.cycles):
            ok = ok and len(responses) == sum(len(wave) for wave in waves)
            answered += len(responses)
            sources = sorted({r.query.source for r in responses})
            truth = oracle(graph, sources) if sources else None
            row = {s: i for i, s in enumerate(sources)}
            for r in responses:
                expected = truth[row[r.query.source]]
                if r.query.kind == "point":
                    ok = ok and float(r.value) == expected[r.query.v]
                else:
                    ok = ok and np.array_equal(np.asarray(r.value, dtype=np.float64), expected)
        now, retried, rejected = (
            after - before
            for after, before in zip(_service_counters(state.service), inputs.before)
        )
        return Check(bool(ok), answered, now,
                     {"gpu.retries": retried, "serve.rejected": rejected})

    def close(self, state: ServeState) -> None:
        if state.cache_dir is not None:
            shutil.rmtree(state.cache_dir, ignore_errors=True)


def make_workload(name: str, *, tmp_root: "Path | None" = None, tiny: bool = False):
    """The workload called ``name``; ``tiny`` shrinks it for the tests."""
    if name == "auto-road":
        scale = 1 / 1024 if tiny else 1 / 64
        return Solve(name, lambda: get_suite_graph("luxembourg_osm", scale),
                     algorithm="auto", density_scale=scale, nominal_s=8.5, min_ops=4)
    if name == "fw-rmat":
        n, m = (200, 3200) if tiny else (3000, 48000)
        return Solve(name, lambda: rmat(n, m), algorithm="floyd-warshall", nominal_s=2.4)
    if name == "serve-rows":
        n, m = (150, 1200) if tiny else (1500, 12000)
        return Serve(name, n, m, waves=4, closure_cache=False, nominal_s=4.4, min_ops=4,
                     queries_per_wave=16 if tiny else 128)
    if name == "serve-patch":
        n, m = (100, 1600) if tiny else (800, 12800)
        # its ops are mostly pure-Python Dijkstra rows, which a busy host
        # slows more than a tight loop
        return Serve(name, n, m, waves=1, closure_cache=True, toggle=True, nominal_s=2.5,
                     sample="loop+walk", tmp_root=tmp_root,
                     queries_per_wave=16 if tiny else 128)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
