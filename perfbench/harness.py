"""One benchmark run: set up, warm up, measure ops, check them, report.

Load is closed-loop from one client in one process: the next op starts
only after the previous one returned and was checked. Only the op itself
is timed; input generation and the oracle check run between ops.

A run measures a fixed number of ops, ``--seconds`` divided by the
workload's nominal op time, so every run of a workload measures the same
op sequence whatever the machine's speed. With ``trace=True`` the same
sequence is replayed on a fresh state under the layer wrappers of
:mod:`perfbench.spans`: the per-layer numbers come from that pass, and
comparing both passes gives the tracing overhead.

Machine drift. On a shared 2-vCPU host the same code runs up to 1.5x
slower (allocation-heavy Python up to 1.9x) for stretches from a fraction
of a second to half a minute, whatever the program does. Every timed span
(a state construction, an op) therefore runs under a
:class:`SpeedSampler`: a timer signal interrupts it every
``SAMPLE_PERIOD_S`` to time one round of fixed pure-Python work
(:func:`_work`), which tells how fast the machine is at that moment. The
reported times are *scaled*: the span's wall time, less the samples' own
time, times the mean over its samples of the reference round time /
sample — the span's time on a machine that does a round in
``REFERENCE_SAMPLE_S`` throughout. Raw wall times are kept next to them
(``Op.seconds``) and printed. A longer probe of the same work
(:func:`speed_probe`) is read at the start and end of each run, as
metadata.
"""

from __future__ import annotations

import heapq
import os
import platform
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import spans as tracing
from perfbench.workloads import make_workload

#: fresh state constructions per run; ``setup_s`` takes their median
SETUP_REPEATS = 3
#: wall seconds between two speed samples inside a timed span
SAMPLE_PERIOD_S = 0.025
#: one round of :func:`_work`, by kind, on the reference machine that
#: scaled times are quoted for
REFERENCE_SAMPLE_S = {"loop": 0.0008, "loop+walk": 0.0013}
#: rounds of :func:`_work` in the start and end probe
PROBE_ROUNDS = 100
#: integer-loop steps and graph vertices of one round of :func:`_work`
LOOP_STEPS = 20_000
WALK_VERTICES = 150

# the fixed graph the speed sample walks: CSR, four out-edges per vertex
_rng = np.random.default_rng(0)
_WALK_INDPTR = np.arange(0, 4 * WALK_VERTICES + 1, 4)
_WALK_INDICES = _rng.integers(0, WALK_VERTICES, 4 * WALK_VERTICES)
_WALK_WEIGHTS = _rng.integers(1, 50, 4 * WALK_VERTICES).astype(np.float64)


@dataclass
class Op:
    seconds: float
    ok: bool
    #: wall seconds at the reference machine speed (see module docstring)
    scaled: float
    queries: int = 0
    sim_seconds: float = 0.0
    #: mean machine speed during the op, relative to the reference machine
    speed: float = 1.0
    #: wall seconds the op spent in speed samples (not in ``seconds``)
    sampling: float = 0.0


@dataclass
class Run:
    """Everything one run measured."""

    workload: str
    seed: int
    #: state constructions, each timed by a :class:`SpeedSampler`
    setup_builds: "list[SpeedSampler]"
    peak_rss_mb: float
    #: warm-up ops (one per state built for measuring), checked, not timed
    warmups: list[Op]
    #: measured ops, untraced
    ops: list[Op]
    meta: dict
    #: the same op sequence replayed traced (``trace=True`` only)
    traced: list[Op] = field(default_factory=list)
    tracer: "tracing.Tracer | None" = None
    #: per-op counters the workloads read, summed over the traced ops
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def setup_seconds(self) -> float:
        """Median state construction plus the warm-up op, scaled."""
        build = statistics.median(b.scaled for b in self.setup_builds)
        return build + self.warmups[0].scaled

    @property
    def attempted(self) -> int:
        return len(self.warmups) + len(self.ops) + len(self.traced)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.warmups + self.ops + self.traced)


def _work(rounds: int, kind: str) -> float:
    """Seconds for ``rounds`` rounds of fixed pure-Python work.

    A round is a tight integer loop, and for the ``loop+walk`` kind also a
    heap-ordered walk (Dijkstra) over a small fixed graph held in numpy
    arrays. A busy host slows the two differently, so each workload is
    sampled with the kind its ops resemble (``Workload.sample``): with the
    other kind, its scaled op times spread about twice as much.
    """
    indptr, indices, weights = _WALK_INDPTR, _WALK_INDICES, _WALK_WEIGHTS
    walk = kind == "loop+walk"
    start = perf_counter()
    for _ in range(rounds):
        acc = 0
        for i in range(LOOP_STEPS):
            acc += i & 7
        if not walk:
            continue
        dist = np.full(WALK_VERTICES, np.inf)
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for e in range(indptr[u], indptr[u + 1]):
                v, nd = indices[e], d + weights[e]
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return perf_counter() - start


def speed_probe(kind: str) -> float:
    """Seconds for ``PROBE_ROUNDS`` rounds of :func:`_work`: how fast the
    machine is now."""
    return _work(PROBE_ROUNDS, kind)


_active: "SpeedSampler | None" = None


def _sample(signum, frame) -> None:
    sampler = _active
    if sampler is not None:
        sampler.samples.append(_work(1, sampler.kind))


class SpeedSampler:
    """Stopwatch for one span that samples the machine's speed as it runs.

    While active, ``SIGALRM`` fires every ``SAMPLE_PERIOD_S`` of wall time
    and runs one round of ``kind`` work in the main thread, between the
    timed code's bytecodes. On exit, ``seconds`` is the span's wall time
    less the samples' own, ``speed`` the mean of the kind's
    ``REFERENCE_SAMPLE_S`` / sample (one more sample is taken at exit, so a
    short span has one too) and ``scaled`` is ``seconds * speed``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: list[float] = []
        self.sampling = 0.0
        self.seconds = 0.0
        self.speed = 1.0
        self.scaled = 0.0

    def __enter__(self) -> "SpeedSampler":
        global _active
        if signal.getsignal(signal.SIGALRM) is not _sample:
            signal.signal(signal.SIGALRM, _sample)
        self.samples = []
        _active = self
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        _active = None
        self.sampling = sum(self.samples)
        self.seconds = perf_counter() - self._start - self.sampling
        samples = [*self.samples, _work(1, self.kind)]
        reference = REFERENCE_SAMPLE_S[self.kind]
        self.speed = statistics.fmean(reference / s for s in samples)
        self.scaled = self.seconds * self.speed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _meta(workload: str, seed: int, op_count: int) -> dict:
    import numpy
    import scipy

    from repro.core.engine import default_engine

    engine = default_engine()
    return {
        "workload": workload,
        "seed": seed,
        "ops": op_count,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": engine.describe(),
        "kernel_choice": "tuned" if engine.tuned is not None else "calibrated",
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "REPRO_JIT_THREADS": os.environ.get("REPRO_JIT_THREADS"),
    }


def op_count(workload, seconds: float) -> int:
    """Ops per pass: ``seconds`` of the workload's nominal op time."""
    return max(workload.min_ops, round(seconds / workload.nominal_s))


def _op(workload, state, index: int, tracer: "tracing.Tracer | None" = None,
        counts: "dict[str, float] | None" = None, before_check=None) -> Op:
    """Prepare, time and check op ``index``; an op that raises or answers
    wrongly is failed, and the run goes on."""
    inputs = workload.prepare(state, index)
    if tracer is not None:
        tracer.op = index
    clock = SpeedSampler(workload.sample)
    try:
        with clock:
            out = workload.execute(state, inputs)
    except Exception as exc:
        print(f"op {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return Op(clock.seconds, False, clock.scaled, speed=clock.speed,
                  sampling=clock.sampling)
    finally:
        if tracer is not None:
            tracer.op = -1
    op = Op(clock.seconds, True, clock.scaled, speed=clock.speed, sampling=clock.sampling)
    if before_check is not None:
        before_check()
    check = workload.check(state, inputs, out)
    op.ok, op.queries, op.sim_seconds = check.ok, check.queries, check.sim_seconds
    if counts is not None:
        for key, value in check.counts.items():
            counts[key] = counts.get(key, 0) + value
    return op


def run_benchmark(name: str, seed: int, seconds: float, *, trace: bool,
                  build_dir: Path, tiny: bool = False) -> Run:
    """Set up ``name`` from ``seed``, then measure its op sequence."""
    workload = make_workload(name, tmp_root=build_dir / "tmp", tiny=tiny)
    probe_start = speed_probe(workload.sample)
    count = op_count(workload, seconds)
    builds: list[SpeedSampler] = []
    state = None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
            builds.append(SpeedSampler(workload.sample))
            with builds[-1]:
                state = workload.build(seed)
        # the warm-up op pays the process's lazy work (kernel engine
        # calibration, compiled-kernel load) inside set-up, not in op 1;
        # peak memory is read before the oracle first runs, so its arrays
        # are not counted
        rss: list[float] = []
        warmups = [_op(workload, state, 0, before_check=lambda: rss.append(peak_rss_mb()))]
        ops = [_op(workload, state, i) for i in range(1, count + 1)]

        traced: list[Op] = []
        tracer = None
        counts: dict[str, float] = {}
        if trace:
            # replay the same sequence, from a fresh state, under the wrappers
            workload.close(state)
            state = workload.build(seed)
            warmups.append(_op(workload, state, 0))
            tracer = tracing.install()
            try:
                traced = [_op(workload, state, i, tracer, counts)
                          for i in range(1, count + 1)]
            finally:
                tracer.uninstall()
    finally:
        if state is not None:
            workload.close(state)
    meta = _meta(name, seed, count)
    meta["probe_start_s"] = probe_start
    meta["probe_end_s"] = speed_probe(workload.sample)
    meta["probe_kind"] = workload.sample
    return Run(name, seed, builds, rss[0] if rss else peak_rss_mb(),
               warmups, ops, meta, traced, tracer, counts)


# ----------------------------------------------------------------------------
# reduction to metrics
# ----------------------------------------------------------------------------
def _ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """The metrics a user of the system sees, measured untraced."""
    return {
        "op_p50_ms": (_ms([op.scaled for op in run.ops]), "ms"),
        "qps": (sum(op.queries for op in run.ops) / sum(op.scaled for op in run.ops), "1/s"),
        "setup_s": (run.setup_seconds, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def wall(run: Run) -> dict[str, tuple[float, str]]:
    """The unscaled wall-clock counterparts of the timed metrics."""
    return {
        "wall_op_p50_ms": (_ms([op.seconds for op in run.ops]), "ms"),
        "wall_qps": (sum(op.queries for op in run.ops) / sum(op.seconds for op in run.ops), "1/s"),
        "wall_setup_s": (
            statistics.median(b.seconds for b in run.setup_builds) + run.warmups[0].seconds, "s"
        ),
    }


def sim_seconds(run: Run) -> float:
    """Simulated device seconds per measured op; exact, because every run
    of a workload measures the same op sequence."""
    return sum(op.sim_seconds for op in run.ops) / len(run.ops)


def error_rate(run: Run) -> float:
    return run.failed / run.attempted


#: per-layer metrics: name → unit (BENCHMARK.json ``per_layer`` order)
PER_LAYER_UNITS: dict[str, str] = {
    "select.calibrate_s": "s",
    "select.johnson_estimate_s": "s",
    "select.boundary_estimate_s": "s",
    "select.price_s": "s",
    "partition.kway_s": "s",
    "partition.calls": "count",
    "sssp.near_far_s": "s",
    "sssp.near_far_calls": "count",
    "sssp.sources": "count",
    "sssp.iterations": "count",
    "sssp.relaxations": "count",
    "sssp.dijkstra_s": "s",
    "sssp.dijkstra_calls": "count",
    "kernel.update_s": "s",
    "kernel.update_calls": "count",
    "kernel.fw_s": "s",
    "kernel.gop": "Gop",
    "kernel.gops": "Gop/s",
    "driver.fw.self_s": "s",
    "driver.johnson.self_s": "s",
    "driver.boundary.self_s": "s",
    "gpu.stream_s": "s",
    "gpu.transfers": "count",
    "gpu.bytes_h2d": "B",
    "gpu.bytes_d2h": "B",
    "gpu.retries": "count",
    "gpu.sim_s": "s",
    "serve.submit_s": "s",
    "serve.drain_s": "s",
    "serve.mutate_s": "s",
    "serve.batches": "count",
    "serve.batch_sources": "count",
    "serve.row_queries": "count",
    "serve.row_hit_ratio": "ratio",
    "serve.rejected": "count",
    "dynamic.apply_s": "s",
    "dynamic.affected_rows": "count",
    "dynamic.decrease_k": "count",
    "dynamic.bytes_moved": "B",
    "dynamic.noop_ratio": "ratio",
    "cache.revalidate_s": "s",
    "cache.save_s": "s",
    "cache.save_bytes": "B",
    "self.select_s": "s",
    "self.partition_s": "s",
    "self.sssp_s": "s",
    "self.kernel_s": "s",
    "self.driver_s": "s",
    "self.gpu_s": "s",
    "self.serve_s": "s",
    "self.dynamic_s": "s",
    "self.cache_s": "s",
    "self.unwrapped_s": "s",
    "trace.op_p50_ms": "ms",
    "trace.bare_op_p50_ms": "ms",
    "trace.overhead_pct": "%",
}


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from the traced ops of a ``trace=True`` run.

    Span times are inclusive unless named ``self``; counts are summed over
    the traced ops and divided by their number, like the times. Span times
    are raw wall times and include the speed samples taken inside them
    (a few percent, see :class:`SpeedSampler`).
    """
    tracer = run.tracer
    if tracer is None:
        raise ValueError("per-layer metrics need a traced run")
    traced, bare = run.traced, run.ops
    per_op = 1.0 / len(traced)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, tracer.self_seconds()):
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        own[span.name] = own.get(span.name, 0.0) + self_s
    counts = {**tracer.counts}
    for key, value in run.counts.items():
        counts[key] = counts.get(key, 0) + value

    values: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        if name.startswith("driver."):
            values[name] = own.get(name[: -len(".self_s")], 0.0)
        elif name.startswith("self."):
            layer = name[len("self."): -len("_s")]
            values[name] = sum(s for n, s in own.items() if n.split(".", 1)[0] == layer)
        elif name.endswith("_s") and name[: -2] in total:
            values[name] = total[name[: -2]]
        else:
            values[name] = counts.get(name, 0.0)
    values["kernel.gop"] = counts.get("kernel.op", 0.0) / 1e9
    kernel_s = values["kernel.update_s"] + values["kernel.fw_s"]
    values["kernel.gops"] = values["kernel.gop"] / kernel_s if kernel_s else 0.0
    row_queries = counts.get("serve.row_queries", 0.0)
    values["serve.row_hit_ratio"] = (
        counts.get("serve.row_hits", 0.0) / row_queries if row_queries else 0.0
    )
    updates = counts.get("dynamic.updates", 0.0)
    values["dynamic.noop_ratio"] = counts.get("dynamic.noops", 0.0) / updates if updates else 0.0
    # op time outside every wrapped layer: the API's own glue code
    roots = sum(span.seconds for span in tracer.spans if span.parent < 0)
    values["self.unwrapped_s"] = sum(op.seconds + op.sampling for op in traced) - roots

    ratios = {"kernel.gops", "serve.row_hit_ratio", "dynamic.noop_ratio"}
    out = {
        name: (value if name in ratios else value * per_op, PER_LAYER_UNITS[name])
        for name, value in values.items()
        if not name.startswith("trace.")
    }
    out["gpu.sim_s"] = (sum(op.sim_seconds for op in traced) * per_op, "s")
    traced_ms = _ms([op.scaled for op in traced])
    bare_ms = _ms([op.scaled for op in bare])
    out["trace.op_p50_ms"] = (traced_ms, "ms")
    out["trace.bare_op_p50_ms"] = (bare_ms, "ms")
    out["trace.overhead_pct"] = (100.0 * (traced_ms / bare_ms - 1.0), "%")
    return out
