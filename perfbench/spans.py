"""Spans and counters for the traced run, recorded from outside the program.

:func:`install` swaps each layer's public functions for timing wrappers —
in every ``repro`` module that bound the function by name, and on the
class for methods — and returns a :class:`Tracer` whose ``uninstall``
puts the originals back. No code under ``src/`` changes, and with no
tracer installed the program runs exactly as shipped.

Spans are kept in memory as ``(name, start, end, parent, op)`` and written
out once, at exit (:meth:`Tracer.dump`). Counters are recorded at the same
boundaries, from each call's arguments and return value.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: signature of a counter hook: ``hook(tracer, args, kwargs, result)``
Hook = Callable[["Tracer", tuple, dict, Any], None]


@dataclass
class Span:
    """One call into a layer: wall interval, caller span and op id."""

    name: str
    start: float
    end: float
    #: index of the enclosing span in :attr:`Tracer.spans`, or -1
    parent: int
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter recorder for the wrapped layers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        #: op id stamped on new spans; set by the harness around each op
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        # worker threads (a threaded kernel engine's fan-out) pass through
        # untraced, so the span stack only ever sees one thread
        self._thread = threading.get_ident()

    # -- recording ---------------------------------------------------------
    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the current stack."""
        return any(self.spans[i].name == name for i in self._stack)

    def _wrap(self, orig: Callable, name: str, hook: "Hook | None") -> Callable:
        @functools.wraps(orig)
        def traced(*args, **kwargs):
            # outside an op (input generation, oracle checks) nothing is recorded
            if self.op < 0 or threading.get_ident() != self._thread:
                return orig(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------
    def wrap_function(self, module: str, attr: str, name: str, hook: "Hook | None" = None) -> None:
        """Trace ``module.attr`` wherever a ``repro`` module bound it."""
        orig = getattr(importlib.import_module(module), attr)
        traced = self._wrap(orig, name, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, orig))

    def wrap_method(self, module: str, cls: str, attr: str, name: str, hook: "Hook | None" = None) -> None:
        """Trace method ``cls.attr`` of ``module`` for every instance."""
        owner = getattr(importlib.import_module(module), cls)
        orig = vars(owner)[attr]
        setattr(owner, attr, self._wrap(orig, name, hook))
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        """Put every wrapped function back (last wrapped, first restored)."""
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- reduction ---------------------------------------------------------
    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s.seconds for s in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.seconds
        return own

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span and counter as JSON (called once, at exit)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "counts": self.counts,
            "spans": [asdict(s) for s in self.spans],
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


# ----------------------------------------------------------------------------
# counter hooks: work counts read from each call's arguments and result
# ----------------------------------------------------------------------------
def _near_far(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    sources = len(kwargs["sources"] if "sources" in kwargs else args[1])
    stats = result[1]
    tracer.add("sssp.near_far_calls")
    tracer.add("sssp.sources", sources)
    tracer.add("sssp.iterations", stats.iterations)
    tracer.add("sssp.relaxations", stats.relaxations)
    if tracer.inside("serve.drain"):
        # every MSSP launch of a drain is one coalesced service batch
        tracer.add("serve.batches")
        tracer.add("serve.batch_sources", sources)


def _count(key: str) -> Hook:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.add(key)

    return hook


def _update(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    _engine, _c, a, b = args[:4]
    tracer.add("kernel.update_calls")
    tracer.add("kernel.op", a.shape[0] * a.shape[1] * b.shape[1])


def _fw(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    n = args[1].shape[0]
    tracer.add("kernel.op", n * n * n)


def _h2d(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("gpu.transfers")
    tracer.add("gpu.bytes_h2d", args[2].nbytes)


def _d2h(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("gpu.transfers")
    tracer.add("gpu.bytes_d2h", args[1].nbytes)


def _drain(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    for response in result:
        if response.query.needs_row:
            tracer.add("serve.row_queries")
            if response.served_from == "row-cache":
                tracer.add("serve.row_hits")


def _apply(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    for patch in result.passes:
        if patch.plan.kind == "increase":
            tracer.add("dynamic.affected_rows", len(patch.plan.affected_rows))
        else:
            tracer.add("dynamic.decrease_k", patch.plan.k)
    tracer.add("dynamic.bytes_moved", result.bytes_moved)
    tracer.add("dynamic.updates", result.applied + result.noops)
    tracer.add("dynamic.noops", result.noops)


def _save(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("cache.save_bytes", os.path.getsize(result))


#: (module, function, span name, hook) — traced wherever it is bound
FUNCTIONS: tuple[tuple[str, str, str, "Hook | None"], ...] = (
    ("repro.select.cost_models", "estimate_johnson", "select.johnson_estimate", None),
    ("repro.select.cost_models", "estimate_boundary", "select.boundary_estimate", None),
    ("repro.select.cost_models", "analytic_estimate_johnson", "select.price", None),
    ("repro.partition.kway", "partition_kway", "partition.kway", _count("partition.calls")),
    ("repro.sssp.near_far", "near_far_batch", "sssp.near_far", _near_far),
    ("repro.sssp.dijkstra", "dijkstra", "sssp.dijkstra", _count("sssp.dijkstra_calls")),
    ("repro.core.ooc_fw", "ooc_floyd_warshall", "driver.fw", None),
    ("repro.core.ooc_johnson", "ooc_johnson", "driver.johnson", None),
    ("repro.core.ooc_boundary", "ooc_boundary", "driver.boundary", None),
)

#: (module, class, method, span name, hook) — traced for every instance
METHODS: tuple[tuple[str, str, str, str, "Hook | None"], ...] = (
    ("repro.select.calibrate", "Calibration", "run", "select.calibrate", None),
    ("repro.core.engine", "KernelEngine", "update", "kernel.update", _update),
    ("repro.core.engine", "KernelEngine", "fw_inplace", "kernel.fw", _fw),
    ("repro.gpu.stream", "Stream", "launch", "gpu.stream", None),
    ("repro.gpu.stream", "Stream", "copy_h2d", "gpu.stream", _h2d),
    ("repro.gpu.stream", "Stream", "copy_h2d_async", "gpu.stream", _h2d),
    ("repro.gpu.stream", "Stream", "copy_d2h", "gpu.stream", _d2h),
    ("repro.gpu.stream", "Stream", "copy_d2h_async", "gpu.stream", _d2h),
    ("repro.gpu.stream", "Stream", "copy_d2h_2d", "gpu.stream", _d2h),
    ("repro.serve.service", "APSPService", "submit", "serve.submit", None),
    ("repro.serve.service", "APSPService", "drain", "serve.drain", _drain),
    ("repro.serve.service", "APSPService", "mutate", "serve.mutate", None),
    ("repro.dynamic.patch", "DynamicAPSP", "apply", "dynamic.apply", _apply),
    ("repro.dynamic.cache", "DistanceCache", "revalidate", "cache.revalidate", None),
    ("repro.faults.checkpoint", "CheckpointStore", "save", "cache.save", _save),
)


def install() -> Tracer:
    """Wrap every traced layer; call ``uninstall`` on the result to undo."""
    # import every module that binds a traced function first, so the
    # rebinding below reaches all of them
    for module in ("repro.core.api", "repro.serve.service", "repro.dynamic.cache",
                   "repro.select.selector", "repro.core.ooc_boundary",
                   "repro.partition.separator", "repro.core.verify"):
        importlib.import_module(module)
    tracer = Tracer()
    for module, attr, name, hook in FUNCTIONS:
        tracer.wrap_function(module, attr, name, hook)
    for module, cls, attr, name, hook in METHODS:
        tracer.wrap_method(module, cls, attr, name, hook)
    return tracer
