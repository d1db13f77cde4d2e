"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from repro.gpu.device import TEST_DEVICE, Device
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, planar_like, random_geometric, rmat, road_like

try:  # hypothesis is optional for most of the suite
    import os

    from hypothesis import settings

    # CI selects this with HYPOTHESIS_PROFILE=ci: derandomised example
    # generation so property-test failures reproduce across runs
    settings.register_profile("ci", derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
except ImportError:  # pragma: no cover
    pass


def oracle_apsp(graph: CSRGraph) -> np.ndarray:
    """Reference APSP distances via scipy (Dijkstra per source)."""
    return shortest_path(graph.to_scipy(), method="D")


def oracle_sssp(graph: CSRGraph, sources) -> np.ndarray:
    return shortest_path(graph.to_scipy(), method="D", indices=sources)


def timed_op_names(ir) -> list[str]:
    """The device clock op names of an IR's timed ops, in order: kernel
    names (annotations occupy no slot) and copy kinds."""
    from repro.verifyplan.ir import CopyOp, KernelOp

    return [
        op.name if isinstance(op, KernelOp) else "d2h2d" if op.strided else op.kind
        for op in ir.ops
        if isinstance(op, CopyOp) or (isinstance(op, KernelOp) and not op.annotate)
    ]


@contextlib.contextmanager
def forced_split(workers: int):
    """Split every float32 min-plus product the kernel engine runs into
    ``workers`` column panels, and every compiled Near-Far batch into
    ``workers`` row ranges (at most one per row): both work cutoffs are
    forced to 0. The parts queue on at most three pool threads, so a
    range per row starts no more."""
    import repro.core.engine as engine

    pool = engine.shared_executor
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SPLIT_WORK", 0)
        mp.setattr(engine, "NEAR_FAR_SPLIT_WORK", 0)
        mp.setattr(engine, "default_workers", lambda: workers)
        mp.setattr(engine, "shared_executor", lambda n: pool(min(n, 3)))
        yield


def numpy_engine():
    """A kernel engine on the numpy kernels whatever compiler loads: the
    engine built under ``REPRO_JIT=off``."""
    from repro.core.engine import KernelEngine

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_JIT", "off")
        return KernelEngine()


@pytest.fixture
def device() -> Device:
    """A tiny device that forces out-of-core behaviour at n≈100."""
    return Device(TEST_DEVICE)


@pytest.fixture
def small_rmat() -> CSRGraph:
    return rmat(120, 900, seed=7)


@pytest.fixture
def small_planar() -> CSRGraph:
    return planar_like(150, seed=8)


@pytest.fixture
def small_road() -> CSRGraph:
    return road_like(200, 2.6, seed=9)


@pytest.fixture
def small_geometric() -> CSRGraph:
    return random_geometric(140, 0.14, seed=10)


@pytest.fixture(
    params=["rmat", "planar", "road", "geometric", "erdos", "two-components"]
)
def any_graph(request) -> CSRGraph:
    """One representative graph per family, including a disconnected one."""
    name = request.param
    if name == "rmat":
        return rmat(110, 800, seed=3)
    if name == "planar":
        return planar_like(120, seed=4)
    if name == "road":
        return road_like(150, 2.8, seed=5)
    if name == "geometric":
        return random_geometric(100, 0.15, seed=6)
    if name == "erdos":
        return erdos_renyi(100, 500, seed=7)
    # two disconnected Erdős blobs
    a = erdos_renyi(50, 300, seed=8)
    src_a, dst_a, w_a = a.edge_array()
    b = erdos_renyi(50, 300, seed=9)
    src_b, dst_b, w_b = b.edge_array()
    return CSRGraph.from_edges(
        100,
        np.concatenate([src_a, src_b + 50]),
        np.concatenate([dst_a, dst_b + 50]),
        np.concatenate([w_a, w_b]),
        name="two-components",
    )


@pytest.fixture(params=["compiled", "numpy"])
def near_far_path(request, monkeypatch) -> str:
    """Run the test on each batched Near-Far path, in this process.

    ``numpy`` sets ``REPRO_JIT=off``; ``compiled`` clears it and skips only
    when no C compiler loads.
    """
    from repro.sssp.near_far import compiled_kernel

    if request.param == "numpy":
        monkeypatch.setenv("REPRO_JIT", "off")
        assert compiled_kernel() is None
    else:
        monkeypatch.delenv("REPRO_JIT", raising=False)
        if compiled_kernel() is None:
            pytest.skip("no C compiler loads")
    return request.param
