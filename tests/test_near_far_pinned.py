"""Pinned ``NearFarStats`` and distances of batched Near-Far.

The modeled MSSP kernel time, the selector's Johnson price and every gated
baseline are functions of these counts, so any change to the queue
discipline (iteration count, split advances, relaxation order) must show up
here, not as a silent drift in simulated seconds. The values were recorded
from the dense-mask implementation the worklist version replaced; the
digest is the first 16 hex digits of the SHA-256 of the float64 distance
matrix, so distances are pinned bit for bit.

``rmat`` with ``delta=0.37`` advances the split ~300 times; the road
stand-in exercises a high-diameter graph at the default Δ; ``heavy_degree=2``
makes most vertices heavy, so the child-launch accounting is pinned too.
Every case runs on both paths, the compiled C kernel (skipped only when no
compiler loads) and the numpy loop (``REPRO_JIT=off``).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.graphs.generators import rmat
from repro.graphs.suite import get_suite_graph
from repro.sssp.near_far import compiled_kernel, near_far_batch

GRAPHS = {
    "rmat300": (lambda: rmat(300, 2400), 0.37),
    "rmat400": (lambda: rmat(400, 3200), 0.37),
    "road": (lambda: get_suite_graph("luxembourg_osm", 1 / 1024), None),
}

BATCHES = {
    "full": lambda n: np.arange(n),
    "strided": lambda n: np.arange(3, n, 7),
    "single": lambda n: np.array([n // 2]),
}

#: (graph, batch, heavy_degree, (relaxations, heavy_relaxations, iterations,
#: child_launches, splits_advanced), distance digest)
PINNED = [
    ("rmat300", "full", 32, (622471, 73080, 275, 640, 274), "bd36cd42e2d1e2f2"),
    ("rmat300", "full", 2, (622471, 599489, 275, 2984, 274), "bd36cd42e2d1e2f2"),
    ("rmat300", "strided", 32, (88925, 10440, 233, 286, 232), "af65e5273630628a"),
    ("rmat300", "strided", 2, (88925, 85640, 233, 900, 232), "af65e5273630628a"),
    ("rmat300", "single", 32, (2223, 261, 89, 15, 88), "33f223a73760e572"),
    ("rmat300", "single", 2, (2223, 2141, 89, 231, 88), "33f223a73760e572"),
    ("rmat400", "full", 32, (1100809, 181790, 298, 1130, 297), "264fef647d7398e4"),
    ("rmat400", "full", 2, (1100809, 1057756, 298, 4845, 297), "264fef647d7398e4"),
    ("rmat400", "strided", 32, (151319, 24990, 244, 385, 243), "0fc4790240a389af"),
    ("rmat400", "strided", 2, (151319, 145401, 244, 1177, 243), "0fc4790240a389af"),
    ("rmat400", "single", 32, (2967, 490, 113, 30, 112), "dd30c1acea7cf5b7"),
    ("rmat400", "single", 2, (2967, 2851, 113, 270, 112), "dd30c1acea7cf5b7"),
    ("road", "full", 32, (180582, 0, 230, 0, 103), "6302b2c7a9b92366"),
    ("road", "full", 2, (180582, 10696, 230, 606, 103), "6302b2c7a9b92366"),
    ("road", "strided", 32, (25538, 0, 227, 0, 103), "ab358906befff395"),
    ("road", "strided", 2, (25538, 1512, 227, 441, 103), "ab358906befff395"),
    ("road", "single", 32, (608, 0, 137, 0, 80), "319b20e06998dd8b"),
    ("road", "single", 2, (608, 36, 137, 33, 80), "319b20e06998dd8b"),
]


@functools.cache
def _graph(name: str):
    return GRAPHS[name][0]()


def _case_id(graph_name: str, batch: str, heavy_degree: int, path: str) -> str:
    """The compiled case keeps the id the single-path test had."""
    suffix = "" if path == "compiled" else f"-{path}"
    return f"{graph_name}-{batch}-hd{heavy_degree}{suffix}"


CASES = [
    pytest.param(*case, path, id=_case_id(*case[:3], path))
    for case in PINNED
    for path in ("compiled", "numpy")
]


@pytest.mark.parametrize("graph_name, batch, heavy_degree, stats, digest, path", CASES)
def test_stats_and_distances_are_pinned(
    graph_name, batch, heavy_degree, stats, digest, path, monkeypatch
):
    if path == "numpy":
        monkeypatch.setenv("REPRO_JIT", "off")
    else:
        monkeypatch.delenv("REPRO_JIT", raising=False)
        if compiled_kernel() is None:
            pytest.skip("no C compiler loads")
    graph = _graph(graph_name)
    sources = BATCHES[batch](graph.num_vertices)
    dist, got = near_far_batch(
        graph, sources, delta=GRAPHS[graph_name][1], heavy_degree=heavy_degree
    )
    assert (
        got.relaxations,
        got.heavy_relaxations,
        got.iterations,
        got.child_launches,
        got.splits_advanced,
    ) == stats
    assert dist.dtype == np.float64 and dist.shape == (sources.size, graph.num_vertices)
    assert hashlib.sha256(np.ascontiguousarray(dist).tobytes()).hexdigest()[:16] == digest
