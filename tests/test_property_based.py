"""Property-based tests (hypothesis) for the core invariants.

Strategies generate arbitrary small weighted digraphs; the properties assert
the invariants DESIGN.md §6 lists: oracle equivalence for every APSP path,
min-plus algebra laws, partition well-formedness, timeline causality, and
allocator safety.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.blocked_fw import blocked_floyd_warshall, floyd_warshall
from repro.core.minplus import minplus, minplus_update
from repro.gpu.device import TEST_DEVICE, Device
from repro.gpu.errors import OutOfMemoryError
from repro.gpu.memory import DeviceMemory
from repro.gpu.timeline import Clock
from repro.graphs.csr import CSRGraph
from repro.partition.kway import partition_kway
from repro.partition.separator import boundary_nodes
from repro.sssp import bellman_ford, delta_stepping, dijkstra, near_far
from tests.conftest import oracle_apsp, oracle_sssp

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def graphs(draw, max_n=28, max_extra_edges=80):
    """Arbitrary small weighted digraph (possibly disconnected)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    num_edges = draw(st.integers(min_value=0, max_value=max_extra_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=num_edges, max_size=num_edges)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=num_edges, max_size=num_edges)
    )
    w = draw(
        st.lists(
            st.integers(1, 50), min_size=num_edges, max_size=num_edges
        )
    )
    return CSRGraph.from_edges(
        n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
        np.array(w, dtype=np.float64),
    )


@st.composite
def matrices(draw, max_n=10):
    """Small distance-like matrices with inf entries allowed."""
    rows = draw(st.integers(1, max_n))
    cols = draw(st.integers(1, max_n))
    vals = draw(
        st.lists(
            st.one_of(st.integers(0, 100), st.just(np.inf)),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(vals, dtype=np.float64).reshape(rows, cols)


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,  # reproducible wall time and coverage across sessions
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# SSSP / APSP oracle equivalence
# ----------------------------------------------------------------------


class TestSsspProperties:
    @SETTINGS
    @given(graphs())
    def test_all_sssp_agree_with_oracle(self, g):
        expected = oracle_sssp(g, [0])[0]
        for fn in (dijkstra, bellman_ford, delta_stepping, near_far):
            dist = fn(g, 0)[0]
            assert np.allclose(dist, expected), fn.__name__

    @SETTINGS
    @given(graphs(), st.floats(0.5, 200.0))
    def test_near_far_delta_independent(self, g, delta):
        dist, _ = near_far(g, 0, delta=delta)
        assert np.allclose(dist, oracle_sssp(g, [0])[0])

    @SETTINGS
    @given(graphs())
    def test_distances_respect_triangle_inequality(self, g):
        dist = floyd_warshall(g.to_dense())
        # dist[i,j] <= dist[i,k] + dist[k,j] for all triples
        via = (dist[:, :, None] + dist[None, :, :]).min(axis=1)
        finite = np.isfinite(via)
        assert np.all(dist[finite] <= via[finite] + 1e-6)


class TestApspProperties:
    @SETTINGS
    @given(graphs(max_n=20), st.integers(1, 25))
    def test_blocked_fw_equals_plain(self, g, block_size):
        plain = floyd_warshall(g.to_dense())
        blocked = g.to_dense()
        blocked_floyd_warshall(blocked, block_size)
        assert np.allclose(plain, blocked)

    @SETTINGS
    @given(graphs(max_n=18))
    def test_ooc_drivers_match_oracle(self, g):
        expected = oracle_apsp(g)
        from repro.core import ooc_floyd_warshall, ooc_johnson

        fw = ooc_floyd_warshall(g, Device(TEST_DEVICE))
        assert np.allclose(fw.to_array(), expected)
        jo = ooc_johnson(g, Device(TEST_DEVICE))
        assert np.allclose(jo.to_array(), expected)

    @SETTINGS
    @given(graphs(max_n=18))
    def test_boundary_matches_oracle(self, g):
        from repro.core import BoundaryInfeasibleError, ooc_boundary
        from repro.gpu.device import V100

        try:
            res = ooc_boundary(g, Device(V100.scaled(1 / 64)))
        except BoundaryInfeasibleError:
            return  # legitimately infeasible for adversarial graphs
        assert np.allclose(res.to_array(), oracle_apsp(g))


# ----------------------------------------------------------------------
# min-plus algebra
# ----------------------------------------------------------------------


class TestMinplusAlgebra:
    @SETTINGS
    @given(matrices())
    def test_identity(self, a):
        ident = np.full((a.shape[0], a.shape[0]), np.inf)
        np.fill_diagonal(ident, 0.0)
        assert np.allclose(minplus(ident, a), a)

    @SETTINGS
    @given(st.data())
    def test_associative(self, data):
        n1 = data.draw(st.integers(1, 6))
        n2 = data.draw(st.integers(1, 6))
        n3 = data.draw(st.integers(1, 6))
        n4 = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        a = rng.integers(0, 50, (n1, n2)).astype(float)
        b = rng.integers(0, 50, (n2, n3)).astype(float)
        c = rng.integers(0, 50, (n3, n4)).astype(float)
        assert np.allclose(minplus(minplus(a, b), c), minplus(a, minplus(b, c)))

    @SETTINGS
    @given(st.data())
    def test_update_monotone_decreasing(self, data):
        n = data.draw(st.integers(1, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        a = rng.integers(0, 50, (n, n)).astype(float)
        b = rng.integers(0, 50, (n, n)).astype(float)
        c = rng.integers(0, 50, (n, n)).astype(float)
        before = c.copy()
        minplus_update(c, a, b)
        assert np.all(c <= before)


# ----------------------------------------------------------------------
# partition invariants
# ----------------------------------------------------------------------


class TestPartitionProperties:
    @SETTINGS
    @given(graphs(max_n=40, max_extra_edges=150), st.integers(2, 6))
    def test_partition_well_formed(self, g, k):
        res = partition_kway(g, k, seed=0)
        assert res.labels.shape == (g.num_vertices,)
        assert res.labels.min() >= 0 and res.labels.max() < k
        assert res.part_sizes.sum() == g.num_vertices

    @SETTINGS
    @given(graphs(max_n=40, max_extra_edges=150), st.integers(2, 5))
    def test_boundary_exactly_cut_endpoints(self, g, k):
        res = partition_kway(g, k, seed=1)
        bnd = set(boundary_nodes(g, res.labels).tolist())
        src, dst, _ = g.edge_array()
        expected = set()
        for s, d in zip(src, dst):
            if res.labels[s] != res.labels[d]:
                expected.add(int(s))
                expected.add(int(d))
        assert bnd == expected


# ----------------------------------------------------------------------
# timeline and allocator safety
# ----------------------------------------------------------------------


class TestTimelineProperties:
    @SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["compute", "h2d", "d2h"]),
                st.floats(0.0, 10.0),
                st.floats(0.0, 5.0),
            ),
            max_size=40,
        )
    )
    def test_schedule_is_valid_and_monotone(self, ops):
        clock = Clock()
        makespans = []
        for i, (engine, ready, dur) in enumerate(ops):
            clock.wait(f"s{i}", (ready, None))
            clock.schedule(engine, f"s{i}", dur)
            makespans.append(clock.elapsed)
        clock.validate()
        assert makespans == sorted(makespans)

    @SETTINGS
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("alloc"), st.integers(1, 400)),
                st.just(("free", 0)),
            ),
            max_size=60,
        )
    )
    def test_allocator_never_overcommits(self, actions):
        pool = DeviceMemory(capacity=1000)
        live = []
        for kind, size in actions:
            if kind == "alloc":
                try:
                    live.append(pool.alloc(size, np.uint8))
                except OutOfMemoryError:
                    pass
            elif live:
                live.pop().free()
            assert 0 <= pool.used <= 1000
            assert pool.used == sum(a.nbytes for a in live)
