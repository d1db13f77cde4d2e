"""Unit tests for the multilevel k-way partitioner and separator analysis."""

import functools
import hashlib

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, planar_like, rmat, road_like
from repro.graphs.suite import get_suite_graph
from repro.partition import (
    boundary_nodes,
    classify_separator,
    coarsen_graph,
    heavy_edge_matching,
    partition_kway,
    refine_partition,
    separator_info,
)
from repro.partition.refine import edge_cut


class TestMatching:
    def test_matching_is_symmetric(self):
        g = planar_like(200, seed=1).symmetrize()
        rng = np.random.default_rng(0)
        match = heavy_edge_matching(g, rng=rng)
        for v in range(g.num_vertices):
            assert match[match[v]] == v

    def test_matched_pairs_are_neighbors(self):
        g = planar_like(200, seed=2).symmetrize()
        match = heavy_edge_matching(g, rng=np.random.default_rng(1))
        for v in range(g.num_vertices):
            u = match[v]
            if u != v:
                nbrs, _ = g.neighbors(v)
                assert u in nbrs


class TestCoarsen:
    def test_vertex_weight_conserved(self):
        g = planar_like(300, seed=3).symmetrize()
        w = np.ones(g.num_vertices)
        level = coarsen_graph(g, w, rng=np.random.default_rng(2))
        assert level.vertex_weight.sum() == pytest.approx(g.num_vertices)

    def test_graph_shrinks(self):
        g = planar_like(300, seed=4).symmetrize()
        level = coarsen_graph(
            g, np.ones(g.num_vertices), rng=np.random.default_rng(3)
        )
        assert level.graph.num_vertices < g.num_vertices

    def test_fine_to_coarse_is_total(self):
        g = planar_like(200, seed=5).symmetrize()
        level = coarsen_graph(
            g, np.ones(g.num_vertices), rng=np.random.default_rng(4)
        )
        assert level.fine_to_coarse.shape == (g.num_vertices,)
        assert level.fine_to_coarse.max() == level.graph.num_vertices - 1
        assert level.fine_to_coarse.min() == 0


class TestPartition:
    @pytest.mark.parametrize("k", [2, 5, 16])
    def test_labels_cover_all_parts(self, k):
        g = planar_like(400, seed=6)
        res = partition_kway(g, k, seed=0)
        assert res.labels.shape == (400,)
        assert set(np.unique(res.labels)) == set(range(k))

    def test_balance(self):
        g = planar_like(600, seed=7)
        res = partition_kway(g, 8, seed=0, balance_tol=1.10)
        # greedy fallback for stragglers can nudge past the growth budget
        assert res.imbalance <= 1.25

    def test_part_sizes_sum(self):
        g = planar_like(300, seed=8)
        res = partition_kway(g, 6, seed=0)
        assert res.part_sizes.sum() == 300

    def test_k1_trivial(self):
        g = planar_like(100, seed=9)
        res = partition_kway(g, 1)
        assert np.all(res.labels == 0)
        assert res.edge_cut == 0

    def test_k_ge_n(self):
        g = erdos_renyi(10, 40, seed=10)
        res = partition_kway(g, 10, seed=0)
        assert res.num_parts == 10
        # one vertex per part: every distinct vertex pair with an edge is
        # cut, counted once at uniform strength as for k < n
        assert res.edge_cut == 25.0
        assert partition_kway(g, 9, seed=0).edge_cut == 24.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            partition_kway(planar_like(50, seed=11), 0)

    def test_deterministic(self):
        g = planar_like(300, seed=12)
        a = partition_kway(g, 8, seed=5)
        b = partition_kway(g, 8, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_cut_quality_on_grid(self):
        """A k-way cut of a planar lattice should be within a small factor
        of the O(√(n/k)·k) optimum."""
        g = planar_like(900, seed=13, extra_edge_fraction=0.0, drop_fraction=0.0)
        k = 9
        res = partition_kway(g, k, seed=0)
        ideal = k * np.sqrt(900 / k)  # ~perimeter edges of square parts
        assert res.edge_cut <= 4 * ideal

    def test_handles_disconnected(self):
        a = planar_like(100, seed=14)
        sa, da, wa = a.edge_array()
        g = CSRGraph.from_edges(
            200,
            np.concatenate([sa, sa + 100]),
            np.concatenate([da, da + 100]),
            np.concatenate([wa, wa]),
        )
        res = partition_kway(g, 4, seed=0)
        assert set(np.unique(res.labels)) == {0, 1, 2, 3}


class TestRefine:
    def test_refinement_never_worsens_cut(self):
        g = planar_like(400, seed=15).symmetrize()
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=400)
        before = edge_cut(g, labels)
        refined = refine_partition(g, labels, 4, rng=np.random.default_rng(1))
        assert edge_cut(g, refined) <= before

    def test_refinement_improves_random_labels(self):
        g = planar_like(400, seed=16).symmetrize()
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 4, size=400)
        refined = refine_partition(g, labels, 4, rng=np.random.default_rng(3))
        assert edge_cut(g, refined) < edge_cut(g, labels) * 0.8

    def test_no_part_emptied(self):
        g = erdos_renyi(60, 600, seed=17)
        labels = np.arange(60) % 3
        refined = refine_partition(
            g.symmetrize(), labels, 3, rng=np.random.default_rng(4)
        )
        assert np.bincount(refined, minlength=3).min() >= 1


class TestSeparator:
    def test_boundary_definition(self):
        # path 0-1-2-3 cut between 1 and 2: both endpoints are boundary
        g = CSRGraph.from_edges(
            4,
            np.array([0, 1, 2, 1, 2, 3]),
            np.array([1, 2, 3, 0, 1, 2]),
            np.ones(6),
        )
        labels = np.array([0, 0, 1, 1])
        assert boundary_nodes(g, labels).tolist() == [1, 2]

    def test_no_cut_no_boundary(self):
        g = CSRGraph.from_edges(4, np.array([0, 2]), np.array([1, 3]), np.ones(2))
        labels = np.array([0, 0, 1, 1])
        assert boundary_nodes(g, labels).size == 0

    def test_info_fields(self):
        g = planar_like(400, seed=18)
        res = partition_kway(g, 10, seed=0)
        info = separator_info(g, res.labels)
        assert info.num_parts == 10
        assert info.num_boundary == boundary_nodes(g, res.labels).size
        assert info.ideal_boundary == pytest.approx(np.sqrt(10 * 400))
        assert info.boundary_per_part.sum() == info.num_boundary

    def test_range_index_bins(self):
        g = planar_like(400, seed=19)
        res = partition_kway(g, 10, seed=0)
        info = separator_info(g, res.labels)
        assert info.range_index == int(np.floor(np.log2(max(info.ratio, 1.0))))

    def test_classify_planar_small(self):
        assert classify_separator(planar_like(900, seed=20), seed=0).small_separator

    def test_classify_rmat_large(self):
        g = rmat(800, 8000, seed=21)
        assert not classify_separator(g, seed=0).small_separator

    def test_classify_road_small(self):
        assert classify_separator(road_like(800, 2.6, seed=22), seed=0).small_separator


# ---------------------------------------------------------------------------
# Pinned outputs
# ---------------------------------------------------------------------------
def _two_copies() -> CSRGraph:
    """Two disjoint copies of one planar graph."""
    a = planar_like(100, seed=14)
    s, d, w = a.edge_array()
    return CSRGraph.from_edges(
        200, np.concatenate([s, s + 100]), np.concatenate([d, d + 100]), np.concatenate([w, w])
    )


def _star() -> CSRGraph:
    """Hub 0 joined both ways to 299 leaves."""
    leaves = np.arange(1, 300)
    hub = np.zeros(299, dtype=np.int64)
    return CSRGraph.from_edges(
        300, np.concatenate([hub, leaves]), np.concatenate([leaves, hub]), np.ones(598)
    )


PIN_GRAPHS = {
    "road1500": lambda: road_like(1500, 2.6),
    "rmat1000": lambda: rmat(1000, 8000),
    "planar900": lambda: planar_like(900),
    "er300": lambda: erdos_renyi(300, 3000),
    "lux64": lambda: get_suite_graph("luxembourg_osm", 1 / 64),
    "two_copies": _two_copies,
    "star300": _star,
}


@functools.cache
def _pin_graph(name: str) -> CSRGraph:
    return PIN_GRAPHS[name]()


def _uniform_symmetric(g: CSRGraph) -> CSRGraph:
    """The strength-1 symmetric graph ``partition_kway`` partitions."""
    s, d, _ = g.edge_array()
    return CSRGraph.from_edges(
        g.num_vertices, np.concatenate([s, d]), np.concatenate([d, s]), np.ones(2 * s.size)
    )


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


#: (graph, k, seed, labels digest, edge_cut, part_sizes); k runs over 2, 7,
#: 10 and round(√n)
PINNED_PARTITIONS = [
    ("road1500", 2, 0, "33b90509cf96c06a", 32.0, (705, 720)),
    ("road1500", 2, 3, "61662c72d349a002", 30.0, (693, 732)),
    ("road1500", 7, 0, "b221fea8952f7aa3", 91.0, (142, 220, 223, 215, 223, 191, 211)),
    ("road1500", 7, 3, "bdd4b66a1a5d5553", 92.0, (192, 206, 208, 205, 174, 222, 218)),
    ("road1500", 10, 0, "e7adb07e84bcaa14", 116.0,
     (132, 129, 155, 142, 137, 145, 154, 145, 148, 138)),
    ("road1500", 10, 3, "40ed0485370664db", 132.0,
     (149, 155, 134, 152, 142, 154, 120, 108, 156, 155)),
    ("road1500", 38, 0, "db25ec54c226ae5a", 270.0,
     (32, 32, 37, 39, 41, 41, 41, 41, 37, 35, 36, 41, 41, 41, 41, 41, 41, 41, 41, 37, 35,
      41, 36, 24, 32, 38, 41, 41, 39, 41, 28, 24, 38, 34, 41, 33, 41, 41)),
    ("road1500", 38, 3, "d69d13480215ec62", 282.0,
     (39, 41, 41, 41, 31, 41, 40, 24, 41, 41, 41, 41, 41, 22, 41, 41, 41, 37, 41, 40, 41,
      41, 41, 41, 36, 38, 38, 36, 41, 41, 29, 24, 39, 38, 40, 34, 26, 35)),
    ("rmat1000", 2, 0, "a75fb388ddd9c913", 2859.0, (550, 450)),
    ("rmat1000", 2, 3, "4245a59c704e22c2", 2903.0, (450, 550)),
    ("rmat1000", 7, 0, "e79a15197789726c", 5374.0, (157, 157, 157, 157, 157, 157, 58)),
    ("rmat1000", 7, 3, "ee3ea562a0bb2ec5", 5299.0, (58, 157, 157, 157, 157, 157, 157)),
    ("rmat1000", 10, 0, "7118eaf9fae5d558", 5458.0,
     (27, 110, 110, 110, 110, 110, 93, 110, 110, 110)),
    ("rmat1000", 10, 3, "3ee1bdb26f58c6e6", 5421.0,
     (35, 110, 110, 110, 110, 110, 110, 110, 85, 110)),
    ("rmat1000", 32, 0, "48bc364e6abc2e82", 6223.0,
     (34, 11, 34, 27, 34, 24, 34, 34, 34, 22, 34, 30, 30, 34, 34, 34, 34, 34, 34, 24, 34,
      34, 34, 34, 34, 34, 34, 34, 34, 34, 27, 23)),
    ("rmat1000", 32, 3, "10183e5fcba17da3", 6173.0,
     (34, 17, 34, 29, 34, 24, 34, 34, 34, 34, 34, 34, 34, 34, 23, 34, 34, 34, 34, 34, 34,
      34, 21, 24, 34, 29, 32, 34, 34, 34, 34, 19)),
    ("planar900", 2, 0, "78ed9fd03fa4a96c", 45.0, (466, 434)),
    ("planar900", 2, 3, "eb50ec5cc48b7715", 74.0, (495, 405)),
    ("planar900", 7, 0, "c31b329c59cfbd3c", 140.0, (141, 117, 139, 135, 136, 128, 104)),
    ("planar900", 7, 3, "8470b67be886d24f", 120.0, (140, 141, 138, 136, 127, 133, 85)),
    ("planar900", 10, 0, "aa934de79ebf5987", 180.0,
     (94, 52, 84, 92, 89, 99, 96, 98, 99, 97)),
    ("planar900", 10, 3, "81a116deaf0799a0", 162.0,
     (99, 84, 98, 87, 98, 97, 78, 98, 94, 67)),
    ("planar900", 30, 0, "c6b25cadeaccf202", 360.0,
     (33, 32, 33, 26, 15, 33, 29, 32, 33, 33, 28, 20, 33, 32, 33, 33, 26, 33, 33, 33, 33,
      33, 32, 18, 29, 33, 31, 24, 31, 33)),
    ("planar900", 30, 3, "ff4bece5d7fc1c48", 342.0,
     (31, 25, 33, 33, 15, 33, 33, 33, 24, 28, 33, 33, 33, 33, 31, 33, 31, 33, 25, 33, 32,
      32, 22, 28, 18, 31, 33, 32, 33, 33)),
    ("er300", 2, 0, "a620df64e95ca3ce", 1125.0, (135, 165)),
    ("er300", 2, 3, "d561d39bfbf08fe1", 1120.0, (135, 165)),
    ("er300", 7, 0, "518ddf4b6530a72a", 2096.0, (18, 47, 47, 47, 47, 47, 47)),
    ("er300", 7, 3, "38265c046c031daf", 2131.0, (47, 47, 18, 47, 47, 47, 47)),
    ("er300", 10, 0, "0882e7db26749288", 2223.0, (3, 33, 33, 33, 33, 33, 33, 33, 33, 33)),
    ("er300", 10, 3, "3869386ab0869801", 2272.0, (33, 33, 3, 33, 33, 33, 33, 33, 33, 33)),
    ("er300", 17, 0, "79e983a2e239c2dd", 2294.0,
     (18, 19, 19, 16, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 1, 19, 18)),
    ("er300", 17, 3, "fe5c450a18194094", 2276.0,
     (19, 9, 19, 19, 19, 19, 18, 9, 19, 19, 19, 19, 19, 19, 19, 19, 17)),
    ("lux64", 2, 0, "5d07183260a2c61f", 15.0, (845, 704)),
    ("lux64", 2, 3, "6444769be2486c2f", 15.0, (844, 705)),
    ("lux64", 7, 0, "4324f1828d2f1117", 38.0, (239, 192, 211, 242, 205, 227, 233)),
    ("lux64", 7, 3, "6e8d5b9bf436d87b", 42.0, (242, 188, 217, 243, 241, 229, 189)),
    ("lux64", 10, 0, "43751272a0cd44b8", 51.0,
     (159, 167, 165, 160, 167, 169, 150, 110, 170, 132)),
    ("lux64", 10, 3, "e8bbe9c35cfd93a2", 50.0,
     (167, 164, 134, 168, 148, 164, 127, 164, 170, 143)),
    ("lux64", 39, 0, "cf31d43d3957cdde", 109.0,
     (41, 43, 36, 42, 39, 42, 42, 41, 36, 34, 39, 42, 35, 38, 42, 36, 42, 43, 42, 43, 43,
      43, 43, 38, 34, 40, 42, 40, 43, 34, 43, 40, 40, 43, 31, 43, 43, 35, 33)),
    ("lux64", 39, 3, "72dc88b868552918", 106.0,
     (37, 35, 39, 38, 42, 43, 43, 38, 37, 38, 41, 33, 43, 43, 42, 38, 43, 43, 42, 43, 42,
      40, 37, 41, 41, 38, 42, 43, 42, 43, 41, 39, 42, 33, 41, 31, 38, 31, 43)),
    ("two_copies", 2, 0, "4b28f7a46289ed49", 37.0, (90, 110)),
    ("two_copies", 2, 3, "4821b2b26a874129", 37.0, (90, 110)),
    ("two_copies", 7, 0, "2b2cf6753646fa37", 86.0, (30, 29, 30, 31, 26, 29, 25)),
    ("two_copies", 7, 3, "21f95daac1b76980", 100.0, (31, 31, 31, 21, 31, 28, 27)),
    ("two_copies", 10, 0, "2e77d852fc0531eb", 125.0,
     (22, 22, 22, 14, 22, 22, 22, 20, 22, 12)),
    ("two_copies", 10, 3, "52af26a7615df040", 116.0,
     (22, 21, 22, 22, 22, 22, 21, 20, 11, 17)),
    ("two_copies", 14, 0, "da91f7adc9f958d4", 145.0,
     (15, 15, 15, 14, 15, 13, 15, 15, 15, 14, 15, 15, 14, 10)),
    ("two_copies", 14, 3, "ded4e2e3f648809f", 151.0,
     (15, 15, 15, 15, 15, 15, 15, 14, 15, 12, 15, 12, 14, 13)),
    ("star300", 2, 0, "63c6e5e259e5b7b4", 135.0, (135, 165)),
    ("star300", 2, 3, "9231423757f48307", 135.0, (135, 165)),
    ("star300", 7, 0, "78fcdaf4d7bddc8b", 253.0, (43, 42, 47, 42, 42, 42, 42)),
    ("star300", 7, 3, "62c44bea2e78a406", 253.0, (43, 42, 42, 42, 47, 42, 42)),
    ("star300", 10, 0, "91a29ff27906d2a6", 267.0, (30, 30, 33, 30, 30, 30, 30, 29, 29, 29)),
    ("star300", 10, 3, "5bae333843066b32", 267.0, (30, 30, 30, 30, 30, 30, 29, 29, 33, 29)),
    ("star300", 17, 0, "b254a8f292a090a1", 281.0,
     (18, 18, 19, 18, 18, 18, 18, 18, 18, 18, 17, 17, 17, 17, 17, 17, 17)),
    ("star300", 17, 3, "c30dda8779c45b02", 281.0,
     (18, 18, 18, 18, 18, 18, 18, 18, 18, 17, 19, 17, 17, 17, 17, 17, 17)),
]


#: (graph, match digest, matched vertices, coarse-level digest, coarse n, m)
PINNED_LEVELS = [
    ("road1500-weighted", "449ef80c19bae9fd", 1062, "b17f1217c513de5c", 894, 2558),
    ("rmat1000-uniform", "821c2329cb4d0f41", 736, "9281470ebd328723", 632, 13494),
]

LEVEL_GRAPHS = {
    "road1500-weighted": lambda: _pin_graph("road1500").symmetrize(),
    "rmat1000-uniform": lambda: _uniform_symmetric(_pin_graph("rmat1000")),
}

#: (k, vertex-weight seed, balance_tol, labels digest, edge_cut, part sizes)
PINNED_REFINES = [
    (6, None, 1.10, "ae9fe43d8f56d764", 266782.0, (183, 183, 183, 182, 181, 88)),
    (4, 9, 1.05, "0e78e54ebedbd235", 236923.0, (255, 268, 276, 201)),
]


class TestPinnedOutputs:
    """Every label the boundary algorithm, its price and calibration see,
    pinned bit for bit.

    The values were recorded from the implementation that called numpy
    once per vertex; a rewrite must make the same rng draws in the same
    order and break ties the same way. A digest is the first 16 hex digits
    of the SHA-256 of the arrays' bytes. Branches the cases reach: the
    star stalls the matching, the two-copy graph leaves the copy that no
    seed lands in to the lightest-part fallback, and ``rmat1000`` with
    seed 3 takes the random-seed fallback of the farthest-point seeding.
    """

    @pytest.mark.parametrize(
        "name,k,seed,digest,cut,sizes",
        PINNED_PARTITIONS,
        ids=[f"{c[0]}-k{c[1]}-s{c[2]}" for c in PINNED_PARTITIONS],
    )
    def test_partition_kway(self, name, k, seed, digest, cut, sizes):
        res = partition_kway(_pin_graph(name), k, seed=seed)
        assert res.labels.dtype == np.int64
        assert (_digest(res.labels), res.edge_cut, tuple(res.part_sizes)) == (
            digest, cut, sizes
        )

    @pytest.mark.parametrize("name,match_digest,matched,level_digest,nc,mc", PINNED_LEVELS)
    def test_matching_and_one_level(self, name, match_digest, matched, level_digest, nc, mc):
        g = LEVEL_GRAPHS[name]()
        match = heavy_edge_matching(g, rng=np.random.default_rng(7))
        assert _digest(match) == match_digest
        assert int((match != np.arange(g.num_vertices)).sum()) == matched
        level = coarsen_graph(g, np.ones(g.num_vertices), rng=np.random.default_rng(7))
        cg = level.graph
        assert (cg.num_vertices, cg.num_edges) == (nc, mc)
        assert _digest(
            level.fine_to_coarse, level.vertex_weight, cg.indptr, cg.indices, cg.weights
        ) == level_digest

    @pytest.mark.parametrize("k,vw_seed,tol,digest,cut,sizes", PINNED_REFINES)
    def test_refine_directed_graph(self, k, vw_seed, tol, digest, cut, sizes):
        """Refinement of a directed, unsymmetrised graph with real
        strengths from random labels."""
        g = _pin_graph("rmat1000")
        labels = np.random.default_rng(5).integers(0, k, size=g.num_vertices)
        vw = None
        if vw_seed is not None:
            vw = np.random.default_rng(vw_seed).integers(1, 4, size=g.num_vertices).astype(float)
        out = refine_partition(
            g, labels, k, vertex_weight=vw, balance_tol=tol, rng=np.random.default_rng(6)
        )
        assert (_digest(out), edge_cut(g, out), tuple(np.bincount(out, minlength=k))) == (
            digest, cut, sizes
        )
