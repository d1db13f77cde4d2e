"""Dynamic-graph APSP: patch engine exactness, static O(n²) proofs,
patch-soundness defects, cache revalidation, and the differential suite.

The contract under test: every incremental update path is
bit-identical to a full re-solve, its transfer volume is proven O(n²)
(closed form == the IR tally of the schedule the pass runs), and the
statically planned touched-block set covers every block the patch
actually changes — with each seeded violation of that soundness argument
caught *statically*, attributed to a block.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import solve_apsp
from repro.core.blocked_fw import floyd_warshall
from repro.core.engine import DIST_DTYPE, default_engine
from repro.dynamic import (
    DistanceCache,
    DynamicAPSP,
    EdgeUpdate,
    UpdatePlan,
    apply_edge_updates,
    emit_update_ir,
    seed_defect,
    verify_update,
)
from repro.faults.checkpoint import CheckpointError, CheckpointStore, graph_fingerprint
from repro.gpu.device import TEST_DEVICE
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, rmat
from repro.verifyplan import (
    analyze_hb,
    audit_ir,
    check_patch_soundness,
    static_touched_blocks,
    update_bound_checks,
    update_traffic,
)


def _resolve(graph: CSRGraph) -> np.ndarray:
    return floyd_warshall(graph.to_dense(DIST_DTYPE), engine=default_engine())


def _some_edge(graph: CSRGraph, index: int = 0) -> tuple[int, int, float]:
    src, dst, w = graph.edge_array()
    return int(src[index]), int(dst[index]), float(w[index])


def _non_edge(graph: CSRGraph, u: int = 0) -> tuple[int, int]:
    """A pair (u, v) with no current edge (for insertion tests)."""
    n = graph.num_vertices
    lo, hi = int(graph.indptr[u]), int(graph.indptr[u + 1])
    present = set(int(x) for x in graph.indices[lo:hi])
    for v in range(n - 1, -1, -1):
        if v != u and v not in present:
            return u, v
    raise AssertionError("graph is complete")  # pragma: no cover


# ---------------------------------------------------------------------------
# graph mutation primitives
# ---------------------------------------------------------------------------
def test_edge_update_validation():
    graph = erdos_renyi(20, 60, seed=1)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE)
    with pytest.raises(ValueError, match="out of range"):
        apsp.apply([EdgeUpdate(0, 20, 1.0)])
    with pytest.raises(ValueError, match="self-loop"):
        apsp.apply([EdgeUpdate(3, 3, 1.0)])
    with pytest.raises(ValueError, match=">= 0"):
        apsp.apply([EdgeUpdate(0, 1, -2.0)])


def test_apply_edge_updates_builds_new_graph():
    graph = erdos_renyi(20, 60, seed=2)
    u, v, w = _some_edge(graph)
    iu, iv = _non_edge(graph, 5)
    out = apply_edge_updates(graph, {(u, v): w + 3.0, (iu, iv): 4.0})
    # the input graph is untouched (CSRGraph is frozen by contract)
    assert _some_edge(graph) == (u, v, w)
    src, dst, wts = out.edge_array()
    pairs = {(int(s), int(d)): float(x) for s, d, x in zip(src, dst, wts)}
    assert pairs[(u, v)] == w + 3.0 and pairs[(iu, iv)] == 4.0
    removed = apply_edge_updates(out, {(u, v): math.inf})
    src, dst, _ = removed.edge_array()
    assert (u, v) not in {(int(s), int(d)) for s, d in zip(src, dst)}


def test_delete_missing_edge_is_noop():
    graph = erdos_renyi(20, 60, seed=3)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE)
    before = apsp.dist.copy()
    iu, iv = _non_edge(graph, 2)
    result = apsp.delete_edge(iu, iv)
    assert result.applied == 0 and result.noops == 1 and not result.passes
    assert result.old_fingerprint == result.new_fingerprint
    assert np.array_equal(apsp.dist, before)


# ---------------------------------------------------------------------------
# exactness: every update path bit-identical to a full re-solve
# ---------------------------------------------------------------------------
def test_single_decrease_bit_identical():
    graph = rmat(60, 360, seed=4)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE, block_size=16)
    u, v, w = _some_edge(graph)
    result = apsp.decrease_edge(u, v, max(0.0, w // 2))
    assert result.applied == 1
    assert np.array_equal(apsp.dist, _resolve(apsp.graph))


def test_insertion_is_a_decrease_from_inf():
    graph = rmat(60, 360, seed=5)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE, block_size=20)
    iu, iv = _non_edge(graph, 7)
    result = apsp.decrease_edge(iu, iv, 1.0)
    assert result.applied == 1
    assert [p.plan.kind for p in result.passes] == ["decrease"]
    assert np.array_equal(apsp.dist, _resolve(apsp.graph))


def test_batched_decreases_exceeding_chunk_split_exactly():
    """More simultaneous decreases than n // 2 must split into chunks
    that compose to the same closure."""
    graph = erdos_renyi(30, 240, seed=6)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE, block_size=10)
    src, dst, w = graph.edge_array()
    batch = [
        EdgeUpdate(int(src[i]), int(dst[i]), float(w[i]) // 2)
        for i in range(min(24, len(src)))
    ]
    result = apsp.apply(batch)
    kinds = [p.plan.kind for p in result.passes]
    assert kinds.count("decrease") >= 2, "expected the batch to chunk"
    assert sum(p.plan.k for p in result.passes if p.plan.kind == "decrease") >= 2
    assert np.array_equal(apsp.dist, _resolve(apsp.graph))


def test_increase_and_disconnecting_delete_bit_identical():
    # a two-vertex bridge: deleting it must reintroduce infinities
    graph = CSRGraph.from_edges(
        6,
        np.array([0, 1, 2, 3, 4, 1], dtype=np.int64),
        np.array([1, 2, 3, 4, 5, 0], dtype=np.int64),
        np.array([2.0, 3.0, 1.0, 2.0, 4.0, 2.0]),
    )
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE, block_size=3)
    result = apsp.increase_edge(1, 2, 9.0)
    assert result.applied == 1
    assert [p.plan.kind for p in result.passes] == ["increase"]
    assert np.array_equal(apsp.dist, _resolve(apsp.graph))
    result = apsp.delete_edge(1, 2)
    assert result.applied == 1
    assert not np.isfinite(apsp.dist[0, 3])
    assert np.array_equal(apsp.dist, _resolve(apsp.graph))


def test_mixed_batch_bit_identical():
    graph = rmat(48, 288, seed=8)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE, block_size=16)
    src, dst, w = graph.edge_array()
    iu, iv = _non_edge(graph, 3)
    batch = [
        EdgeUpdate(int(src[0]), int(dst[0]), float(w[0]) // 2),  # decrease
        EdgeUpdate(int(src[1]), int(dst[1]), float(w[1]) + 7.0),  # increase
        EdgeUpdate.delete(int(src[2]), int(dst[2])),  # delete
        EdgeUpdate(iu, iv, 2.0),  # insert
    ]
    result = apsp.apply(batch)
    assert result.applied >= 3
    assert np.array_equal(apsp.dist, _resolve(apsp.graph))


def test_noop_updates_do_not_sweep():
    graph = erdos_renyi(24, 100, seed=9)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE)
    u, v, w = _some_edge(graph)
    before = apsp.dist.copy()
    result = apsp.apply([EdgeUpdate(u, v, w)])  # same weight
    assert result.applied == 0 and result.noops == 1 and not result.passes
    assert np.array_equal(apsp.dist, before)


# ---------------------------------------------------------------------------
# device capacity: every pass is cut to fit, and a failed batch changes nothing
# ---------------------------------------------------------------------------
def _fits(result, spec) -> bool:
    return all(
        audit_ir(emit_update_ir(p.plan, spec))[0] <= spec.memory_bytes for p in result.passes
    )


def test_passes_fit_a_device_smaller_than_the_closure():
    # two 300 x 300 float32 slots alone exceed TEST_DEVICE's 512 KiB
    graph = erdos_renyi(300, 1200, seed=12)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE)
    src, dst, w = graph.edge_array()
    mixed = [
        EdgeUpdate(int(src[0]), int(dst[0]), float(w[0]) + 5.0),
        EdgeUpdate(int(src[1]), int(dst[1]), float(w[1]) // 2),
    ]
    result = apsp.apply(mixed)
    assert [p.plan.kind for p in result.passes] == ["increase", "decrease"]
    assert result.passes[1].plan.block_size < 300 and _fits(result, TEST_DEVICE)
    assert np.array_equal(apsp.dist, _resolve(apsp.graph))


def test_wide_decrease_batch_narrows_to_fit():
    graph = erdos_renyi(300, 1200, seed=13)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE)
    src, dst, w = graph.edge_array()
    result = apsp.apply(
        [EdgeUpdate(int(src[i]), int(dst[i]), float(w[i]) // 2) for i in range(0, len(src), 6)]
    )
    # the n // 2 = 150 wide panels would not leave room for the slots
    assert len(result.passes) > 2 and max(p.plan.k for p in result.passes) < 150
    assert _fits(result, TEST_DEVICE)
    assert np.array_equal(apsp.dist, _resolve(apsp.graph))


def test_failed_batch_leaves_state_untouched(monkeypatch):
    from dataclasses import replace

    from repro.dynamic.patch import _PassHost
    from repro.gpu.errors import OutOfMemoryError

    graph = rmat(48, 288, seed=8)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE, block_size=16)
    before = apsp.dist.copy()
    src, dst, w = graph.edge_array()
    mixed = [
        EdgeUpdate(int(src[1]), int(dst[1]), float(w[1]) + 7.0),
        EdgeUpdate(int(src[0]), int(dst[0]), float(w[0]) // 2),
    ]

    def boom(*_):
        raise RuntimeError("decrease pass failed")

    # the increase pass runs, then the decrease pass fails
    monkeypatch.setattr(_PassHost, "_rank1_patch", boom)
    with pytest.raises(RuntimeError, match="decrease pass failed"):
        apsp.apply(mixed)
    assert apsp.graph is graph and np.array_equal(apsp.dist, before)
    monkeypatch.undo()
    # a device that cannot hold the updated graph refuses before any pass
    apsp.spec = replace(TEST_DEVICE, memory_bytes=1024)
    with pytest.raises(OutOfMemoryError):
        apsp.apply(mixed)
    assert apsp.graph is graph and np.array_equal(apsp.dist, before)


# ---------------------------------------------------------------------------
# static layer: IR == closed form, coverage, HB
# ---------------------------------------------------------------------------
def _one_pass(kind: str):
    """A real executed pass of the requested kind, plus its device spec."""
    graph = rmat(60, 360, seed=11)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE, block_size=20)
    src, dst, w = graph.edge_array()
    if kind == "decrease":
        result = apsp.apply(
            [EdgeUpdate(int(src[i]), int(dst[i]), float(w[i]) // 2) for i in range(3)]
        )
    else:
        result = apsp.apply([EdgeUpdate(int(src[0]), int(dst[0]), float(w[0]) + 9.0)])
    passes = [p for p in result.passes if p.plan.kind == kind]
    assert passes, f"update produced no {kind} pass"
    return passes[0]


@pytest.mark.parametrize("kind", ["decrease", "increase"])
def test_closed_form_bounds_exact_and_o_n2_gated(kind):
    patch = _one_pass(kind)
    plan = patch.plan
    ir = emit_update_ir(plan, TEST_DEVICE)
    _peak, tally, findings = audit_ir(ir)
    assert findings == []
    checks = update_bound_checks(plan, tally)
    assert checks and all(c.ok for c in checks), [c.describe() for c in checks]
    names = {c.name for c in checks}
    assert "update-o-n2-gate" in names
    traffic = update_traffic(plan)
    assert (tally.bytes_h2d, tally.bytes_d2h, tally.num_h2d, tally.num_d2h) == (
        traffic.bytes_h2d, traffic.bytes_d2h, traffic.num_h2d, traffic.num_d2h,
    )
    if kind == "decrease":
        n, k = plan.n, plan.k
        assert traffic.bytes_h2d == (2 * n * k + k * k + n * n) * 4
        assert traffic.bytes_d2h == n * n * 4
    else:
        assert traffic.bytes_h2d == plan.csr_bytes
        assert traffic.bytes_d2h == plan.n * len(plan.affected_rows) * 4
    # the pass moved what its IR declares
    assert patch.bytes_moved == tally.bytes_h2d + tally.bytes_d2h


def test_o_n2_gate_scales_quadratically_not_cubically():
    """The gated volume is 4·n²·elem — a re-solve moves ≥ n_d·n² more.
    Doubling n must ~4× the bound, never ~8×."""
    small = UpdatePlan(kind="decrease", n=64, block_size=16, k=2)
    large = UpdatePlan(kind="decrease", n=128, block_size=32, k=2)
    s = update_traffic(small).total_bytes
    l = update_traffic(large).total_bytes
    assert 3.5 < l / s < 4.5


@pytest.mark.parametrize("kind", ["decrease", "increase"])
def test_touched_blocks_cover_changed_blocks(kind):
    patch = _one_pass(kind)
    ir = emit_update_ir(patch.plan, TEST_DEVICE)
    static = static_touched_blocks(ir, patch.plan.num_blocks)
    assert patch.changed_blocks <= static
    assert check_patch_soundness(patch.plan, ir, patch.changed_blocks) == []


@pytest.mark.parametrize("kind", ["decrease", "increase"])
def test_update_schedule_happens_before_clean(kind):
    patch = _one_pass(kind)
    report = analyze_hb([emit_update_ir(patch.plan, TEST_DEVICE)])
    assert report.ok, [f.describe() for f in report.findings]


# ---------------------------------------------------------------------------
# seeded soundness defects: each caught statically, with attribution
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "defect", ["shrunken-region", "dropped-writeback", "stale-pivot-panel"]
)
def test_seeded_decrease_defects_caught(defect):
    patch = _one_pass("decrease")
    target = max(patch.changed_blocks)
    ir = seed_defect(emit_update_ir(patch.plan, TEST_DEVICE), defect, patch.plan, target)
    findings = check_patch_soundness(patch.plan, ir, patch.changed_blocks)
    assert findings, f"{defect} not caught"
    if defect == "stale-pivot-panel":
        assert any(f.kind == "stale-pivot-panel" for f in findings)
    else:
        assert any(f.block == target for f in findings), (
            f"{defect} caught without block attribution: "
            + "; ".join(f.describe() for f in findings)
        )


@pytest.mark.parametrize("defect", ["shrunken-region", "dropped-writeback"])
def test_seeded_increase_defects_caught(defect):
    patch = _one_pass("increase")
    target = max(patch.changed_blocks)
    ir = seed_defect(emit_update_ir(patch.plan, TEST_DEVICE), defect, patch.plan, target)
    findings = check_patch_soundness(patch.plan, ir, patch.changed_blocks)
    assert any(f.block == target for f in findings), f"{defect} not attributed"


def test_dropped_writeback_also_diverges_bound_tally():
    patch = _one_pass("decrease")
    target = max(patch.changed_blocks)
    ir = seed_defect(
        emit_update_ir(patch.plan, TEST_DEVICE), "dropped-writeback", patch.plan, target
    )
    _peak, tally, _findings = audit_ir(ir)
    checks = update_bound_checks(patch.plan, tally)
    assert any(not c.ok for c in checks), "byte-exact bound must notice a lost d2h"


# ---------------------------------------------------------------------------
# simulated time: each pass runs its schedule on a Device(spec)
# ---------------------------------------------------------------------------
#: (batch, pass kind) -> simulated seconds of that pass of the
#: road220-mixed verify-update config on TEST_DEVICE
PINNED_PASS_SECONDS = {
    (0, "decrease"): 0.0038228399999999997,
    (1, "increase"): 0.10087444,
}


def test_pass_simulated_seconds_pinned():
    from repro.dynamic.verify import DEFAULT_UPDATE_CONFIGS, _build_graph, _update_script

    cfg = DEFAULT_UPDATE_CONFIGS[0]
    graph = _build_graph(cfg)
    apsp = DynamicAPSP(
        graph, spec=TEST_DEVICE, block_size=-(-graph.num_vertices // cfg["nd"])
    )
    seconds: dict[tuple[int, str], float] = {}
    for batch, updates in enumerate(_update_script(graph, cfg["seed"])):
        result = apsp.apply(updates)
        assert result.simulated_seconds == sum(p.simulated_seconds for p in result.passes)
        for patch in result.passes:
            seconds.setdefault((batch, patch.plan.kind), patch.simulated_seconds)
    for key, pinned in PINNED_PASS_SECONDS.items():
        assert seconds[key] == pinned, key  # exact


# ---------------------------------------------------------------------------
# the full driver (what `repro verify-update` runs)
# ---------------------------------------------------------------------------
def test_verify_update_end_to_end():
    ver = verify_update()
    assert ver.ok, ver.describe()
    assert len(ver.audits) >= 6
    defects = [c for c in ver.checks if c.name.startswith("defect ")]
    assert {c.name.split()[1] for c in defects} == {
        "shrunken-region", "dropped-writeback", "stale-pivot-panel"
    }
    assert all(c.passed for c in defects)
    # every catch that claims attribution names a block
    assert all(
        "at block (" in c.detail for c in defects if "stale-pivot-panel" not in c.name
    )
    payload = ver.to_dict()
    assert payload["ok"] is True
    assert {c["name"] for c in payload["checks"] if c["name"].startswith("revalidation")} == {
        "revalidation fingerprint-rotates", "revalidation revalidated-entry-reused",
        "revalidation revalidated-bit-identical", "revalidation stale-checkpoint-refused",
    }


# ---------------------------------------------------------------------------
# CheckpointStore invalidation / DistanceCache revalidation (satellite 3)
# ---------------------------------------------------------------------------
def test_fingerprint_rotates_on_any_mutation():
    graph = erdos_renyi(24, 100, seed=12)
    u, v, w = _some_edge(graph)
    same = apply_edge_updates(graph, {})
    changed = apply_edge_updates(graph, {(u, v): w + 1.0})
    assert graph_fingerprint(same) == graph_fingerprint(graph)
    assert graph_fingerprint(changed) != graph_fingerprint(graph)


def test_cache_lookup_misses_for_unknown_graph(tmp_path):
    cache = DistanceCache(tmp_path)
    graph = erdos_renyi(24, 100, seed=13)
    fingerprint = graph_fingerprint(graph)
    assert cache.lookup(fingerprint) is None
    with pytest.raises(CheckpointError, match="no cached closure"):
        cache.revalidate(graph, fingerprint, [EdgeUpdate(0, 1, 1.0)], spec=TEST_DEVICE)


def test_stale_checkpoint_refused_not_served(tmp_path):
    """A store written for one graph must refuse a bind for another —
    the invalidation mechanism behind content-hash keying."""
    graph = erdos_renyi(24, 100, seed=14)
    u, v, w = _some_edge(graph)
    mutated = apply_edge_updates(graph, {(u, v): w + 5.0})
    cache = DistanceCache(tmp_path)
    cache.store(graph_fingerprint(graph), DynamicAPSP(graph, spec=TEST_DEVICE).dist)
    with pytest.raises(CheckpointError):
        CheckpointStore(cache._subdir(graph_fingerprint(graph))).bind(
            algorithm="dynamic-dist", fingerprint=graph_fingerprint(mutated)
        )
    # and the cache itself misses rather than serving the stale entry
    assert cache.lookup(graph_fingerprint(mutated)) is None


def test_revalidation_reuses_entry_bit_identically(tmp_path):
    graph = rmat(48, 288, seed=15)
    cache = DistanceCache(tmp_path)
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE, block_size=16)
    fingerprint = graph_fingerprint(graph)
    cache.store(fingerprint, apsp.dist)
    u, v, w = _some_edge(graph)
    updates = [EdgeUpdate(u, v, float(w) // 2)]
    new_graph, new_dist, result = cache.revalidate(
        graph, fingerprint, updates, spec=TEST_DEVICE, block_size=16
    )
    assert result.applied == 1 and result.new_fingerprint == graph_fingerprint(new_graph)
    # the patched entry is re-filed under the new fingerprint and equals
    # a from-scratch solve of the mutated graph, bit for bit
    reloaded = cache.lookup(result.new_fingerprint)
    assert reloaded is not None and np.array_equal(reloaded, new_dist)
    assert np.array_equal(new_dist, _resolve(new_graph))
    # the old entry still answers for the old graph
    assert cache.lookup(fingerprint) is not None
    # a fingerprint that does not name the graph files nothing
    with pytest.raises(ValueError, match="fingerprint"):
        cache.revalidate(new_graph, fingerprint, updates, spec=TEST_DEVICE)


# ---------------------------------------------------------------------------
# differential suite (satellite 4): random mixed sequences vs solve_apsp
# ---------------------------------------------------------------------------
@st.composite
def update_scripts(draw):
    """A base graph plus a short sequence of mixed update batches."""
    n = draw(st.integers(min_value=6, max_value=20))
    num_edges = draw(st.integers(min_value=n, max_value=3 * n))
    rng_pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(
        st.lists(rng_pairs, min_size=num_edges, max_size=num_edges).map(
            lambda ps: [(u, v) for u, v in ps if u != v]
        )
    )
    weights = draw(
        st.lists(st.integers(1, 30), min_size=len(edges), max_size=len(edges))
    )
    num_batches = draw(st.integers(min_value=1, max_value=3))
    batches = []
    for _ in range(num_batches):
        size = draw(st.integers(min_value=1, max_value=4))
        batch = []
        for _ in range(size):
            u, v = draw(rng_pairs.filter(lambda p: p[0] != p[1]))
            kind = draw(st.sampled_from(["decrease", "increase", "delete"]))
            if kind == "delete":
                batch.append(EdgeUpdate.delete(u, v))
            elif kind == "decrease":
                batch.append(EdgeUpdate(u, v, float(draw(st.integers(0, 5)))))
            else:
                batch.append(EdgeUpdate(u, v, float(draw(st.integers(20, 60)))))
        batches.append(batch)
    return n, edges, weights, batches


@given(update_scripts())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_differential_incremental_vs_full_resolve(script):
    """Bit-identical float32 distances on every prefix of a random mixed
    update sequence — incremental patching vs a full ``solve_apsp``."""
    n, edges, weights, batches = script
    graph = CSRGraph.from_edges(
        n,
        np.array([u for u, _ in edges], dtype=np.int64),
        np.array([v for _, v in edges], dtype=np.int64),
        np.array(weights[: len(edges)], dtype=np.float64),
    )
    apsp = DynamicAPSP(graph, spec=TEST_DEVICE, block_size=max(1, n // 3))
    for batch in batches:
        apsp.apply(batch)
        full = solve_apsp(apsp.graph, algorithm="floyd-warshall", device=TEST_DEVICE)
        assert np.array_equal(apsp.dist, full.to_array()), (
            "incremental state diverged from full re-solve"
        )
