"""Cluster-scale schedule verification: proofs, defects, and baselines.

The contract under test: the distributed blocked-FW simulator and
``emit_cluster_ir`` run one schedule, so

* the emitted schedule matches the closed-form 2-D block-cyclic
  communication bounds, per link and per lowered collective;
* the α–β link-model replay predicts the simulated makespan **exactly**;
* every seeded wiring defect — dropped panel broadcast, duplicated
  reduce contribution, mismatched send/recv rank, circular collective
  wait — is caught *statically* (happens-before or comm-bounds), with
  node/link/block attribution, while clean schedules verify with zero
  findings.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cluster import (
    BlockCyclicLayout,
    ClusterSpec,
    cluster_fw,
    default_block_size,
    emit_cluster_ir,
    near_square_grid,
    slice_widths,
    verify_cluster,
)
from repro.core.blocked_fw import floyd_warshall
from repro.core.minplus import DIST_DTYPE
from repro.graphs.generators import rmat
from repro.verifyplan import (
    BarrierOp,
    RecvOp,
    SendOp,
    analyze_comm,
    analyze_hb,
    audit_ir,
    cluster_comm_checks,
    expected_comm_volumes,
    predict_timing,
)

#: (nodes, devices per node) topologies of the standard sweep
TOPOLOGIES = [(1, 1), (2, 1), (2, 2), (4, 1), (3, 2)]

N = 120


@pytest.fixture(scope="module")
def graph():
    return rmat(N, 6 * N, seed=3)


@pytest.fixture(scope="module")
def reference(graph):
    return floyd_warshall(graph.to_dense(dtype=DIST_DTYPE))


def _setup(nodes, devices, n=N, block_size=None):
    cluster = ClusterSpec.make(nodes, devices)
    bs = block_size or default_block_size(n, cluster)
    layout = BlockCyclicLayout(n=n, block_size=bs, grid=cluster.grid)
    irs = emit_cluster_ir(n, cluster, block_size=bs)
    return cluster, layout, irs


class TestTopology:
    def test_near_square_grid(self):
        assert near_square_grid(1) == (1, 1)
        assert near_square_grid(2) == (1, 2)
        assert near_square_grid(4) == (2, 2)
        assert near_square_grid(6) == (2, 3)
        assert near_square_grid(12) == (3, 4)
        assert near_square_grid(7) == (1, 7)  # prime: flat grid

    def test_slice_widths_partition_the_pivot(self):
        for bk, m in [(30, 1), (30, 4), (7, 3), (2, 4)]:
            widths = slice_widths(bk, m)
            assert sum(widths) == bk and len(widths) == m
            assert all(w >= 0 for w in widths)
            assert max(widths) - min(widths) <= 1

    def test_block_cyclic_ownership_partitions_blocks(self):
        cluster, layout, _ = _setup(4, 1)
        seen = {}
        for node in range(cluster.num_nodes):
            for ij in layout.owned_blocks(node):
                assert ij not in seen
                seen[ij] = node
        assert len(seen) == layout.num_blocks ** 2
        # cyclic: owners repeat with grid periodicity
        pr, pc = cluster.grid
        for (i, j), node in seen.items():
            assert node == (i % pr) * pc + (j % pc)

    def test_link_model(self):
        cluster = ClusterSpec.make(2, 2)
        assert cluster.link_of(0, 1) is cluster.intra_link
        assert cluster.link_of(0, 2) is cluster.inter_link
        assert cluster.inter_link.duration(1000) == pytest.approx(
            cluster.inter_link.latency + 1000 / cluster.inter_link.bandwidth
        )
        assert cluster.rank_name(3) == "n1d1"


class TestClusterNumerics:
    @pytest.mark.parametrize("nodes,devices", TOPOLOGIES)
    def test_matches_reference_fw(self, graph, reference, nodes, devices):
        result = cluster_fw(graph, ClusterSpec.make(nodes, devices))
        assert np.array_equal(result.dist, reference)

    def test_ragged_block_size_matches_reference(self, graph, reference):
        result = cluster_fw(graph, ClusterSpec.make(2, 2), block_size=17)
        assert np.array_equal(result.dist, reference)


class TestCrossValidation:
    """static schedule == closed form, and timing is exact."""

    @pytest.mark.parametrize("nodes,devices", TOPOLOGIES)
    def test_closed_form_volumes_exact(self, nodes, devices):
        cluster, layout, irs = _setup(nodes, devices)
        tally = analyze_comm(irs)
        failed = [c.describe() for c in cluster_comm_checks(cluster, layout, tally)
                  if not c.ok]
        assert not failed, failed
        expected = expected_comm_volumes(cluster, layout)
        assert sum(expected.values()) == tally.total_bytes

    @pytest.mark.parametrize("nodes,devices", TOPOLOGIES)
    def test_predicted_makespan_equals_simulated(self, graph, nodes, devices):
        cluster, layout, irs = _setup(nodes, devices)
        result = cluster_fw(graph, cluster, block_size=layout.block_size)
        timing = predict_timing(
            irs, cluster.device, link_of=cluster.link_of
        )
        assert timing.makespan == result.makespan  # exact, not approx

    def test_ragged_blocks_still_exact(self, graph):
        cluster, layout, irs = _setup(2, 2, block_size=17)  # 120 % 17 != 0
        result = cluster_fw(graph, cluster, block_size=17)
        assert all(c.ok for c in cluster_comm_checks(cluster, layout, analyze_comm(irs)))
        timing = predict_timing(
            irs, cluster.device, link_of=cluster.link_of
        )
        assert timing.makespan == result.makespan

    @pytest.mark.parametrize("nodes,devices", TOPOLOGIES)
    def test_clean_schedules_verify_with_zero_findings(self, nodes, devices):
        cluster, _, irs = _setup(nodes, devices)
        hb = analyze_hb(irs, node_names=cluster.node_names())
        assert hb.ok and not hb.findings
        for ir in irs:
            _, _, findings = audit_ir(ir)
            assert not findings


def _drop_op(irs, pred):
    """Remove the first op matching ``pred``; returns (mutated, victim)."""
    for i, ir in enumerate(irs):
        for j, op in enumerate(ir.ops):
            if pred(ir, op):
                out = list(irs)
                out[i] = dataclasses.replace(
                    ir, ops=ir.ops[:j] + ir.ops[j + 1:]
                )
                return out, (i, op)
    raise AssertionError("no op matched the defect predicate")


def _first_op(irs, pred):
    for i, ir in enumerate(irs):
        for j, op in enumerate(ir.ops):
            if pred(ir, op):
                return i, j, op
    raise AssertionError("no op matched")


class TestSeededDefects:
    """Each wiring defect must be caught statically, with attribution."""

    def test_dropped_panel_broadcast_is_orphaned_recv(self):
        cluster, layout, irs = _setup(4, 1)
        mutated, (rank, victim) = _drop_op(
            irs, lambda ir, op: isinstance(op, SendOp)
            and op.collective == "broadcast-row"
        )
        hb = analyze_hb(mutated, node_names=cluster.node_names())
        orphans = [f for f in hb.findings if f.kind == "orphaned-recv"]
        assert orphans, hb.findings
        # attribution: the blocked receiver names the link and block
        direct = [
            f for f in orphans
            if f.buffer == str(victim.key)
            and cluster.rank_name(victim.dst) in f.detail
        ]
        assert direct, orphans
        assert "link" in direct[0].detail and "block" in direct[0].detail
        # the comm proof independently localises the short link
        report = cluster_comm_checks(cluster, layout, analyze_comm(mutated))
        failed = [c for c in report if not c.ok]
        assert any(c.name == "comm-broadcast-row" for c in failed)
        src = cluster.rank_name(rank)
        assert any(c.name.startswith(f"comm-link-{src}->") for c in failed)

    def test_dropped_send_recv_pair_caught_by_commbounds_and_defuse(self):
        cluster, layout, irs = _setup(4, 1)
        mutated, (_, send) = _drop_op(
            irs, lambda ir, op: isinstance(op, SendOp)
            and op.collective == "broadcast-col"
        )
        mutated, (rank, _) = _drop_op(
            mutated, lambda ir, op: isinstance(op, RecvOp)
            and op.tag == send.tag and ir.rank == send.dst
        )
        # the pair vanished symmetrically, so HB sees no orphan — the
        # closed-form volume proof still catches the missing panel
        report = cluster_comm_checks(cluster, layout, analyze_comm(mutated))
        failed = {c.name for c in report if not c.ok}
        assert "comm-broadcast-col" in failed and "comm-total" in failed
        # and the receiver now reads a panel that was never delivered
        _, _, findings = audit_ir(mutated[rank])
        assert any(f.kind == "undefined-read" for f in findings)

    def test_duplicated_reduce_contribution_is_orphaned_send(self):
        cluster, layout, irs = _setup(2, 2)
        rank, j, op = _first_op(
            irs, lambda ir, op: isinstance(op, SendOp)
            and op.collective == "reduce"
        )
        mutated = list(irs)
        mutated[rank] = dataclasses.replace(
            irs[rank], ops=irs[rank].ops[:j] + (op,) + irs[rank].ops[j:]
        )
        hb = analyze_hb(mutated, node_names=cluster.node_names())
        orphans = [f for f in hb.findings if f.kind == "orphaned-send"]
        assert orphans
        assert "duplicated contribution" in orphans[0].detail
        report = cluster_comm_checks(cluster, layout, analyze_comm(mutated))
        failed = {c.name for c in report if not c.ok}
        assert "comm-reduce" in failed

    def test_mismatched_send_rank_is_orphaned_both_ways(self):
        cluster, layout, irs = _setup(4, 1)
        rank, j, op = _first_op(
            irs, lambda ir, op: isinstance(op, SendOp)
            and op.collective == "broadcast-diag"
        )
        wrong = next(
            r for r in range(cluster.num_ranks)
            if r not in (op.dst, rank)
        )
        mutated = list(irs)
        mutated[rank] = dataclasses.replace(
            irs[rank],
            ops=irs[rank].ops[:j]
            + (dataclasses.replace(op, dst=wrong),)
            + irs[rank].ops[j + 1:],
        )
        hb = analyze_hb(mutated, node_names=cluster.node_names())
        kinds = {f.kind for f in hb.findings}
        assert "orphaned-recv" in kinds  # the intended receiver starves
        assert "orphaned-send" in kinds  # the stray message is unconsumed
        # the per-link volume proof names both drifted links
        report = cluster_comm_checks(cluster, layout, analyze_comm(mutated))
        failed = {c.name for c in report if not c.ok}
        src = cluster.rank_name(rank)
        assert f"comm-link-{src}->{cluster.rank_name(op.dst)}" in failed
        assert f"comm-link-{src}->{cluster.rank_name(wrong)}" in failed

    def test_circular_collective_wait_is_deadlock(self):
        cluster, _, irs = _setup(2, 1)

        def recv_before_send(ir):
            """Reorder the terminal all-gather: receive before sending."""
            sends = [op for op in ir.ops if isinstance(op, SendOp)
                     and op.collective == "allgather"]
            recvs = [op for op in ir.ops if isinstance(op, RecvOp)
                     and op.collective == "allgather"]
            rest = [op for op in ir.ops
                    if not (isinstance(op, (SendOp, RecvOp))
                            and op.collective == "allgather")]
            cut = next(i for i, op in enumerate(rest)
                       if isinstance(op, BarrierOp)
                       and op.label == "after-allgather")
            return dataclasses.replace(
                ir, ops=tuple(rest[:cut]) + tuple(recvs) + tuple(sends)
                + tuple(rest[cut:]),
            )

        mutated = [recv_before_send(ir) for ir in irs]
        hb = analyze_hb(mutated, node_names=cluster.node_names())
        cycles = [f for f in hb.findings if f.kind == "circular-wait"]
        assert len(cycles) >= 2  # both leads blocked on each other
        assert "deadlocked collective" in cycles[0].detail
        # the timing replay refuses to schedule a deadlocked fleet
        with pytest.raises(ValueError, match="deadlock"):
            predict_timing(
                mutated, cluster.device, link_of=cluster.link_of
            )

    def test_wrong_key_is_key_mismatch(self):
        cluster, _, irs = _setup(2, 1)
        rank, j, op = _first_op(
            irs, lambda ir, op: isinstance(op, SendOp)
            and op.collective == "broadcast-diag"
        )
        mutated = list(irs)
        mutated[rank] = dataclasses.replace(
            irs[rank],
            ops=irs[rank].ops[:j]
            + (dataclasses.replace(op, key=("bogus", 9, 9)),)
            + irs[rank].ops[j + 1:],
        )
        hb = analyze_hb(mutated, node_names=cluster.node_names())
        assert any(f.kind == "key-mismatch" for f in hb.findings)


class TestVerifyCluster:
    def test_clean_schedule_verifies(self, graph):
        ver = verify_cluster(N, ClusterSpec.make(2, 2), graph=graph)
        assert ver.ok
        audit = ver.audits["cluster-fw"]
        assert audit.checks and all(c.passed for c in audit.checks)
        assert audit.peak_bytes <= audit.capacity
        assert not audit.findings
        assert audit.bounds and all(b.ok for b in audit.bounds)

    def test_to_dict_round_trips_through_json(self, graph):
        ver = verify_cluster(N, ClusterSpec.make(3, 2), graph=graph)
        payload = json.loads(json.dumps(ver.to_dict()))
        assert payload["ok"] is True
        audit = payload["audits"]["cluster-fw"]
        assert all(b["ok"] for b in audit["bounds"])
        assert {c["name"]: c["passed"] for c in audit["checks"]} == {
            "makespan-exact": True, "distances-exact": True,
        }

    def test_describe_names_exactly_the_checks_run(self, graph):
        ver = verify_cluster(N, ClusterSpec.make(2, 2), graph=graph)
        named = [
            ln.strip().split(":", 1)[0] for ln in ver.describe().splitlines()
            if ln.strip().startswith(("makespan", "distances"))
        ]
        assert named == [c.name for c in ver.audits["cluster-fw"].checks]

    def test_static_only_skips_cross_validation(self):
        ver = verify_cluster(N, ClusterSpec.make(2, 1))
        assert ver.ok and ver.audits["cluster-fw"].checks == []

    def test_graph_size_mismatch_rejected(self, graph):
        with pytest.raises(ValueError, match="vertices"):
            verify_cluster(N + 1, ClusterSpec.make(2, 1), graph=graph)


class TestScalingBaseline:
    """Spot-check BENCH_cluster.json entries against a fresh run."""

    @pytest.mark.parametrize("name", ["strong-n180-2x2", "weak-n120-1x1"])
    def test_committed_entry_reproduces_exactly(self, name):
        from repro.bench.cluster import BASELINE_FIELDS, _run_config, load_baseline

        baseline = load_baseline()
        entry = baseline["configs"][name]
        fresh = _run_config(entry["config"])
        for field in BASELINE_FIELDS:
            assert fresh[field] == entry[field], field

    def test_every_committed_entry_is_exact(self):
        from repro.bench.cluster import load_baseline

        for name, entry in load_baseline()["configs"].items():
            assert entry["ok"] and entry["exact"], name


class TestClusterCLI:
    def test_verify_cluster_text(self, capsys):
        from repro.cli import main

        rc = main([
            "verify-cluster", "rmat:n=96,m=576,seed=3",
            "--device", "test", "--scale", "1",
            "--nodes", "2", "--num-devices", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VERIFIED" in out and "makespan-exact: ok" in out

    def test_verify_cluster_json_schema(self, capsys):
        from repro.cli import SCHEMA_VERSION, main

        rc = main([
            "verify-cluster", "rmat:n=96,m=576,seed=3",
            "--device", "test", "--scale", "1",
            "--nodes", "4", "--static-only", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["ok"] is True
        audit = payload["audits"]["cluster-fw"]
        assert all(b["ok"] for b in audit["bounds"])
        assert audit["checks"] == []

    def test_bench_cluster_check_passes_on_committed_baseline(self, capsys):
        from repro.cli import main

        assert main(["bench-cluster", "--check"]) == 0
        assert "no drift" in capsys.readouterr().out
