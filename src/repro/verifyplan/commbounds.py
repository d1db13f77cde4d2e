"""Closed-form communication-volume bounds for distributed block-APSP.

The 2-D block-cyclic blocked-FW schedule (:mod:`repro.cluster`) moves a
provable number of bytes over each link. With per-``k`` pivot block
edges ``b_k`` (``n = Σ b_k``, ``n_d`` blocks, ``P = Pr·Pc`` nodes, ``M``
devices per node), the lowered collectives cost exactly:

* **pivot broadcast** — ``(Pr + Pc − 2) · Σ_k b_k²`` elements;
* **row panels** — ``(Pr − 1) · Σ_k b_k (n − b_k)`` elements, and the
  column panels the same with ``Pc``. Since
  ``Σ_k b_k (n − b_k) = n² − Σ_k b_k²``, the panel traffic is the
  ``O(n² · √P · n_d)``-shaped term of the classical 2-D distribution:
  with ``Pr ≈ Pc ≈ √P`` and even tiling it is
  ``2(√P − 1) · n² · (1 − 1/n_d)`` elements total, i.e. ``O(n²√P)``
  per *fleet* and ``O(n²/√P · n_d)``-free per node — halve the grid
  dimension and the per-node panel traffic halves;
* **scatter** — ``Σ_k 2 (b_k − w₀(k)) (n − b_k)(n_d − 1)`` elements,
  where ``w₀(k)`` is the lead's share of the evenly split inner
  dimension (:func:`repro.cluster.topology.slice_widths`);
* **reduce** — ``Σ_k a_k (n − b_k)²`` elements with ``a_k`` the number
  of active siblings (``min(M, b_k) − 1``);
* **all-gather** — ``(P − 1) · n²`` elements.

:func:`analyze_comm` tallies the *static* schedule's
:class:`~repro.verifyplan.ir.SendOp`/:class:`~repro.verifyplan.ir.RecvOp`
traffic; :func:`cluster_comm_checks` compares it — per collective kind,
per directed link (derived combinatorially from the ownership layout,
independent of both the IR and any trace), and in total — as **exact**
:class:`~repro.verifyplan.bounds.BoundCheck` equalities. The dynamic
simulator runs the same schedule the IR compiles, so closed form ==
static schedule == executed messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.verifyplan.bounds import BoundCheck
from repro.verifyplan.ir import PlanIR, RecvOp, SendOp

if TYPE_CHECKING:  # pragma: no cover - annotations only, avoids a cycle
    from repro.cluster.topology import BlockCyclicLayout, ClusterSpec

__all__ = [
    "CommTally",
    "analyze_comm",
    "cluster_comm_checks",
    "expected_comm_volumes",
    "expected_link_bytes",
]

_ELEM = 4  # DIST_DTYPE is float32


@dataclass
class CommTally:
    """Aggregate message traffic of one distributed schedule's IRs."""

    #: directed (src_rank, dst_rank) -> bytes sent
    link_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    #: directed (src_rank, dst_rank) -> messages sent
    link_msgs: dict[tuple[int, int], int] = field(default_factory=dict)
    #: lowered-collective label -> bytes sent
    kind_bytes: dict[str, int] = field(default_factory=dict)
    #: directed (src_rank, dst_rank) -> bytes received
    recv_link_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    num_messages: int = 0

    @property
    def total_bytes(self) -> int:
        return sum(self.link_bytes.values())


def analyze_comm(irs: list[PlanIR]) -> CommTally:
    """Tally every send/recv in the per-rank IRs (static byte counts)."""
    tally = CommTally()
    for ir in irs:
        for op in ir.ops:
            if isinstance(op, SendOp):
                link = (ir.rank, op.dst)
                tally.link_bytes[link] = (
                    tally.link_bytes.get(link, 0) + op.access.nbytes
                )
                tally.link_msgs[link] = tally.link_msgs.get(link, 0) + 1
                tally.kind_bytes[op.collective] = (
                    tally.kind_bytes.get(op.collective, 0) + op.access.nbytes
                )
                tally.num_messages += 1
            elif isinstance(op, RecvOp):
                link = (op.src, ir.rank)
                tally.recv_link_bytes[link] = (
                    tally.recv_link_bytes.get(link, 0) + op.access.nbytes
                )
    return tally


def expected_comm_volumes(
    cluster: "ClusterSpec", layout: "BlockCyclicLayout"
) -> dict[str, int]:
    """Closed-form bytes per lowered collective (module docstring forms)."""
    from repro.cluster.topology import slice_widths

    pr, pc = cluster.grid
    num_dev = cluster.devices_per_node
    nd = layout.num_blocks
    n = layout.n
    sizes = [layout.size(k) for k in range(nd)]

    sum_bk2 = sum(bk * bk for bk in sizes)
    sum_panel = sum(bk * (n - bk) for bk in sizes)
    scatter = 0
    reduce_ = 0
    for bk in sizes:
        widths = slice_widths(bk, num_dev)
        active = sum(1 for w in widths[1:] if w > 0)
        scatter += 2 * (bk - widths[0]) * (n - bk) * (nd - 1)
        reduce_ += active * (n - bk) * (n - bk)
    return {
        "broadcast-diag": _ELEM * (pr + pc - 2) * sum_bk2,
        "broadcast-row": _ELEM * (pr - 1) * sum_panel,
        "broadcast-col": _ELEM * (pc - 1) * sum_panel,
        "scatter": _ELEM * scatter,
        "reduce": _ELEM * reduce_,
        "allgather": _ELEM * (cluster.num_nodes - 1) * n * n,
    }


def expected_link_bytes(
    cluster: "ClusterSpec", layout: "BlockCyclicLayout"
) -> dict[tuple[int, int], int]:
    """Per-directed-link bytes, derived combinatorially from the layout.

    Enumerates the ownership/broadcast conventions (full grid-row/column
    broadcast receiver sets, even inner-dimension split) without reading
    the IR or any trace, so an IR whose wiring drifts — a dropped panel,
    a duplicated contribution, a wrong destination rank — disagrees here
    with node and link attribution.
    """
    from repro.cluster.topology import slice_widths

    pr, pc = cluster.grid
    num_dev = cluster.devices_per_node
    nd = layout.num_blocks
    sz = layout.size
    lead = cluster.lead_rank
    link: dict[tuple[int, int], int] = {}

    def add(src: int, dst: int, elems: int) -> None:
        link[(src, dst)] = link.get((src, dst), 0) + elems * _ELEM

    for k in range(nd):
        bk = sz(k)
        owner_kk = layout.owner_node(k, k)
        okr, okc = cluster.grid_coords(owner_kk)
        for g in range(pc):
            node = cluster.node_at(okr, g)
            if node != owner_kk:
                add(lead(owner_kk), lead(node), bk * bk)
        for g in range(pr):
            node = cluster.node_at(g, okc)
            if node != owner_kk:
                add(lead(owner_kk), lead(node), bk * bk)
        for j in range(nd):
            if j == k:
                continue
            owner = layout.owner_node(k, j)
            ogr, ogc = cluster.grid_coords(owner)
            for g in range(pr):
                if g != ogr:
                    add(lead(owner), lead(cluster.node_at(g, ogc)), bk * sz(j))
        for i in range(nd):
            if i == k:
                continue
            owner = layout.owner_node(i, k)
            ogr, ogc = cluster.grid_coords(owner)
            for g in range(pc):
                if g != ogc:
                    add(lead(owner), lead(cluster.node_at(ogr, g)), sz(i) * bk)
        widths = slice_widths(bk, num_dev)
        for i in range(nd):
            if i == k:
                continue
            for j in range(nd):
                if j == k:
                    continue
                root = lead(layout.owner_node(i, j))
                bi, bj = sz(i), sz(j)
                for d in range(1, num_dev):
                    if widths[d] > 0:
                        add(root, root + d, bi * widths[d] + widths[d] * bj)
                        add(root + d, root, bi * bj)
    leads = [lead(node) for node in range(cluster.num_nodes)]
    for node in range(cluster.num_nodes):
        root = lead(node)
        for i, j in layout.owned_blocks(node):
            for other in leads:
                if other != root:
                    add(root, other, sz(i) * sz(j))
    return link


def cluster_comm_checks(
    cluster: "ClusterSpec",
    layout: "BlockCyclicLayout",
    tally: CommTally,
) -> list[BoundCheck]:
    """Exact-equality checks: per collective, per link, and in total."""
    expected_kinds = expected_comm_volumes(cluster, layout)
    expected_links = expected_link_bytes(cluster, layout)
    name = cluster.rank_name
    checks: list[BoundCheck] = []
    for kind in sorted(set(expected_kinds) | set(tally.kind_bytes)):
        checks.append(BoundCheck(
            name=f"comm-{kind}",
            expected=expected_kinds.get(kind, 0),
            actual=tally.kind_bytes.get(kind, 0),
            mode="exact",
            detail=f"closed-form {kind} volume over the 2-D block-cyclic layout",
        ))
    checks.append(BoundCheck(
        name="comm-total",
        expected=sum(expected_kinds.values()),
        actual=tally.total_bytes,
        mode="exact",
        detail="total lowered-collective traffic, all links",
    ))
    for src, dst in sorted(set(expected_links) | set(tally.link_bytes)):
        checks.append(BoundCheck(
            name=f"comm-link-{name(src)}->{name(dst)}",
            expected=expected_links.get((src, dst), 0),
            actual=tally.link_bytes.get((src, dst), 0),
            mode="exact",
            detail=(
                f"{cluster.link_of(src, dst).name} link "
                f"{name(src)}->{name(dst)}"
            ),
        ))
    for src, dst in sorted(set(tally.link_bytes) | set(tally.recv_link_bytes)):
        checks.append(BoundCheck(
            name=f"comm-matched-{name(src)}->{name(dst)}",
            expected=tally.link_bytes.get((src, dst), 0),
            actual=tally.recv_link_bytes.get((src, dst), 0),
            mode="exact",
            detail="every sent byte has a matching receive on this link",
        ))
    return checks
