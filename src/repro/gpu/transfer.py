"""PCIe transfer time model.

``duration = latency + nbytes / effective_throughput`` with pageable host
memory derated by ``spec.pageable_factor``. The fixed per-call latency is the
term the boundary algorithm's transfer batching attacks: `k²` copies of a few
hundred KB each are latency-bound, one copy of the accumulated buffer is
bandwidth-bound (paper Section III-C, Fig 8).

The throughputs themselves are the paper's ``nvprof``-measured values
(11.75 GB/s V100, 7.23 GB/s K80, Section V-E).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import DeviceSpec

__all__ = [
    "aborted_copy_duration",
    "copies_duration",
    "copy_duration",
    "copy_duration_2d",
]


def copy_duration(spec: "DeviceSpec", nbytes: int, *, pinned: bool = True) -> float:
    """Modelled duration of one contiguous host↔device copy."""
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    throughput = spec.transfer_throughput
    if not pinned:
        throughput *= spec.pageable_factor
    return spec.transfer_latency + nbytes / throughput


def aborted_copy_duration(
    spec: "DeviceSpec", nbytes: int, fraction: float, *, pinned: bool = True
) -> float:
    """Modelled duration of a copy that failed partway through.

    An injected :class:`~repro.gpu.errors.TransferError` carries the
    fraction of the payload delivered before the fault; the aborted
    attempt still occupies its copy engine for the setup latency plus the
    bandwidth time of the delivered prefix. Charged with ``nbytes=0`` on
    the timeline so byte statistics count delivered data only.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    fraction = min(1.0, max(0.0, fraction))
    throughput = spec.transfer_throughput
    if not pinned:
        throughput *= spec.pageable_factor
    return spec.transfer_latency + fraction * nbytes / throughput


def copy_duration_2d(
    spec: "DeviceSpec", rows: int, row_bytes: int, *, pinned: bool = True
) -> float:
    """Modelled duration of a strided (``cudaMemcpy2D``-style) copy.

    A block of the host distance matrix is not contiguous: each of its
    ``rows`` rows is a separate DMA segment paying
    ``spec.row_transfer_overhead``. For short rows this is latency-bound —
    the "large number of small data transfers" the boundary algorithm's
    batching optimisation eliminates (Section III-C: 69.96–83.90% of
    execution time before batching).
    """
    if rows < 0 or row_bytes < 0:
        raise ValueError("rows and row_bytes must be non-negative")
    throughput = spec.transfer_throughput
    if not pinned:
        throughput *= spec.pageable_factor
    return spec.transfer_latency + rows * (
        spec.row_transfer_overhead + row_bytes / throughput
    )


def copies_duration(
    spec: "DeviceSpec", nbytes: int, num_copies: int, strided_rows: int = 0
) -> float:
    """Summed duration of ``num_copies`` pinned copies moving ``nbytes``.

    ``strided_rows`` counts the row segments of the strided copies among
    them. The result is the sum of :func:`copy_duration` over the
    contiguous copies and :func:`copy_duration_2d` over the strided ones,
    in closed form.
    """
    return (
        num_copies * spec.transfer_latency
        + strided_rows * spec.row_transfer_overhead
        + nbytes / spec.transfer_throughput
    )
