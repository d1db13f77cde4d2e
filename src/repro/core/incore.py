"""In-core GPU APSP: the small-graph fast path.

The paper positions its work against in-core GPU implementations
[Harish & Narayanan; Katz & Kider] that "only considered small graphs and
cannot handle graphs of the sizes we have considered". When the whole
``n × n`` matrix *does* fit on the device, the in-core blocked FW is the
right tool: one upload, an on-device blocked Floyd–Warshall, one download —
no per-iteration streaming at all.

:func:`fits_in_core` is the planning predicate; :func:`incore_apsp` the
driver; ``solve_apsp(..., algorithm="auto")`` does **not** consider it (the
paper's selector targets out-of-core sizes), but users with mixed workloads
can dispatch on :func:`fits_in_core` themselves — see the crossover
benchmark ``benchmarks/test_ext_incore_crossover.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.minplus import DIST_DTYPE
from repro.core.result import APSPResult
from repro.core.tiling import HostStore
from repro.gpu.device import Device, DeviceSpec
from repro.gpu.executor import DeviceEmitter

__all__ = ["fits_in_core", "incore_apsp"]

_ELEM = np.dtype(DIST_DTYPE).itemsize


def fits_in_core(n: int, spec: DeviceSpec, *, headroom: float = 0.9) -> bool:
    """True when the full ``n×n`` distance matrix fits in device memory
    (with ``headroom`` slack for the kernel's working state)."""
    return n * n * _ELEM <= headroom * spec.memory_bytes


def incore_apsp(
    graph,
    device: Device,
    *,
    store_mode: str = "ram",
    store_dir=None,
    engine=None,
) -> APSPResult:
    """Solve APSP fully on-device (raises ``OutOfMemoryError`` when the
    matrix does not fit — use the out-of-core drivers then). ``engine``
    overrides the process-wide kernel engine for the host-side FW."""
    n = graph.num_vertices
    if engine is None:
        from repro.core.engine import default_engine

        engine = default_engine()
    host = HostStore.from_graph(graph, mode=store_mode, directory=store_dir)
    device.reset_clock()

    def close(reads, writes, _):
        engine.fw_inplace(writes[0])

    ex = DeviceEmitter(device, host=lambda key: host.data, kernels={"fw_incore": close})
    with device.memory.cleanup_on_error():
        dist = ex.alloc("dist", (n, n))
        ex.h2d(dist, key=("dist",))
        ex.kernel("fw_incore", reads=(dist,), writes=(dist,))
        ex.d2h(dist, key=("dist",))
        ex.free(dist)
    elapsed = device.synchronize()
    host.flush()

    from repro.core.ooc_fw import transfer_stats

    return APSPResult(
        algorithm="floyd-warshall-incore",
        store=host,
        simulated_seconds=elapsed,
        stats={"in_core": True, "kernel_backend": engine.describe(), **transfer_stats(device)},
    )
