"""Simulated multicore CPU executor.

The paper compares its out-of-core GPU implementations against CPU
baselines; to put both on a coherent time base (DESIGN.md §2), CPU baseline
times are produced by the same recipe as GPU times: real algorithm
executions supply operation counts, and a machine model with calibrated
per-operation rates converts counts to simulated seconds.

Two machine presets mirror the paper's hardware:

* :data:`XEON_E5_2680` — the 14-core/28-thread Ivy Bridge host of the
  paper's own BGL-plus runs (Section V-A);
* :data:`HASWELL_32` — the dual-socket 32-core/64-thread machine on which
  SuperFW's and Galois's numbers were reported (Section V-C).
"""

from repro.cpumodel.model import HASWELL_32, XEON_E5_2680, CpuSpec

__all__ = [
    "CpuSpec",
    "HASWELL_32",
    "XEON_E5_2680",
]
