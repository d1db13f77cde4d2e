"""Simulated GPU substrate.

The paper runs on NVIDIA V100/K80 devices; this environment has no GPU, so
``repro.gpu`` provides a discrete-event *model* of one. The model captures
exactly the mechanisms the paper's out-of-core design interacts with:

* a **device memory allocator** with a hard capacity
  (:class:`~repro.gpu.memory.DeviceMemory`) — block sizes, batch sizes and
  component counts are all derived from it, as in the paper;
* **copy engines** with throughput + per-call latency
  (:mod:`~repro.gpu.transfer`) — one H2D engine and one D2H engine, so
  transfers in one direction serialise but overlap with compute, as on real
  hardware; pinned host memory gets full throughput;
* **CUDA-like streams and events** (:mod:`~repro.gpu.stream`) scheduled on
  the device's :class:`~repro.gpu.timeline.Clock`, so double-buffered
  overlap genuinely shortens the simulated makespan;
* **kernel cost models** (:mod:`~repro.gpu.kernels`) — roofline-style costs
  with launch overheads, an occupancy model for batched MSSP (active thread
  blocks vs. the device limit), and dynamic-parallelism child-kernel
  overheads.

The algorithm layer (:mod:`repro.core`, :mod:`repro.sssp`) performs the real
numeric work in numpy on the device arrays and charges these modelled costs
to a stream, so algorithm correctness and the performance study share one
code path. Simulated clocks are deterministic.
"""

from repro.gpu.device import K80, V100, Device, DeviceSpec, TEST_DEVICE
from repro.gpu.errors import DeviceError, OutOfMemoryError
from repro.gpu.memory import DeviceArray, DeviceMemory, HostBuffer
from repro.gpu.stream import Event, Stream
from repro.gpu.timeline import Clock, ClockOp, TimingReport, timing_report

__all__ = [
    "Clock",
    "ClockOp",
    "Device",
    "DeviceArray",
    "DeviceError",
    "DeviceMemory",
    "DeviceSpec",
    "Event",
    "HostBuffer",
    "K80",
    "OutOfMemoryError",
    "Stream",
    "TEST_DEVICE",
    "TimingReport",
    "V100",
    "timing_report",
]
