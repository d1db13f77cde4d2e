"""Device specifications and the :class:`Device` facade.

:class:`DeviceSpec` collects the constants the performance model needs. The
two presets mirror the paper's Table II hardware, with effective rates
back-calculated from the paper's measurements:

* PCIe throughput — measured by the authors with ``nvprof``: 11.75 GB/s
  (V100) and 7.23 GB/s (K80), Section V-E;
* ``minplus_rate`` — effective min-plus ops/s of the tiled FW kernels,
  calibrated from Table VI (blocked FW on n = 80,000 takes ≈170 s, i.e.
  :math:`n^3 / 170 \\approx 3\\times10^{12}` ops/s on V100);
* ``relax_rate`` — effective edge relaxations/s of the Near-Far MSSP kernel,
  calibrated from Table VI's Johnson column;
* ``max_active_blocks`` — the occupancy ceiling that motivates the dynamic
  parallelism optimisation (Section III-B).

:meth:`DeviceSpec.scaled` produces a *scaled-down* device for running the
paper's experiments at reduced graph sizes: memory scales with ``s²`` (the
distance matrix is ``n²`` bytes) and compute rates with ``s``, so that the
compute/transfer balance at scaled ``n' = s·n`` equals the paper's balance
at full ``n``; per-copy latency stays at its physical value (see the method
docstring for the rationale per constant). See also DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.gpu.errors import TransientDeviceError
from repro.gpu.memory import DeviceMemory
from repro.gpu.stream import Stream
from repro.gpu.timeline import Clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import RetryPolicy

_T = TypeVar("_T")

__all__ = ["Device", "DeviceSpec", "V100", "K80", "TEST_DEVICE"]


@dataclass(frozen=True)
class DeviceSpec:
    """Constants describing one (simulated) GPU."""

    name: str
    memory_bytes: int
    #: effective min-plus / FW tile throughput, scalar ops per second
    minplus_rate: float
    #: effective Near-Far edge-relaxation throughput at full occupancy
    relax_rate: float
    #: device memory bandwidth, bytes/s (roofline memory term)
    mem_bandwidth: float
    #: PCIe copy throughput, bytes/s (paper's measured TH)
    transfer_throughput: float
    #: fixed per-copy latency, seconds (driver + DMA setup) — this is what
    #: makes many small transfers slow and batching profitable (Fig 8)
    transfer_latency: float
    #: per-row DMA segment setup in strided (cudaMemcpy2D-style) copies;
    #: see :func:`repro.gpu.transfer.copy_duration_2d`
    row_transfer_overhead: float = 1.2e-6
    #: pageable-host derating factor for non-pinned copies
    pageable_factor: float = 0.55
    #: kernel launch overhead, seconds
    kernel_launch_overhead: float = 5e-6
    #: extra overhead of launching a dynamic-parallelism child kernel
    child_kernel_overhead: float = 12e-6
    #: maximum concurrently active thread blocks (occupancy ceiling)
    max_active_blocks: int = 2560
    #: fraction of max_active_blocks at which a memory-bound MSSP kernel
    #: saturates device throughput; below it, throughput falls linearly
    occupancy_saturation: float = 0.15
    #: per-bucket-iteration synchronisation cost of the MSSP kernel
    sync_overhead: float = 2e-6
    #: charge factor for O(m)-sized device allocations (CSR arrays, SSSP
    #: worklists). Graph bytes scale with s while device memory scales with
    #: s², so a scaled device charges sparse structures at s× their real
    #: bytes to preserve the paper's graph-size/device-memory ratio — and
    #: with it the Johnson batch size bat = (L − S)/(c·m).
    sparse_charge_factor: float = 1.0

    def scaled(
        self,
        s: float,
        *,
        transfer_exponent: float = 1.0,
        relax_exponent: float = 1.0,
    ) -> "DeviceSpec":
        """Scale the device for experiments at ``n' = s·n`` (see module doc).

        Baseline rules:

        * memory ∝ s² — dense matrix bytes are ``n²·W``, so block counts
          ``n_d``, batch counts ``n_b`` and component counts ``k`` stay in
          the paper's regime;
        * compute rates ∝ s and PCIe throughput ∝ s^``transfer_exponent``
          (default 1) — with both at ``s``, every cross-device and
          compute/transfer *ratio* whose work terms share an exponent is
          preserved (Johnson vs CPU, Johnson vs boundary, FW
          compute-dominance, Table V's stable ``n·m/s``);
        * per-copy latency and per-row DMA overhead unchanged — they are
          driver/DMA properties, not problem-size properties;
        * kernel launch / sync / child-kernel overheads ∝ s;
        * occupancy ceiling unchanged — Johnson batch sizes are
          scale-invariant under the sparse charge rule (bat = s²L/(s²·c·m·W)),
          so keeping ``max_active_blocks`` physical preserves the
          batch-size/occupancy balance;
        * O(m)-class allocations charged at s× real bytes
          (``sparse_charge_factor``) — graph bytes scale with s while device
          memory scales with s², and the paper's ``bat = (L−S)/(c·m)`` only
          survives scaling if the S/L ratio does.

        Because the three algorithms' work terms scale with different
        exponents (n³ FW, n·m Johnson, ~n^2.25 boundary), no single scaling
        preserves *every* paper ratio at once; the exponent knobs select the
        experiment's operating point (see EXPERIMENTS.md "device profiles"):

        * ``transfer_exponent=0`` ("transfer profile", Fig 8): keeps the
          physical PCIe speed so the boundary algorithm's small strided
          transfers sit in the same latency-bound regime as the paper's —
          the regime its batching optimisation attacks;
        * ``relax_exponent=0.5`` ("crossover profile", Table VI): positions
          the FW/Johnson crossover at the paper's average-degree operating
          point despite FW's n³ shrinking faster than Johnson's n·m.
        """
        if not 0 < s <= 1:
            raise ValueError("scale must be in (0, 1]")
        return replace(
            self,
            name=f"{self.name}@{s:g}",
            memory_bytes=max(1, int(self.memory_bytes * s * s)),
            minplus_rate=self.minplus_rate * s,
            relax_rate=self.relax_rate * s**relax_exponent,
            mem_bandwidth=self.mem_bandwidth * s,
            transfer_throughput=self.transfer_throughput * s**transfer_exponent,
            kernel_launch_overhead=self.kernel_launch_overhead * s,
            child_kernel_overhead=self.child_kernel_overhead * s,
            sync_overhead=self.sync_overhead * s,
            sparse_charge_factor=self.sparse_charge_factor * s,
        )


#: NVIDIA Tesla V100 (paper Table II): 16 GB HBM2, 900 GB/s, PCIe measured
#: at 11.75 GB/s. Effective kernel rates calibrated from Table VI.
V100 = DeviceSpec(
    name="V100",
    memory_bytes=16 * 1024**3,
    minplus_rate=3.0e12,
    relax_rate=1.9e9,
    mem_bandwidth=900e9,
    transfer_throughput=11.75e9,
    transfer_latency=12e-6,
    row_transfer_overhead=1.2e-6,
    max_active_blocks=2560,
)

#: NVIDIA Tesla K80 (one GK210 die, paper Table II): 12 GB GDDR5, 240 GB/s,
#: PCIe measured at 7.23 GB/s. Rates ≈5× below V100, matching Fig 7 vs Fig 6.
K80 = DeviceSpec(
    name="K80",
    memory_bytes=12 * 1024**3,
    minplus_rate=5.5e11,
    relax_rate=3.8e8,
    mem_bandwidth=240e9,
    transfer_throughput=7.23e9,
    transfer_latency=18e-6,
    row_transfer_overhead=2.5e-6,
    max_active_blocks=832,
)

#: A deliberately tiny device for unit tests: a few hundred KB of memory so
#: even n≈100 graphs go out-of-core, with fast rates so simulated numbers
#: stay readable.
TEST_DEVICE = DeviceSpec(
    name="test-gpu",
    memory_bytes=512 * 1024,
    minplus_rate=1e9,
    relax_rate=1e6,
    mem_bandwidth=1e9,
    transfer_throughput=1e8,
    transfer_latency=1e-5,
    row_transfer_overhead=2e-6,
    kernel_launch_overhead=1e-6,
    child_kernel_overhead=3e-6,
    max_active_blocks=16,
    sync_overhead=1e-6,
)


class Device:
    """A simulated GPU: spec + memory pool + clock + streams.

    Its :class:`~repro.gpu.timeline.Clock` times every stream operation.
    The host ready time models the CPU thread driving the device:
    synchronous operations block it, asynchronous ones only charge the launch
    overhead, which is how overlap pays off.

    The drivers run on it the schedules they emit as IR, so the static
    audit of :mod:`repro.verifyplan` (residency, def-use, use-after-free
    and happens-before in every interleaving) covers what a device runs.

    With ``faults=`` set to a :class:`~repro.faults.FaultPlan`, every
    guarded operation (copies, kernel launches, allocations) consults the
    plan before executing; injected
    :class:`~repro.gpu.errors.TransientDeviceError` failures are retried
    under ``retry`` (a :class:`~repro.faults.RetryPolicy`) with capped
    exponential backoff charged to the clock's ``"host"`` engine.
    :attr:`fault_report` tallies injections, retries and backoff.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        *,
        record_trace: bool = True,
        faults: "FaultPlan | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        from repro.faults.retry import FaultReport, RetryPolicy

        self.spec = spec
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_report = FaultReport()
        self.memory = DeviceMemory(spec.memory_bytes)
        self.memory.guard = self.run_guarded
        self.clock = Clock(record_trace=record_trace)
        self._streams: dict[str, Stream] = {}
        self.default_stream = self.create_stream("default")

    def create_stream(self, name: str = "") -> Stream:
        """The stream called ``name`` (a fresh ``streamN`` when unnamed),
        created on first use: a stream is a named lane of the clock."""
        name = name or f"stream{len(self._streams) + 1}"
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = Stream(self, name)
        return stream

    @property
    def host_ready(self) -> float:
        """When the simulated host thread is next free."""
        return self.clock.host_ready

    def synchronize(self) -> float:
        """Block the host until all device work completes; returns the
        simulated wall-clock time at that point."""
        return self.clock.synchronize()

    @property
    def elapsed(self) -> float:
        """Current simulated time (host view, without forcing a sync)."""
        return self.clock.elapsed

    def reset_clock(self) -> None:
        """Zero the clock and its trace (every stream's too) but keep memory
        contents. Used between calibration runs and measured runs. Also
        starts a fresh :attr:`fault_report` and rewinds the fault plan's
        attempt counters, so plan ordinals are relative to the current run."""
        from repro.faults.retry import FaultReport

        self.clock.reset()
        self.fault_report = FaultReport()
        if self.faults is not None:
            self.faults.reset()

    # ------------------------------------------------------------------
    # Fault injection and recovery
    # ------------------------------------------------------------------
    def run_guarded(
        self,
        site: str,
        name: str,
        body: "Callable[[], _T]",
        on_fault: "Callable[[TransientDeviceError], None] | None" = None,
    ) -> _T:
        """Run ``body`` under the device's fault plan with bounded retry.

        Each attempt first consults the plan (which may raise a
        :class:`~repro.gpu.errors.TransientDeviceError` subclass). On a
        fault, ``on_fault`` charges the aborted attempt's cost to the
        clock, then backoff per :attr:`retry` occupies the ``"host"``
        engine before the next attempt; once ``retry.max_attempts`` is
        spent the error propagates. With no fault plan this is exactly
        ``body()`` — zero overhead on the fault-free path.
        """
        if self.faults is None:
            return body()
        attempt = 1
        while True:
            try:
                self.faults.check(site, name)
            except TransientDeviceError as exc:
                self.fault_report.count_injected(site)
                if on_fault is not None:
                    on_fault(exc)
                if attempt >= self.retry.max_attempts:
                    self.fault_report.exhausted += 1
                    raise
                self.fault_report.retried += 1
                self._charge_backoff(self.retry.delay(attempt), site=site, name=name)
                attempt += 1
                continue
            return body()

    def _charge_backoff(self, delay: float, *, site: str, name: str) -> None:
        """Occupy the host for ``delay`` seconds of retry backoff."""
        self.clock.stall_host(delay, name=f"backoff:{site}:{name}")
        self.fault_report.backoff_seconds += delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Device({self.spec.name}, mem={self.memory.used}/"
            f"{self.memory.capacity}B, t={self.elapsed:.6f}s)"
        )
