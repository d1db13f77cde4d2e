"""CUDA-like streams and events for the simulated device.

A :class:`Stream` is an ordered queue of operations: a named lane of the
device's :class:`~repro.gpu.timeline.Clock`. Each operation performs its
numpy work, then makes the clock call that times it. Operations on the same
stream serialise; operations on different streams may overlap subject to
engine availability (one compute engine, one copy engine per direction).
:class:`Event` gives cross-stream ordering, which the double-buffered
boundary algorithm uses to hand buffers between its compute and copy
streams.

Copies come in synchronous (`copy_*`, blocks the simulated host thread, like
``cudaMemcpy``) and asynchronous (`copy_*_async`, like ``cudaMemcpyAsync``)
flavours; kernels are always asynchronous, charging only their launch
overhead to the host clock.

Which accesses these operations order is proven before anything runs:
the drivers emit the same schedule as IR, and
:func:`repro.verifyplan.hb.analyze_hb` checks its stream, event and host
edges in every interleaving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.gpu.memory import DeviceArray, HostBuffer
from repro.gpu.transfer import (
    aborted_copy_duration,
    copy_duration,
    copy_duration_2d,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Device
    from repro.gpu.timeline import ClockOp

__all__ = ["Event", "Stream"]


class Event:
    """Marks a point in a stream's execution (``cudaEvent`` analogue).

    ``time`` is the recorded point and ``op`` the clock op that set it.
    """

    __slots__ = ("name", "time", "op")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.time = 0.0
        self.op: "ClockOp | None" = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event({self.name!r}, t={self.time:.6f})"


def _as_host_array(host: "HostBuffer | np.ndarray", pinned: bool | None) -> tuple[np.ndarray, bool]:
    if isinstance(host, HostBuffer):
        return host.data, host.pinned if pinned is None else pinned
    # bare numpy arrays default to pageable host memory
    return host, False if pinned is None else pinned


def _as_device_array(dev: "DeviceArray | np.ndarray") -> np.ndarray:
    return dev.data if isinstance(dev, DeviceArray) else dev


class Stream:
    """One in-order operation queue on a :class:`~repro.gpu.device.Device`."""

    def __init__(self, device: "Device", name: str) -> None:
        self.device = device
        self.name = name

    @property
    def ready_at(self) -> float:
        """When the stream's queued work completes."""
        return self.device.clock.stream_ready(self.name)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def launch(self, name: str, duration: float) -> None:
        """Enqueue a kernel with a pre-computed duration (asynchronous).

        The host pays only the launch overhead; the kernel runs on the
        compute engine when the stream and engine are free.
        """
        device = self.device

        def body() -> None:
            device.clock.launch(
                self.name, name, duration, overhead=device.spec.kernel_launch_overhead
            )

        device.run_guarded("kernel", name, body, on_fault=self._abort_launch)

    def _abort_launch(self, exc) -> None:
        """Charge one failed launch attempt: the overhead is spent, the
        kernel never reaches the compute engine."""
        self.device.clock.advance_host(self.device.spec.kernel_launch_overhead)

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def _transfer(self, engine: str, name: str, dst: DeviceArray | np.ndarray,
                  src: DeviceArray | np.ndarray, nbytes: int, pinned: bool, *, sync: bool,
                  duration: float | None = None) -> None:
        """One guarded copy ``dst[...] = src`` of ``nbytes`` host bytes on
        ``engine``, timed by the clock's copy rule (contiguous cost unless
        ``duration`` is given)."""
        spec = self.device.spec
        if duration is None:
            duration = copy_duration(spec, nbytes, pinned=pinned)

        def body() -> None:
            _as_device_array(dst)[...] = _as_device_array(src)
            self.device.clock.copy(
                engine, self.name, name, duration, nbytes=nbytes, sync=sync,
                overhead=spec.kernel_launch_overhead,
            )

        self.device.run_guarded(
            engine, name, body, on_fault=self._abort_copy(engine, name, nbytes, pinned)
        )

    def _abort_copy(self, engine: str, name: str, nbytes: int, pinned: bool):
        """``on_fault`` handler for a guarded copy: the aborted attempt
        occupies its copy engine for latency plus the delivered prefix
        (``TransferError.progress``), charged with ``nbytes=0`` so byte
        statistics count delivered data only. Detecting the failure
        synchronises the host with the abort."""

        def on_fault(exc) -> None:
            fraction = float(getattr(exc, "progress", 0.0))
            duration = aborted_copy_duration(
                self.device.spec, nbytes, fraction, pinned=pinned
            )
            self.device.clock.copy(engine, self.name, f"{name}!abort", duration)

        return on_fault

    def copy_h2d(
        self,
        dst: DeviceArray | np.ndarray,
        src: HostBuffer | np.ndarray,
        *,
        name: str = "h2d",
        pinned: bool | None = None,
    ) -> None:
        """Synchronous host→device copy (``cudaMemcpy`` semantics).

        ``dst`` may be a :class:`DeviceArray` or a numpy view into one;
        ``pinned`` overrides the host-side pinned-ness (bare arrays default
        to pageable, :class:`HostBuffer` carries its own flag).
        """
        data, pin = _as_host_array(src, pinned)
        self._transfer("h2d", name, dst, data, data.nbytes, pin, sync=True)

    def copy_h2d_async(
        self,
        dst: DeviceArray | np.ndarray,
        src: HostBuffer | np.ndarray,
        *,
        name: str = "h2d",
        pinned: bool | None = None,
    ) -> None:
        """Asynchronous host→device copy; pinned sources get full speed."""
        data, pin = _as_host_array(src, pinned)
        self._transfer("h2d", name, dst, data, data.nbytes, pin, sync=False)

    def copy_d2h(
        self,
        dst: HostBuffer | np.ndarray,
        src: DeviceArray | np.ndarray,
        *,
        name: str = "d2h",
        pinned: bool | None = None,
    ) -> None:
        """Synchronous device→host copy."""
        data, pin = _as_host_array(dst, pinned)
        self._transfer("d2h", name, data, src, data.nbytes, pin, sync=True)

    def copy_d2h_async(
        self,
        dst: HostBuffer | np.ndarray,
        src: DeviceArray | np.ndarray,
        *,
        name: str = "d2h",
        pinned: bool | None = None,
    ) -> None:
        """Asynchronous device→host copy."""
        data, pin = _as_host_array(dst, pinned)
        self._transfer("d2h", name, data, src, data.nbytes, pin, sync=False)

    def copy_d2h_2d(
        self,
        dst: HostBuffer | np.ndarray,
        src: DeviceArray | np.ndarray,
        *,
        name: str = "d2h2d",
        pinned: bool | None = None,
        sync: bool = True,
    ) -> None:
        """Strided device→host copy (``cudaMemcpy2D`` semantics).

        The destination is a 2-D view whose rows are non-contiguous in host
        memory (e.g. a block of the n×n distance matrix); each row is a DMA
        segment paying ``row_transfer_overhead``. This is the slow path the
        boundary algorithm's transfer batching replaces with contiguous
        strip copies.
        """
        data, pin = _as_host_array(dst, pinned)
        if data.ndim != 2:
            raise ValueError("copy_d2h_2d needs a 2-D destination")
        duration = copy_duration_2d(
            self.device.spec, data.shape[0], data.shape[1] * data.itemsize, pinned=pin
        )
        self._transfer("d2h", name, data, src, data.nbytes, pin, sync=sync,
                       duration=duration)

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def record(self, event: Event) -> Event:
        """Record ``event`` at the stream's current completion point."""
        event.time, event.op = self.device.clock.record(self.name)
        return event

    def wait(self, event: Event) -> None:
        """Make subsequent work on this stream wait for ``event``."""
        self.device.clock.wait(self.name, (event.time, event.op))

    def synchronize(self) -> float:
        """Block the host until this stream's queued work completes."""
        return self.device.clock.sync_stream(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Stream({self.name!r}, ready_at={self.ready_at:.6f})"
