"""Run a driver's schedule on the simulated device.

Each out-of-core driver (and each dynamic patch pass, service batch and
in-core solve) writes its schedule once, as calls on an emitter with
:class:`~repro.verifyplan.ir.IREmitter`'s method set. ``emit_*_ir`` runs
it into an ``IREmitter``; the driver runs the same schedule into a
:class:`DeviceEmitter`, which performs each call on a
:class:`~repro.gpu.device.Device`:

* ``(buffer, Rect)`` operands become numpy views of the device array;
* copies go to the named stream (created on first use), synchronous,
  asynchronous or strided as declared, with the driver's ``host(key)``
  array as the pinned host side;
* a kernel runs the driver's numerics for its name, then launches for
  the emitted ``cost``, else the seconds the numerics return
  (data-dependent kernels), else :func:`repro.gpu.kernels.launch_seconds`
  of its operands; an ``annotate`` kernel runs its numerics and launches
  nothing;
* ``record``/``wait`` use real :class:`~repro.gpu.stream.Event` objects and
  ``barrier`` calls the driver's fleet barrier.

So every static proof over the emitted IR holds for the schedule that
actually runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.gpu.kernels import launch_seconds
from repro.gpu.memory import DeviceArray
from repro.gpu.stream import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Device

__all__ = ["DeviceEmitter", "Numerics", "operand_view"]

#: host numerics of one kernel: ``(reads, writes, host data of its key)``
#: views in, modelled seconds out when the cost is data-dependent
Numerics = Callable[[list, list, Any], "float | None"]


def operand_view(operand) -> np.ndarray:
    """The numpy view an emitter operand names: a whole buffer, or the
    ``Rect`` of a ``(buffer, rect)`` pair (rows only, for 1-D buffers).
    A buffer is a :class:`~repro.gpu.memory.DeviceArray` or a host array."""
    buf, r = operand if isinstance(operand, tuple) else (operand, None)
    data = buf if isinstance(buf, np.ndarray) else buf.data
    if r is None:
        return data
    if data.ndim == 1:
        return data[r.r0 : r.r1]
    return data[r.r0 : r.r1, r.c0 : r.c1]


class DeviceEmitter:
    """Performs a schedule generator's emitter calls on one device.

    ``host(key)`` returns the host array a copy (or a keyed kernel)
    touches; ``kernels`` maps kernel names to their :data:`Numerics`;
    ``barrier()`` synchronises the fleet (multi-GPU only).
    """

    def __init__(
        self,
        device: "Device",
        *,
        host: Callable[[tuple], np.ndarray],
        kernels: Mapping[str, Numerics],
        barrier: Callable[[], object] | None = None,
    ) -> None:
        self.device = device
        self._host = host
        self._kernels = kernels
        self._barrier = barrier
    def alloc(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        *,
        dtype=np.float32,
        charged_bytes: int | None = None,
    ) -> DeviceArray:
        return self.device.memory.alloc(
            shape, dtype, name=name, charged_bytes=charged_bytes
        )

    def free(self, buf: DeviceArray) -> None:
        buf.free()

    def h2d(self, buf: DeviceArray, rect=None, *, key: tuple,
            stream: str = "default", sync: bool = True) -> None:
        dst = operand_view(buf if rect is None else (buf, rect))
        s = self.device.create_stream(stream)
        if sync:
            s.copy_h2d(dst, self._host(key), pinned=True)
        else:
            s.copy_h2d_async(dst, self._host(key), pinned=True)

    def d2h(self, buf: DeviceArray, rect=None, *, key: tuple, stream: str = "default",
            sync: bool = True, strided: bool = False) -> None:
        src = operand_view(buf if rect is None else (buf, rect))
        s = self.device.create_stream(stream)
        if strided:
            s.copy_d2h_2d(self._host(key), src, pinned=True, sync=sync)
        elif sync:
            s.copy_d2h(self._host(key), src, pinned=True)
        else:
            s.copy_d2h_async(self._host(key), src, pinned=True)

    def kernel(
        self,
        name: str,
        *,
        reads: tuple = (),
        writes: tuple = (),
        stream: str = "default",
        annotate: bool = False,
        cost: float | None = None,
        key: tuple | None = None,
    ) -> None:
        rviews = [operand_view(r) for r in reads]
        wviews = [operand_view(w) for w in writes]
        numerics = self._kernels.get(name)
        seconds: float | None = None
        if numerics is not None:
            seconds = numerics(rviews, wviews, None if key is None else self._host(key))
        if annotate:
            return
        if cost is None:
            cost = seconds
        if cost is None:
            cost = launch_seconds(
                name, self.device.spec, reads, writes, lambda op: operand_view(op).shape
            )
        self.device.create_stream(stream).launch(name, cost)

    def record(self, name: str, *, stream: str = "default") -> Event:
        return self.device.create_stream(stream).record(Event(name))

    def wait(self, event: Event, *, stream: str = "default") -> None:
        self.device.create_stream(stream).wait(event)

    def barrier(self, label: str) -> None:
        if self._barrier is None:
            raise ValueError(f"barrier {label!r} needs a fleet barrier callback")
        self._barrier()
