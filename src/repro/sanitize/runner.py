"""Run the schedule sanitizer over the out-of-core drivers.

One entry point, :func:`sanitize_driver`, builds a sanitized device (or
two, for the multi-GPU driver), runs the named driver on a graph, and
returns the merged :class:`~repro.sanitize.hazards.HazardReport` together
with the driver's :class:`~repro.core.result.APSPResult`. This is what
``python -m repro sanitize`` and the sanitizer test-suite share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sanitize.hazards import HazardReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import APSPResult
    from repro.gpu.device import DeviceSpec

__all__ = ["DRIVER_NAMES", "sanitize_driver"]

#: drivers the sanitizer knows how to exercise
DRIVER_NAMES = ("fw", "boundary", "johnson", "multi-gpu")


def sanitize_driver(
    name: str,
    graph,
    spec: "DeviceSpec",
    *,
    num_devices: int = 2,
    engine=None,
    faults=None,
    retry=None,
    **driver_kwargs,
) -> tuple[HazardReport, "APSPResult"]:
    """Run driver ``name`` under ``Device(sanitize=True)``.

    Returns ``(report, result)``; for ``multi-gpu`` the report is the merge
    of every device's individual report. Extra keyword arguments are passed
    through to the driver (e.g. ``overlap=False``). ``faults``/``retry``
    instrument the sanitized device(s) with a
    :class:`~repro.faults.FaultPlan`, proving the retry/abort recovery
    paths hazard-free (for ``multi-gpu`` the plan is attached to device 0).
    """
    from repro.gpu.device import Device

    if name not in DRIVER_NAMES:
        raise ValueError(f"unknown driver {name!r}; choose from {DRIVER_NAMES}")
    if name == "multi-gpu":
        from repro.core.multi_gpu import ooc_boundary_multi

        if num_devices < 1:
            raise ValueError(f"need at least one device, got num_devices={num_devices}")
        devices = [
            Device(spec, sanitize=True, faults=faults if d == 0 else None, retry=retry)
            for d in range(num_devices)
        ]
        result = ooc_boundary_multi(graph, devices, **driver_kwargs)
        report = devices[0].hazard_report()
        for dev in devices[1:]:
            report = report.merged(dev.hazard_report())
        return report, result

    device = Device(spec, sanitize=True, faults=faults, retry=retry)
    if name == "fw":
        from repro.core.ooc_fw import ooc_floyd_warshall

        result = ooc_floyd_warshall(graph, device, engine=engine, **driver_kwargs)
    elif name == "boundary":
        from repro.core.ooc_boundary import ooc_boundary

        result = ooc_boundary(graph, device, engine=engine, **driver_kwargs)
    else:
        from repro.core.ooc_johnson import ooc_johnson

        result = ooc_johnson(graph, device, **driver_kwargs)
    return device.hazard_report(), result
