"""Chrome trace export of the device's recorded schedule.

:func:`export_chrome_trace` writes the Chrome tracing JSON format
(``chrome://tracing`` / Perfetto), one row per engine, so a simulated
schedule can be inspected visually like a real profiler capture. For the
numbers (makespan, per-engine busy, overlap efficiency, critical path),
build a :class:`~repro.gpu.timeline.TimingReport` from ``device.clock``
with :func:`~repro.gpu.timeline.timing_report`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.gpu.device import Device

__all__ = ["export_chrome_trace"]


def export_chrome_trace(device: Device, path: str | Path) -> Path:
    """Write the schedule as Chrome tracing JSON; returns the path."""
    clock = device.clock
    events = []
    # ``busy`` holds every engine of the clock, in creation order
    pids = {name: i for i, name in enumerate(clock.busy)}
    for name, pid in pids.items():
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": f"engine:{name}"}}
        )
    for op in clock.ops:
        events.append(
            {
                "name": op.name or op.engine,
                "cat": op.engine,
                "ph": "X",
                "pid": pids[op.engine],
                "tid": 0,
                "ts": op.start * 1e6,  # microseconds
                "dur": op.duration * 1e6,
                "args": {"stream": op.stream, "nbytes": op.nbytes},
            }
        )
    path = Path(path)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return path
