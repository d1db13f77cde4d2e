"""Static analysis for the simulated GPU runtime and the repository.

Two halves (see ``docs/STATIC_ANALYSIS.md``):

* the **schedule sanitizer** (:mod:`repro.sanitize.sanitizer`) — a
  ``compute-sanitizer --tool racecheck`` analogue for the simulated
  device: it builds a happens-before graph over every stream operation,
  event edge, and host synchronisation, then reports cross-stream races
  on overlapping buffer regions, use-after-free, and uninitialized device
  reads. Enable with ``Device(sanitize=True)`` or
  ``python -m repro sanitize <driver>``;
* the **repo lint pass** (:mod:`repro.sanitize.lint`) — an AST checker
  for repository-specific contracts (engine-bypassing min-plus, float64
  operands at engine call sites, wall-clock timing in benchmarks, mutable
  default arguments, missing ``__all__``, untracked kernel launches). Run
  with ``python -m repro lint``.

The *static* counterpart of the sanitizer — proving the same schedule
properties from a symbolic plan before anything runs — lives in
:mod:`repro.verifyplan` (``python -m repro verify-plan``). Both order ops
with one vector clock, :mod:`repro.gpu.ordering`; each keeps its own
input (the executed numpy views here, the plan's rectangles there).
"""

from repro.sanitize.hazards import Hazard, HazardReport
from repro.sanitize.lint import Violation, format_violations, lint_file, lint_paths
from repro.sanitize.runner import DRIVER_NAMES, sanitize_driver
from repro.sanitize.sanitizer import ScheduleSanitizer

__all__ = [
    "DRIVER_NAMES",
    "Hazard",
    "HazardReport",
    "ScheduleSanitizer",
    "Violation",
    "format_violations",
    "lint_file",
    "lint_paths",
    "sanitize_driver",
]
