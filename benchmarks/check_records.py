"""Check the committed benchmark records against a fresh re-run.

Regenerate every modeled record into a scratch directory, then compare::

    REPRO_RESULTS_DIR=/tmp/records python -m pytest -q benchmarks \\
        --ignore=benchmarks/test_kernel_backends.py \\
        --ignore=benchmarks/test_kernel_throughput.py
    python benchmarks/check_records.py /tmp/records

Each committed ``benchmarks/results/*.json`` must equal its fresh copy:
floats within 1e-9 relative, every other field exactly. Skipped: the
wall-clock ``kernels.json``, which only the two ignored kernel
benchmarks (and ``python -m repro bench-kernels``) write. Exits 1 and
names each difference.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"
SKIPPED = {"kernels.json"}
REL_TOL = 1e-9


def diff(committed, fresh, where: str = ""):
    """Yield ``(path, committed, fresh)`` for every field that differs."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(committed.keys() | fresh.keys()):
            yield from diff(committed.get(key), fresh.get(key), f"{where}/{key}")
    elif isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            yield f"{where} (length)", len(committed), len(fresh)
            return
        for i, (a, b) in enumerate(zip(committed, fresh)):
            yield from diff(a, b, f"{where}[{i}]")
    elif type(committed) is float and type(fresh) is float:
        if math.isnan(committed) and math.isnan(fresh):
            return
        if not math.isclose(committed, fresh, rel_tol=REL_TOL, abs_tol=0.0):
            yield where, committed, fresh
    elif committed != fresh or type(committed) is not type(fresh):
        yield where, committed, fresh


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    fresh_dir = Path(argv[0])
    failures = 0
    for path in sorted(RESULTS.glob("*.json")):
        if path.name in SKIPPED:
            continue
        fresh = fresh_dir / path.name
        if not fresh.exists():
            print(f"{path.name}: not regenerated")
            failures += 1
            continue
        found = list(diff(json.loads(path.read_text()), json.loads(fresh.read_text())))
        for where, old, new in found:
            print(f"{path.name}{where}: committed {old!r}, fresh {new!r}")
        failures += bool(found)
    print(f"records: {failures} file(s) differ" if failures else "records: all match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
