"""Import the program from ``src/`` and cache compiled kernels inside the
checkout, as ``perfbench/run.py`` does."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
os.environ.setdefault("REPRO_JIT_CACHE", str(ROOT / ".bench_build" / "jit"))
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
