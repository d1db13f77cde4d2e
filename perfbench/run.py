"""Wall-clock benchmark of the APSP pipeline and query service.

Run from the repository root::

    python3 perfbench/run.py --workload auto-road --seed 1 --seconds 20 --trace 0

Workloads: ``auto-road``, ``fw-rmat``, ``serve-rows``, ``serve-patch``
(see ``perfbench/workloads.py``). The program is imported from ``src/``
next to this directory; compiled kernels are cached under
``.bench_build/`` and temporary files live there too, so a run reads and
writes nothing outside the checkout.

Output: a human-readable table, a ``meta`` line, then — as the last line —
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones, and every span is written to
``.bench_build/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(rows: dict[str, tuple[float, str]]) -> str:
    width = max(len(name) for name in rows)
    return "\n".join(
        f"  {name:<{width}}  {value:>16.6g} {unit}" for name, (value, unit) in rows.items()
    )


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # compiled kernels are cached inside the checkout, not in the home directory
    os.environ["REPRO_JIT_CACHE"] = str(BUILD / "jit")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    run = harness.run_benchmark(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), build_dir=BUILD,
    )
    summary = {
        **harness.end_to_end(run),
        **harness.wall(run),
        "sim_s": (harness.sim_seconds(run), "s"),
        "error_rate": (harness.error_rate(run), "ratio"),
    }
    print(f"{run.workload} seed={run.seed}: {len(run.ops)} measured ops after a warm-up op"
          f"{' (then replayed traced)' if args.trace else ''}; "
          f"error_rate over all {run.attempted} ops")
    print(_table(summary))
    print("  op ms: " + " ".join(f"{op.seconds * 1000:.0f}" for op in run.ops))
    print("  speed: " + " ".join(f"{op.speed:.3f}" for op in run.warmups[:1] + run.ops))
    metrics = harness.end_to_end(run)
    if args.trace:
        metrics = harness.per_layer(run)
        print("per layer, per traced op:")
        print(_table(metrics))
        print("  traced op ms: " + " ".join(f"{op.seconds * 1000:.0f}" for op in run.traced))
        run.tracer.dump(BUILD / "trace" / f"{run.workload}-seed{run.seed}.json", run.meta)
    print("meta " + json.dumps(run.meta, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
