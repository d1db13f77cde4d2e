"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``         run out-of-core APSP on a graph file or generator spec
``info``          graph features: density, degrees, separator class (Table III columns)
``select``        run the Section-IV selector and print the report
``suite``         list the paper's evaluation-graph registry
``devices``       list the device presets and their constants
``bench-kernels`` wall-clock sweep of the min-plus kernels, numpy and compiled
``verify-plan``   statically verify the OOC execution plans (no execution):
                  derived parameters, residency and transfer bounds,
                  happens-before and the predicted makespan
``verify-cluster`` cross-node HB + communication-volume proofs for the
                  distributed blocked-FW schedule
``verify-update`` static O(n²) transfer proofs + patch-soundness checks for
                  the dynamic-graph update schedules
``serve``         run the batched/cached/admission-controlled query service
                  over a deterministic workload (``--selftest`` for the
                  differential smoke test)
``lint``          run the repository AST contract checker
``verify-kernels`` static bounds/alias proofs + sanitizer legs for the JIT C kernels
``report``        render ``benchmarks/results/*.json`` to ``RESULTS.md``

The modeled benchmark records (the paper's tables and figures, plus the
transfer-volume, cluster-scaling, dynamic-crossover and serving records)
are written by the files under ``benchmarks/`` and checked by
``benchmarks/check_records.py``, not by a subcommand.

Exit codes (``verify-plan``, ``verify-cluster``, ``verify-update``,
``serve``, ``lint``, ``verify-kernels``):
0 — clean/verified; 1 — findings, failed bounds or checks; 2 — usage
error (argparse, including a device, node or block count below 1).

The three schedule verifiers (``verify-plan``, ``verify-cluster``,
``verify-update``) print one report shape: a header line with the
verdict, then one audit per schedule and the command's named checks.

Every ``--json`` payload carries a top-level ``schema_version`` field
(:data:`SCHEMA_VERSION`) so downstream consumers can detect format
changes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["SCHEMA_VERSION", "main"]

#: version of the machine-readable (--json) output payloads; bump on any
#: backwards-incompatible change to their structure
SCHEMA_VERSION = 3


def _count(text: str) -> int:
    """argparse type of a device, node or block count: an integer ≥ 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_graph(args):
    from repro.graphs.generators import erdos_renyi, planar_like, random_geometric, rmat, road_like
    from repro.graphs.io import read_edge_list, read_matrix_market
    from repro.graphs.suite import get_suite_graph

    if args.graph.endswith((".mtx", ".mtx.gz")):
        return read_matrix_market(args.graph)
    if args.graph.endswith((".txt", ".el", ".edges")):
        return read_edge_list(args.graph)
    kind, _, rest = args.graph.partition(":")
    if kind == "suite":
        return get_suite_graph(rest, args.scale)
    try:
        params = dict(p.split("=", 1) for p in rest.split(",") if p)
    except ValueError:
        params = None
    if params is None or kind not in ("rmat", "road", "planar", "geometric", "er"):
        raise SystemExit(
            f"unrecognised graph spec {args.graph!r}; use a .mtx/.txt path or "
            "suite:<name> | rmat:n=..,m=.. | road:n=..,deg=.. | planar:n=.. | "
            "geometric:n=..,r=..[,dim=3] | er:n=..,m=.."
        )
    n = int(params.get("n", 1000))
    seed = int(params.get("seed", 0))
    if kind == "rmat":
        return rmat(n, int(params.get("m", 8 * n)), seed=seed)
    if kind == "road":
        return road_like(n, float(params.get("deg", 2.6)), seed=seed)
    if kind == "planar":
        return planar_like(n, seed=seed)
    if kind == "geometric":
        return random_geometric(
            n, float(params.get("r", 0.1)), dim=int(params.get("dim", 2)), seed=seed
        )
    return erdos_renyi(n, int(params.get("m", 8 * n)), seed=seed)


def _device_spec(args):
    from repro.gpu.device import K80, TEST_DEVICE, V100

    base = {"v100": V100, "k80": K80, "test": TEST_DEVICE}[args.device]
    return base.scaled(args.scale) if args.scale < 1.0 else base


def _fault_plan(args):
    """Build the ``FaultPlan`` requested on the ``solve`` command line."""
    from repro.faults import FaultPlan

    if args.fault_kill:
        site, _, index = args.fault_kill.partition(":")
        return FaultPlan.kill(site=site, index=int(index or 0))
    if args.fault_count:
        sites = tuple(s for s in args.fault_sites.split(",") if s)
        return FaultPlan.random(args.fault_seed, args.fault_count, sites=sites)
    return None


def _json_scalars(mapping) -> dict:
    """Scalar-only, JSON-safe view of a stats dict (numpy types unboxed)."""
    out = {}
    for key, value in mapping.items():
        if isinstance(value, (np.integer, np.floating, np.bool_)):
            out[key] = value.item()
        elif isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
    return out


def cmd_solve(args) -> int:
    import json

    from repro.core import solve_apsp
    from repro.core.verify import verify_result
    from repro.faults import CheckpointError, RetryPolicy
    from repro.gpu.device import Device
    from repro.gpu.errors import TransientDeviceError

    emit = (lambda *a, **k: None) if args.json else print
    graph = _load_graph(args)
    device = Device(_device_spec(args))
    emit(f"graph:  {graph}")
    emit(f"device: {device.spec.name} ({device.spec.memory_bytes / 2**20:.1f} MiB)")
    retry = RetryPolicy(max_attempts=args.retry_limit) if args.retry_limit else None
    try:
        result = solve_apsp(
            graph,
            algorithm=args.algorithm,
            device=device,
            density_scale=args.scale,
            store_mode="disk" if args.disk else "ram",
            faults=_fault_plan(args),
            retry=retry,
            checkpoint_dir=args.checkpoint_dir or None,
        )
    except (TransientDeviceError, CheckpointError) as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    emit(f"algorithm: {result.algorithm}")
    if "kernel_backend" in result.stats:
        emit(f"kernels: {result.stats['kernel_backend']}")
    emit(f"simulated time: {result.simulated_seconds:.6f}s")
    for key in ("block_size", "num_blocks", "batch_size", "num_batches",
                "num_components", "num_boundary", "num_transfers"):
        if key in result.stats:
            emit(f"  {key}: {result.stats[key]}")
    if result.faults is not None and not result.faults.clean:
        emit(f"  faults: {result.faults}")
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "graph": {"n": graph.num_vertices, "m": graph.num_edges},
            "device": device.spec.name,
            "algorithm": result.algorithm,
            "simulated_seconds": result.simulated_seconds,
            "stats": _json_scalars(result.stats),
            "faults": result.faults.to_dict() if result.faults is not None else None,
        }
        print(json.dumps(payload, indent=2))
    if args.verify:
        report = verify_result(graph, result, num_rows=args.verify)
        status = "ok" if report.ok else "FAILED"
        emit(f"verification ({report.checked_rows} rows): {status} "
             f"(max |err| {report.max_abs_error:g})")
        if not report.ok:
            return 1
    if args.trace:
        from repro.gpu.timeline import timing_report
        from repro.gpu.trace import export_chrome_trace

        emit(timing_report(result.algorithm, device.spec.name, [device.clock]).describe())
        path = export_chrome_trace(device, args.trace)
        emit(f"trace written to {path}")
    if args.query:
        u, v = (int(x) for x in args.query.split(","))
        emit(f"dist({u}, {v}) = {result.distance(u, v):g}")
    return 0


def cmd_info(args) -> int:
    from repro.graphs.properties import analyze
    from repro.partition import classify_separator

    graph = _load_graph(args)
    props = analyze(graph)
    print(f"graph: {graph}")
    print(f"  vertices:        {props.num_vertices}")
    print(f"  edges:           {props.num_edges}")
    print(f"  density:         {props.density_percent:.4f}%")
    print(f"  degrees:         mean {props.mean_out_degree:.2f}, "
          f"p99 {props.degree_p99:.0f}, max {props.max_out_degree}")
    print(f"  components:      {props.num_components}")
    info = classify_separator(graph, seed=0)
    cls = "small" if info.small_separator else "large"
    print(f"  separator:       {info.num_boundary} boundary vertices over "
          f"{info.num_parts} parts (√(kn)={info.ideal_boundary:.0f}, "
          f"ratio {info.ratio:.2f}) -> {cls}")
    return 0


def cmd_select(args) -> int:
    import json as _json

    from repro.select import Selector

    graph = _load_graph(args)
    spec = _device_spec(args)
    if not args.json and not args.analytic:
        print("calibrating cost models...")
    selector = Selector(spec, density_scale=args.scale, seed=0, analytic=args.analytic)
    report = selector.select(graph)
    if args.json:
        print(_json.dumps(
            {"schema_version": SCHEMA_VERSION, **report.to_dict()}, indent=2
        ))
        return 0
    print(f"graph:      {graph}")
    print(f"density:    {report.density:.4%} (band {report.band!r})")
    print(f"method:     {report.method}")
    print(f"candidates: {', '.join(report.candidates)}")
    for name, est in report.estimates.items():
        print(f"  {name:<16} {est.total_seconds:.6f}s "
              f"(compute {est.compute_seconds:.6f} + transfer {est.transfer_seconds:.6f})")
    if report.infeasible:
        print(f"infeasible: {', '.join(report.infeasible)}")
    print(f"selected:   {report.algorithm}")
    return 0


def cmd_suite(args) -> int:
    from repro.graphs.suite import list_suite

    print(f"{'name':<16} {'family':<11} {'tier':<11} {'sep':<6} "
          f"{'paper n':>9} {'paper m':>11} {'density%':>9}")
    for e in list_suite():
        print(f"{e.name:<16} {e.family:<11} {e.tier:<11} "
              f"{'small' if e.small_separator else 'large':<6} "
              f"{e.paper_n:>9} {e.paper_m:>11} {e.paper_density_pct:>9.4f}")
    return 0


def cmd_devices(args) -> int:
    from repro.gpu.device import K80, TEST_DEVICE, V100

    for spec in (V100, K80, TEST_DEVICE):
        print(f"{spec.name}:")
        print(f"  memory:            {spec.memory_bytes / 2**30:.1f} GiB")
        print(f"  min-plus rate:     {spec.minplus_rate:.3g} ops/s")
        print(f"  relax rate:        {spec.relax_rate:.3g} relax/s")
        print(f"  PCIe:              {spec.transfer_throughput / 1e9:.2f} GB/s, "
              f"{spec.transfer_latency * 1e6:.0f} µs/copy")
        print(f"  active blocks:     {spec.max_active_blocks}")
    return 0


def cmd_bench_kernels(args) -> int:
    from repro.bench.kernels import save_sweep, sweep_backends
    from repro.bench.runner import format_bars, format_table

    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        tiles = tuple(int(t) for t in args.tiles.split(","))
    except ValueError:
        raise SystemExit("--sizes and --tiles take comma-separated integers")
    rows = sweep_backends(sizes, tiles, repeats=args.repeats, seed=args.seed)
    table_rows = [
        {
            "backend": r["backend"],
            "flavor": r["flavor"],
            "n": r["n"],
            "tile": r["tile"] if r["tile"] is not None else "-",
            "panels": r["panels"],
            "seconds": r["seconds"],
            "median": r["median_seconds"],
            "IQR": r["q3_seconds"] - r["q1_seconds"],
            "Gop/s": r["gops"],
            "speedup": r["speedup"],
            "identical": "yes" if r["identical"] else "NO",
        }
        for r in rows
    ]
    print(format_table(table_rows))
    n_max = max(r["n"] for r in rows)
    print(f"\nGop/s at n={n_max}:")
    bar_rows = [
        {
            "config": f"{r['backend']}"
            + (f"[{r['tile']}]" if r["tile"] is not None else ""),
            "gops": r["gops"],
        }
        for r in rows
        if r["n"] == n_max
    ]
    print(format_bars(bar_rows, "config", "gops"))
    if not args.no_save:
        path = save_sweep(rows)
        print(f"\nwrote {path}")
    if any(r["identical"] is False for r in rows):
        print("ERROR: an engine row diverged from the numpy result", file=sys.stderr)
        return 1
    return 0


def _print_verification(args, ver) -> int:
    """Print a schedule verifier's report (``--json``: its payload); exit
    1 unless it verified."""
    import json as _json

    if args.json:
        print(_json.dumps(
            {"schema_version": SCHEMA_VERSION, **ver.to_dict()}, indent=2
        ))
    else:
        print(ver.describe())
    return 0 if ver.ok else 1


def cmd_verify_plan(args) -> int:
    from repro.verifyplan import verify_plan

    graph = _load_graph(args)
    spec = _device_spec(args)
    algorithms = None if args.algorithm == "all" else [args.algorithm]
    return _print_verification(args, verify_plan(
        graph,
        spec,
        algorithms=algorithms,
        overlap=args.overlap,
        num_devices=args.num_devices,
    ))


def cmd_verify_cluster(args) -> int:
    from repro.cluster import ClusterSpec, verify_cluster

    graph = _load_graph(args)
    spec = _device_spec(args)
    cluster = ClusterSpec.make(args.nodes, args.num_devices, device=spec)
    return _print_verification(args, verify_cluster(
        graph.num_vertices,
        cluster,
        block_size=args.block_size,
        graph=None if args.static_only else graph,
    ))


def cmd_verify_update(args) -> int:
    from repro.dynamic import verify_update

    return _print_verification(args, verify_update(_device_spec(args)))


def cmd_serve(args) -> int:
    import json as _json

    from repro.serve import AdmissionError, run_selftest
    from repro.serve.loadgen import generate_queries, generate_updates
    from repro.serve.service import APSPService

    if args.selftest:
        report = run_selftest(seed=args.seed, verbose=not args.json)
        if args.json:
            print(_json.dumps(
                {"schema_version": SCHEMA_VERSION, **report}, indent=2, default=str
            ))
        else:
            print("serve selftest: " + ("PASS" if report["ok"] else "FAIL"))
        return 0 if report["ok"] else 1

    graph = _load_graph(args)
    spec = _device_spec(args)
    tenants = tuple(f"tenant{i}" for i in range(max(1, args.tenants)))
    service = APSPService(
        graph,
        spec=spec,
        cache_dir=args.cache_dir or None,
        spool_dir=args.spool_dir or None,
        budget_seconds=args.budget_seconds if args.budget_seconds > 0 else None,
        batch_size=args.batch_size or None,
    )
    queries = generate_queries(
        graph, num_queries=args.queries, seed=args.seed, tenants=tenants,
        point_fraction=args.point_fraction, full_fraction=args.full_fraction,
    )
    waves = [queries]
    if args.mutations:
        half = len(queries) // 2
        waves = [queries[:half], queries[half:]]
    responses = []
    rejected = 0
    for wave_index, wave in enumerate(waves):
        if wave_index:
            service.mutate(
                generate_updates(
                    service.graph, num_updates=args.mutations, seed=args.seed + 1
                )
            )
        for query in wave:
            try:
                service.submit(query)
            except AdmissionError:
                rejected += 1
        responses.extend(service.drain())
    latencies = np.array([r.latency for r in responses], dtype=np.float64)
    stats = service.stats()
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "graph": {"n": graph.num_vertices, "m": graph.num_edges},
            "device": spec.name,
            "answered": len(responses),
            "rejected": rejected,
            "p50_us": float(np.percentile(latencies, 50) * 1e6) if len(responses) else None,
            "p99_us": float(np.percentile(latencies, 99) * 1e6) if len(responses) else None,
            "qps": len(responses) / stats["now_seconds"] if stats["now_seconds"] else None,
            "stats": stats,
        }
        print(_json.dumps(payload, indent=2))
        return 0
    print(f"graph:   {graph}")
    print(f"device:  {spec.name}; batch plan: {stats['batch_plan']} sources/launch")
    print(f"answered {len(responses)} queries ({rejected} refused at admission) "
          f"in {stats['now_seconds'] * 1e3:.3f} modeled ms")
    if len(responses):
        print(f"  latency p50 {np.percentile(latencies, 50) * 1e6:.1f} µs, "
              f"p99 {np.percentile(latencies, 99) * 1e6:.1f} µs; "
              f"throughput {len(responses) / stats['now_seconds']:.0f} q/s")
    print("  served from: " + ", ".join(
        f"{k}={v}" for k, v in stats["served"].items()))
    if stats["cache"] is not None:
        c = stats["cache"]
        print(f"  closure cache: {c['ram_hits']} ram + {c['disk_hits']} disk hits, "
              f"{c['misses']} misses, {c['evictions']} evictions, "
              f"{c['revalidate_hits']} revalidations")
    return 0


def cmd_lint(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.sanitize import format_violations, lint_paths

    paths = [Path(p) for p in args.paths] or [Path("src")]
    violations = lint_paths(paths)
    if args.json:
        print(_json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "ok": not violations,
                "count": len(violations),
                "violations": [
                    {
                        "rule": v.rule, "name": v.name, "file": v.file,
                        "line": v.line, "col": v.col, "message": v.message,
                    }
                    for v in violations
                ],
            },
            indent=2,
        ))
        return 1 if violations else 0
    if violations:
        print(format_violations(violations))
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_verify_kernels(args) -> int:
    import json as _json

    from repro.verifykernel import verify_kernels

    modes: tuple[str, ...] = ()
    if args.sanitize == "all":
        modes = ("asan", "ubsan")
    elif args.sanitize != "none":
        modes = (args.sanitize,)
    ver = verify_kernels(sanitize=modes, defects=args.defects, fast=not args.full)
    strict_failures: list[str] = []
    if args.strict:
        for leg in ver.sanitizers:
            if not leg.available:
                strict_failures.append(f"sanitizer leg {leg.mode} unavailable")
        for d in ver.defects:
            if d.dynamic is None:
                strict_failures.append(
                    f"defect {d.defect.name}: dynamic leg unavailable"
                )
    ok = ver.ok and not strict_failures
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION, **ver.to_dict()}
        payload["ok"] = ok
        payload["strict_failures"] = strict_failures
        print(_json.dumps(payload, indent=2))
        return 0 if ok else 1
    print(f"verify-kernels: {len(ver.findings)} static finding(s) on shipped kernels")
    for f in ver.findings:
        print(f"  {f.describe()}")
    for leg in ver.sanitizers:
        if not leg.available:
            print(f"  [{leg.mode}] unavailable — {leg.detail}")
        else:
            status = "clean" if leg.clean else (
                "FAULTED" if leg.faulted else "DIVERGED"
            )
            print(f"  [{leg.mode}] {status} (exit {leg.returncode})")
    for d in ver.defects:
        dyn = ("skipped" if d.dynamic is None
               else ("caught" if d.dynamic.caught else "MISSED"))
        sta = "caught" if d.static_caught else "MISSED"
        print(f"  defect {d.defect.name}: static {sta}, dynamic {dyn}")
    for msg in strict_failures:
        print(f"  strict: {msg}")
    print("verify-kernels: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_report(args) -> int:
    from repro.bench.report import collect_records, render_markdown, write_report

    if args.stdout:
        print(render_markdown(collect_records()))
    else:
        path = write_report()
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Out-of-core GPU APSP (IPDPS 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("graph", help="path (.mtx/.txt) or spec (suite:usroads, rmat:n=1000,m=8000, ...)")
        p.add_argument("--scale", type=float, default=1 / 64,
                       help="linear scale of graph/device relative to paper size (default 1/64)")
        p.add_argument("--device", choices=["v100", "k80", "test"], default="v100")

    p = sub.add_parser("solve", help="run out-of-core APSP")
    add_graph_args(p)
    p.add_argument("--algorithm", default="auto",
                   choices=["auto", "floyd-warshall", "johnson", "boundary"])
    p.add_argument("--disk", action="store_true", help="disk-backed output store")
    p.add_argument("--verify", type=int, metavar="ROWS", default=0,
                   help="verify N sampled rows against Dijkstra")
    p.add_argument("--trace", metavar="PATH", default="",
                   help="write a chrome://tracing JSON of the device schedule")
    p.add_argument("--query", metavar="U,V", default="",
                   help="print one distance after solving")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--checkpoint-dir", metavar="DIR", default="",
                   help="write per-iteration checkpoints here; rerunning with "
                        "the same directory resumes from the last checkpoint")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for --fault-count's random fault plan")
    p.add_argument("--fault-count", type=int, default=0,
                   help="inject N seeded transient device faults")
    p.add_argument("--fault-sites", default="h2d,d2h,kernel,alloc",
                   help="comma-separated fault sites for --fault-count")
    p.add_argument("--fault-kill", metavar="SITE:INDEX", default="",
                   help="make the INDEXth op at SITE fail permanently "
                        "(exhausts retries; pair with --checkpoint-dir)")
    p.add_argument("--retry-limit", type=int, default=0,
                   help="override the retry budget (attempts per op)")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("info", help="graph features (Table III columns)")
    add_graph_args(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("select", help="run the algorithm selector")
    add_graph_args(p)
    p.add_argument("--analytic", action="store_true",
                   help="rank candidates by the symbolic schedule-DAG "
                        "critical path instead of the calibrated cost models")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("suite", help="list the paper's evaluation graphs")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("devices", help="list device presets")
    p.set_defaults(fn=cmd_devices)

    p = sub.add_parser("bench-kernels",
                       help="wall-clock Gop/s sweep of the min-plus kernels")
    p.add_argument("--sizes", default="256,457,1024", help="comma-separated problem sizes")
    p.add_argument("--tiles", default="64,128,256",
                   help="comma-separated tile sizes of the engine's rows")
    p.add_argument("--repeats", type=int, default=5,
                   help="timing repeats per config: rows record the best, "
                        "median and quartiles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-save", action="store_true",
                   help="print only; skip writing BENCH_kernels.json")
    p.set_defaults(fn=cmd_bench_kernels)

    p = sub.add_parser(
        "verify-plan",
        help="explain each OOC execution plan and statically prove it fits "
             "memory, matches the paper's transfer bounds and is race- and "
             "deadlock-free in every interleaving, with its predicted "
             "critical-path makespan (nothing executes)",
    )
    add_graph_args(p)
    p.add_argument("--algorithm", default="all",
                   choices=["all", "fw", "floyd-warshall", "johnson", "boundary", "multi-gpu"],
                   help="which plan(s) to verify (default: all)")
    p.add_argument("--num-devices", type=_count, default=2,
                   help="device count for the multi-gpu plan")
    p.add_argument("--no-overlap", dest="overlap", action="store_false",
                   help="verify the single-stream (overlap=False) schedules")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_verify_plan)

    p = sub.add_parser(
        "verify-cluster",
        help="statically prove the distributed blocked-FW schedule "
             "race/deadlock-free across nodes with exact per-link "
             "communication volumes, cross-validated against the "
             "dynamic cluster simulator",
    )
    add_graph_args(p)
    p.add_argument("--nodes", type=_count, default=2,
                   help="cluster node count N (default 2)")
    p.add_argument("--num-devices", type=_count, default=1,
                   help="devices per node M (default 1)")
    p.add_argument("--block-size", type=_count, default=None,
                   help="distribution block size (default: planner's choice)")
    p.add_argument("--static-only", action="store_true",
                   help="skip the dynamic simulator cross-validation")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_verify_cluster)

    p = sub.add_parser(
        "verify-update",
        help="statically prove the dynamic-graph update schedules sound: "
             "closed-form O(n²) transfer bounds == static IR tally, "
             "touched-block coverage, HB cleanliness, and "
             "the seeded-defect + differential + revalidation suites",
    )
    p.add_argument("--scale", type=float, default=1.0,
                   help="linear device scale (default 1.0 — the sweep "
                        "configs are already test-sized)")
    p.add_argument("--device", choices=["v100", "k80", "test"], default="test")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_verify_update)

    p = sub.add_parser(
        "serve",
        help="run the APSP query service over a deterministic workload: "
             "batched MSSP answers, fingerprint-keyed closure cache, "
             "analytic admission control, weighted-fair tenant scheduling",
    )
    p.add_argument("graph", nargs="?", default="er:n=96,m=400",
                   help="path (.mtx/.txt) or spec (default er:n=96,m=400)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="linear device scale (default 1.0)")
    p.add_argument("--device", choices=["v100", "k80", "test"], default="test")
    p.add_argument("--selftest", action="store_true",
                   help="run the end-to-end differential smoke test "
                        "(service answers vs fresh solves, incl. a "
                        "seeded-fault leg) and exit 0/1")
    p.add_argument("--queries", type=int, default=64,
                   help="generated queries (default 64)")
    p.add_argument("--tenants", type=int, default=2,
                   help="number of round-robin tenants (default 2)")
    p.add_argument("--point-fraction", type=float, default=0.4,
                   help="fraction of point queries (default 0.4)")
    p.add_argument("--full-fraction", type=float, default=0.05,
                   help="fraction of full-APSP queries (default 0.05)")
    p.add_argument("--mutations", type=int, default=0,
                   help="apply N edge mutations mid-workload (revalidates "
                        "the closure cache)")
    p.add_argument("--budget-seconds", type=float, default=0.0,
                   help="admission budget: refuse requests past this "
                        "predicted backlog (0 disables)")
    p.add_argument("--batch-size", type=int, default=0,
                   help="cap the MSSP batch size (0: the bat formula)")
    p.add_argument("--cache-dir", metavar="DIR", default="",
                   help="closure-cache directory (persistent across runs)")
    p.add_argument("--spool-dir", metavar="DIR", default="",
                   help="checkpoint spool: a restarted service resumes "
                        "long solves from here instead of recomputing")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("lint", help="AST contract checks for this repository")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "verify-kernels",
        help="prove the JIT C kernels memory- and alias-safe: static "
             "bounds and alias-class analysis plus optional sanitizer legs",
    )
    p.add_argument("--sanitize", default="none",
                   choices=["none", "asan", "ubsan", "all"],
                   help="also replay the kernel matrix under instrumented "
                        "builds (default: static analysis only)")
    p.add_argument("--defects", action="store_true",
                   help="cross-validate: every seeded defect must be caught "
                        "both statically and dynamically")
    p.add_argument("--strict", action="store_true",
                   help="fail when a requested sanitizer leg is unavailable "
                        "instead of skipping it")
    p.add_argument("--full", action="store_true",
                   help="replay the sanitizer matrix at three sizes "
                        "instead of one")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_verify_kernels)

    p = sub.add_parser("report", help="render benchmarks/results/*.json to RESULTS.md")
    p.add_argument("--stdout", action="store_true", help="print instead of writing")
    p.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
