"""Table VI — selection between Johnson's and blocked Floyd–Warshall.

Paper: synthetic R-MAT graphs with n = 80,000 fixed and m doubling each
setup. The blocked FW time depends only on n (flat across setups) while
Johnson's grows with m; past a density threshold FW wins, and the selector
— FW extrapolated from one n₀ = 70,000 calibration run, Johnson from 5
sampled batches — always picks the measured winner.

Runs on the "crossover" device profile (``relax_exponent = 0.5``), which
positions the FW/Johnson crossover at the paper's average-degree operating
point at reduced scale — see EXPERIMENTS.md "device profiles".
"""

from repro.bench import ExperimentRecord, device_profile
from repro.core import ooc_floyd_warshall, ooc_johnson
from repro.gpu.device import Device
from repro.graphs.generators import rmat
from repro.graphs.suite import DEFAULT_SCALE
from repro.select import Calibration, estimate_fw, estimate_johnson

#: paper: n fixed at 80,000 (scaled), m doubling per setup
PAPER_N = 80_000
EDGE_FACTORS = [2, 4, 8, 16, 32, 64, 128]


def run_experiment() -> ExperimentRecord:
    spec = device_profile("crossover")
    n = int(PAPER_N * DEFAULT_SCALE)
    calibration = Calibration(
        spec, fw_n0=int(70_000 * DEFAULT_SCALE)  # the paper's n0 = 70,000
    ).run(with_large_separator_bins=False)
    record = ExperimentRecord(
        experiment="table6",
        title="Johnson vs blocked FW across a density sweep (R-MAT, n fixed)",
        paper_expectation=(
            "FW time flat in m; Johnson grows with m; crossover at moderate "
            "density; selector always picks the measured winner"
        ),
    )
    # FW depends only on n: run it once, reuse (the paper's column repeats
    # the same number for this reason).
    fw_actual = ooc_floyd_warshall(
        rmat(n, n * 8, seed=1), Device(spec)
    ).simulated_seconds
    fw_est = None
    for factor in EDGE_FACTORS:
        graph = rmat(n, n * factor, seed=factor, name=f"rmat-d{factor}")
        if fw_est is None:
            fw_est = estimate_fw(graph, spec, calibration).total_seconds
        est_j = estimate_johnson(graph, spec, seed=0)
        actual_j = ooc_johnson(graph, Device(spec)).simulated_seconds
        predicted = "floyd-warshall" if fw_est < est_j.total_seconds else "johnson"
        actual = "floyd-warshall" if fw_actual < actual_j else "johnson"
        record.add(
            edge_factor=factor,
            m=graph.num_edges,
            density_pct=100 * graph.density * DEFAULT_SCALE,
            fw_actual=fw_actual,
            fw_est=fw_est,
            johnson_actual=actual_j,
            johnson_est=est_j.total_seconds,
            predicted=predicted,
            actual=actual,
            correct=predicted == actual,
        )
    return record


def test_table6_density_crossover(benchmark):
    record = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    record.print()
    record.save()
    rows = record.rows
    # Johnson's time grows monotonically with m (within noise)
    times = [r["johnson_actual"] for r in rows]
    assert times[-1] > times[0] * 5
    # a crossover exists: Johnson wins at the sparse end, FW at the dense end
    assert rows[0]["actual"] == "johnson"
    assert rows[-1]["actual"] == "floyd-warshall"
    # the selector is right everywhere (the paper's headline claim)
    assert all(r["correct"] for r in rows)
    # the FW extrapolation plus its priced schedule traffic lands close
    assert abs(rows[0]["fw_est"] - rows[0]["fw_actual"]) <= 0.05 * rows[0]["fw_actual"]
    benchmark.extra_info["crossover_edge_factor"] = next(
        r["edge_factor"] for r in rows if r["actual"] == "floyd-warshall"
    )


if __name__ == "__main__":
    run_experiment().print()
