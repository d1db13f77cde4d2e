"""Figures 6 — estimated vs actual times, boundary & Johnson, V100.

Paper: for graphs with a small separator (density < 0.01%, so the selector
chooses between Johnson's and the boundary algorithm), the cost models
predict the real execution times closely, and the boundary algorithm is
always both predicted and measured faster — so the selector is always
right on these graphs.
"""

from repro.bench import ExperimentRecord, device_profile
from repro.core import ooc_boundary, ooc_johnson
from repro.gpu.device import Device, DeviceSpec
from repro.graphs.suite import DEFAULT_SCALE, list_suite
from repro.select import Calibration, estimate_boundary, estimate_johnson


def run_cost_model_experiment(spec: DeviceSpec, experiment: str, device_name: str) -> ExperimentRecord:
    calibration = Calibration(spec).run(with_large_separator_bins=False)
    record = ExperimentRecord(
        experiment=experiment,
        title=f"Estimated vs actual times, small-separator graphs, {device_name}",
        paper_expectation=(
            "cost models track the measured times; boundary < Johnson on "
            "every small-separator graph, so selection is always correct"
        ),
    )
    for entry in list_suite(tier="cpu-fit", small_separator=True):
        graph = entry.generate(DEFAULT_SCALE)
        est_b = estimate_boundary(graph, spec, calibration, seed=0)
        actual_b = ooc_boundary(graph, Device(spec), seed=0).simulated_seconds
        est_j = estimate_johnson(graph, spec, seed=0)
        actual_j = ooc_johnson(graph, Device(spec)).simulated_seconds
        record.add(
            graph=entry.name,
            boundary_est=est_b.total_seconds,
            boundary_actual=actual_b,
            boundary_err=abs(est_b.total_seconds - actual_b) / actual_b,
            johnson_est=est_j.total_seconds,
            johnson_actual=actual_j,
            johnson_err=abs(est_j.total_seconds - actual_j) / actual_j,
            predicted_best="boundary" if est_b.total_seconds < est_j.total_seconds else "johnson",
            actual_best="boundary" if actual_b < actual_j else "johnson",
        )
    correct = sum(r["predicted_best"] == r["actual_best"] for r in record.rows)
    record.note(f"selection correct on {correct}/{len(record.rows)} graphs")
    return record


def check_record(record: ExperimentRecord) -> None:
    # prediction error small for both models
    assert max(r["boundary_err"] for r in record.rows) < 0.3
    assert max(r["johnson_err"] for r in record.rows) < 0.3
    # boundary wins everywhere, and the model knows it
    assert all(r["actual_best"] == "boundary" for r in record.rows)
    assert all(r["predicted_best"] == r["actual_best"] for r in record.rows)


def test_fig6_cost_model_v100(benchmark):
    spec = device_profile("ratio")
    record = benchmark.pedantic(
        run_cost_model_experiment, args=(spec, "fig6", "V100"), rounds=1, iterations=1
    )
    record.print()
    record.save()
    check_record(record)


if __name__ == "__main__":
    run_cost_model_experiment(device_profile("ratio"), "fig6", "V100").print()
