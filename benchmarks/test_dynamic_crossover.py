"""Extension — incremental update latency vs full re-solve.

Prices a batch of k edge-weight decreases (one O(n²) patch pass), an
increase that re-runs a quarter of the rows, and a full blocked-FW
re-solve from the verifier's traffic records and the device rate models,
and records how many sequential single-edge patches it takes to cost one
re-solve. Closed-form: nothing executes.
"""

from repro.bench.dynamic import collect_dynamic


def test_dynamic_crossover(benchmark):
    record = benchmark.pedantic(collect_dynamic, rounds=1, iterations=1)
    record.print()
    record.save()


if __name__ == "__main__":
    collect_dynamic().print()
