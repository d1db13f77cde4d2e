"""Extension — in-core vs out-of-core crossover at the memory boundary.

The paper's motivation: in-core GPU APSP [16], [20] "only considered small
graphs". This experiment sweeps n across the device-memory boundary and
shows (a) in-core FW is the fastest choice while the matrix fits (no
per-iteration streaming), (b) it hard-fails beyond the boundary where the
out-of-core driver keeps going with a modest streaming overhead.

In-core FW is the out-of-core driver's one-block plan
(``block_size=n``): upload, one on-device closure, download.
"""

from repro.bench import ExperimentRecord, device_profile
from repro.core import ooc_floyd_warshall
from repro.gpu.device import Device
from repro.gpu.errors import OutOfMemoryError
from repro.graphs.generators import erdos_renyi


def run_experiment() -> ExperimentRecord:
    spec = device_profile("ratio")
    record = ExperimentRecord(
        experiment="ext_incore",
        title="In-core vs out-of-core blocked FW across the memory boundary",
        paper_expectation=(
            "in-core wins while n² fits on the device and cannot run beyond; "
            "out-of-core continues with bounded streaming overhead"
        ),
    )
    # spec memory fits a dist matrix up to n ≈ sqrt(mem/4)
    import math

    boundary = int(math.sqrt(spec.memory_bytes / 4))
    for n in (boundary // 4, boundary // 2, int(boundary * 0.9), int(boundary * 1.5), boundary * 3):
        graph = erdos_renyi(n, 8 * n, seed=n)
        fits = n * n * 4 <= spec.memory_bytes
        try:
            t_in = ooc_floyd_warshall(graph, Device(spec), block_size=n).simulated_seconds
        except OutOfMemoryError:
            t_in = None
        t_ooc = ooc_floyd_warshall(graph, Device(spec)).simulated_seconds
        record.add(
            n=n,
            fits_in_core=fits,
            incore_s=t_in if t_in is not None else float("nan"),
            ooc_s=t_ooc,
            ooc_overhead=(t_ooc / t_in) if t_in else float("nan"),
        )
    return record


def test_ext_incore_crossover(benchmark):
    record = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    record.print()
    record.save()
    import math

    for r in record.rows:
        if r["fits_in_core"]:
            # in-core ran and the OOC version pays only streaming overhead
            assert not math.isnan(r["incore_s"])
            assert r["incore_s"] <= r["ooc_s"]
            assert r["ooc_overhead"] < 3.0
        else:
            # beyond the boundary only the out-of-core driver survives
            assert math.isnan(r["incore_s"])
            assert r["ooc_s"] > 0


if __name__ == "__main__":
    run_experiment().print()
