"""Extension — distributed blocked-FW strong and weak scaling.

Strong scaling holds n fixed while the fleet grows from 1×1 to 4×2
devices; weak scaling grows n with √nodes. Each configuration is proven
by ``verify-cluster`` (cross-node happens-before, exact communication
volume) and run on the cluster simulator, whose makespan must equal the
statically predicted one bit for bit.
"""

from repro.bench.cluster import collect_baseline


def test_cluster_scaling(benchmark):
    record = benchmark.pedantic(collect_baseline, rounds=1, iterations=1)
    record.print()
    record.save()
    for r in record.rows:
        # verified, and predicted == simulated makespan
        assert r["ok"] and r["exact"], r["config"]


if __name__ == "__main__":
    collect_baseline().print()
