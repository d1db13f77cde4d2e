"""Extension — static transfer volumes and peak residency of every plan.

The plan verifier audits the out-of-core schedule of each algorithm on
five graph/device configurations without executing anything: bytes and
copies per direction, peak device memory, and the bytes a schedule moves
a second time. Everything is static, so the record is exact; a driver
change that moves different bytes changes a committed figure.
"""

from repro.bench.transfers import collect_baseline


def test_transfer_volumes(benchmark):
    record = benchmark.pedantic(collect_baseline, rounds=1, iterations=1)
    record.print()
    record.save()
    for r in record.rows:
        if r["feasible"]:
            # every feasible plan proves out and wastes no bus bandwidth
            assert r["verified"], (r["graph"], r["algorithm"])
            assert r["redundant_bytes"] == 0, (r["graph"], r["algorithm"])


if __name__ == "__main__":
    collect_baseline().print()
