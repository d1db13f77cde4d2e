"""Extension — service latency and throughput vs offered load.

Drives the query service with 16, 64 and 128 concurrent distinct-source
SSSP queries, once with the paper's ``bat`` batching and once one query
per launch, on the modeled clock. Batching must sustain at least
``SPEEDUP_FLOOR`` (3×) the per-query throughput at loads of at least
``SPEEDUP_GATE_LOAD`` (64).
"""

from repro.bench.serve import SPEEDUP_FLOOR, SPEEDUP_GATE_LOAD, collect_serve


def test_serve_throughput(benchmark):
    record = benchmark.pedantic(collect_serve, rounds=1, iterations=1)
    record.print()
    record.save()
    gated = [r for r in record.rows if r["offered_load"] >= SPEEDUP_GATE_LOAD]
    assert gated
    for r in gated:
        assert r["speedup"] >= SPEEDUP_FLOOR, (r["graph"], r["offered_load"])


if __name__ == "__main__":
    collect_serve().print()
