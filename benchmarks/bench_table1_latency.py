"""Table 1: 99.9th-percentile component latency (ms), CF workloads.

Paper reference rows (arrival rates 20 / 40 / 60 / 80 / 100 req/s):

    Basic            76   263   48186   113496   202834
    Request reissue  63   213   13505    27599    28981
    AccuracyTrader   87   109     118      122      130

Shapes that must hold: reissue is best at light load; Basic (and, less
violently, reissue) explode once the rate crosses component capacity
(between 40 and 60); AccuracyTrader stays pinned near the 100 ms deadline
at every rate.  Absolute magnitudes differ from the paper's testbed (a
simulated cluster, scaled down unless ``REPRO_BENCH_FULL=1``), so only
the shapes are asserted.
"""

from __future__ import annotations

from repro.experiments.common import run_techniques
from repro.util.rng import make_rng
from repro.workloads.arrival import poisson_arrivals


def test_table1(benchmark, cf_tables_result, cf_profile, bench_scale):
    # The full table is computed once in the shared fixture; the benchmark
    # times one representative heavy-load latency simulation.
    arrivals = poisson_arrivals(100.0, bench_scale.session_s,
                                make_rng(0, "bench-t1"))
    benchmark.pedantic(
        run_techniques, args=(arrivals, cf_profile, bench_scale),
        kwargs=dict(techniques=("basic", "at")), rounds=1, iterations=1)

    r = cf_tables_result
    print()
    print(r.table1_text())

    # Paper shapes.
    i20, i100 = r.rates.index(20), r.rates.index(100)
    assert r.latency_ms["reissue"][i20] < r.latency_ms["at"][i20], \
        "reissue wins at light load"
    assert r.latency_ms["basic"][i100] > 100 * r.latency_ms["at"][i100], \
        "basic explodes under heavy load"
    assert r.latency_ms["reissue"][i100] < r.latency_ms["basic"][i100], \
        "reissue stays below basic"
    for v in r.latency_ms["at"]:
        assert v < 250.0, "AccuracyTrader stays near the deadline"
