"""Figure 8: PostMark total runtime vs emulated network RTT.

Paper's shape claims (§6.2.2):

- native NFSv3 degrades roughly linearly with RTT,
- SGFS (disk caching + write-back) shows only a slow decrease in
  performance as latency grows,
- at 80 ms RTT SGFS is about two-fold faster than native NFS.
"""

from repro.harness import figure_table, run_figure


def test_fig8_postmark_wan(benchmark):
    results = benchmark.pedantic(run_figure, args=("fig8",), rounds=1, iterations=1)
    print("\n" + figure_table("fig8", results))
    series = {"nfs-v3": {}, "sgfs": {}}
    for r in results.values():
        series[r.setup][round(r.rtt * 1000)] = r.total
    benchmark.extra_info["series_s"] = {
        k: {str(r): round(v, 1) for r, v in vals.items()} for k, vals in series.items()
    }

    nfs, sgfs = series["nfs-v3"], series["sgfs"]
    assert nfs[80] / nfs[5] > 8.0, "nfs-v3 should scale steeply with RTT"
    # sgfs grows distinctly more slowly with RTT than nfs does
    assert sgfs[80] / sgfs[5] < 0.75 * (nfs[80] / nfs[5])
    # sgfs wins at every WAN latency, by >= ~2x at 80ms
    for rtt_ms in nfs:
        assert sgfs[rtt_ms] < nfs[rtt_ms], f"sgfs must win at {rtt_ms}ms"
    assert nfs[80] / sgfs[80] > 1.8
    # the gap widens with latency (crossover direction)
    assert nfs[80] / sgfs[80] > nfs[5] / sgfs[5]
