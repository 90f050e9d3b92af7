"""Figure 6: IOzone server-side CPU utilization of the user-level
proxy/daemon.

Paper's shape claims (§6.2.1): server-side usage is even lower than the
client's for gfs / sgfs-sha / sgfs-rc (0.3 %, 1.5 %, 3.6 % average),
and SFS again exceeds 30 % — more than every SGFS configuration.
"""

from repro.harness import figure_rows, figure_table, run_figure


def test_fig6_cpu_server(benchmark):
    results = benchmark.pedantic(run_figure, args=("fig6",), rounds=1, iterations=1)
    print("\n" + figure_table("fig6", results))
    means = {setup: row["server-cpu"] for setup, row in figure_rows(results)}
    benchmark.extra_info["cpu_mean_pct"] = {k: round(v, 2) for k, v in means.items()}

    assert means["gfs"] < 2.0
    assert means["gfs"] < means["sgfs-sha"] < means["sgfs-rc"] <= means["sgfs-aes"]
    assert means["sfs"] > 30.0
    for setup in ("gfs", "sgfs-sha", "sgfs-rc", "sgfs-aes"):
        assert means[setup] < means["sfs"], setup
