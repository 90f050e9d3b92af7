"""Figure 5: IOzone client-side CPU utilization of the user-level
proxy/daemon, sampled in 5-second windows over the run.

Paper's shape claims (§6.2.1):

- basic GFS proxy CPU is very low (average 0.6 %, under 1 %),
- SHA1-HMAC raises it to ~5 %; adding encryption ~8 %
  (AES slightly above RC4),
- the SFS daemon burns more than 30 % — more than any SGFS
  configuration.
"""

from repro.harness import figure_rows, figure_table, run_figure


def test_fig5_cpu_client(benchmark):
    results = benchmark.pedantic(run_figure, args=("fig5",), rounds=1, iterations=1)
    print("\n" + figure_table("fig5", results))
    means = {setup: row["client-cpu"] for setup, row in figure_rows(results)}
    benchmark.extra_info["cpu_mean_pct"] = {k: round(v, 2) for k, v in means.items()}

    assert means["gfs"] < 2.0, "plain proxy must be near-idle"
    # HMAC adds a few percent; encryption adds more
    assert means["gfs"] < means["sgfs-sha"] < means["sgfs-rc"] <= means["sgfs-aes"]
    assert 1.5 < means["sgfs-sha"] < 7.0
    assert 5.0 < means["sgfs-aes"] < 13.0
    # SFS burns far more CPU than any SGFS configuration
    assert means["sfs"] > 30.0
    assert means["sfs"] > 2.5 * means["sgfs-aes"]
