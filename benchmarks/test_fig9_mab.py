"""Figure 9: Modified Andrew Benchmark phases, LAN and 40 ms WAN.

Paper's shape claims (§6.3.1):

- LAN: sgfs matches nfs-v3 on copy/stat/search and pays a modest
  overhead in the compile phase (~14 % in the paper),
- WAN (40 ms): sgfs with disk caching beats nfs-v3 by more than 4x
  overall in the paper (stat ~9x, search ~5x, compile ~8x); our
  kernel-client caches are somewhat more effective than the 2007
  client's, so we assert the conservative bands recorded in
  EXPERIMENTS.md (total > 2x, stat > 5x, compile > 2.5x),
- the end-of-run write-back is reported separately (paper: 51.2 s).
"""

from repro.harness import figure_table, run_figure


def test_fig9_mab(benchmark):
    results = benchmark.pedantic(run_figure, args=("fig9",), rounds=1, iterations=1)
    print("\n" + figure_table("fig9", results))
    wan_sgfs = results["sgfs-wan"]
    print(f"write-back at end of WAN run: {wan_sgfs.writeback_seconds:.1f}s "
          f"({wan_sgfs.writeback_bytes} bytes)")
    benchmark.extra_info["phases_s"] = {
        label: {k: round(v, 2) for k, v in r.phases.items()}
        for label, r in results.items()
    }

    lan_n = results["nfs-v3-lan"].phases
    lan_s = results["sgfs-lan"].phases
    wan_n = results["nfs-v3-wan"].phases
    wan_s = results["sgfs-wan"].phases

    # LAN: first three phases close to native; compile overhead bounded
    for phase in ("copy", "stat", "search"):
        assert lan_s[phase] < 2.5 * lan_n[phase], phase
    assert lan_s["compile"] < 1.25 * lan_n["compile"]
    # WAN: sgfs wins decisively
    assert wan_n["total"] / wan_s["total"] > 2.0
    assert wan_n["stat"] / wan_s["stat"] > 5.0
    assert wan_n["search"] / wan_s["search"] > 2.0
    assert wan_n["compile"] / wan_s["compile"] > 2.5
    # sgfs WAN slowdown vs its own LAN run stays modest (paper: 2.5x)
    assert wan_s["total"] / lan_s["total"] < 4.0
    # write-back happened and is nonzero (temporaries reached the server)
    assert wan_sgfs.writeback_seconds > 0
