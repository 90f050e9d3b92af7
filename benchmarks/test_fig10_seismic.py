"""Figure 10: Seismic phases, LAN and 40 ms WAN.

Paper's shape claims (§6.3.2):

- LAN: sgfs performs very close to nfs-v3,
- WAN: sgfs shows **no slowdown** vs its LAN run (phase 2 actually runs
  faster in WAN because disk caching is off in LAN), while nfs-v3's
  stacking phase collapses (27 s -> 1021 s in the paper: strided
  re-reads of a file larger than client memory),
- overall sgfs is >5x faster in the paper's WAN (we assert > 2.5x, see
  EXPERIMENTS.md), with the compute-bound phase 4 flat everywhere,
- the end-of-run write-back is reported separately (paper: 14.2 s).
"""

from repro.harness import figure_table, run_figure


def test_fig10_seismic(benchmark):
    results = benchmark.pedantic(run_figure, args=("fig10",), rounds=1, iterations=1)
    print("\n" + figure_table("fig10", results))
    wan_sgfs = results["sgfs-wan"]
    print(f"write-back at end of WAN run: {wan_sgfs.writeback_seconds:.1f}s")
    benchmark.extra_info["phases_s"] = {
        label: {k: round(v, 2) for k, v in r.phases.items()}
        for label, r in results.items()
    }

    lan_n = results["nfs-v3-lan"].phases
    lan_s = results["sgfs-lan"].phases
    wan_n = results["nfs-v3-wan"].phases
    wan_s = results["sgfs-wan"].phases

    # LAN: sgfs close to native overall
    assert lan_s["total"] < 1.35 * lan_n["total"]
    # WAN: nfs phase 2 collapses; sgfs phase 2 does not
    assert wan_n["phase2"] > 5.0 * lan_n["phase2"]
    assert wan_s["phase2"] < 1.5 * lan_s["phase2"]
    # paper: sgfs phase 2 runs FASTER in WAN than LAN (disk cache off in LAN)
    assert wan_s["phase2"] < lan_s["phase2"]
    # sgfs shows no overall WAN slowdown
    assert wan_s["total"] <= 1.10 * lan_s["total"]
    # sgfs beats nfs substantially in WAN; phase2 dominates the win
    assert wan_n["total"] / wan_s["total"] > 2.5
    assert wan_n["phase2"] / wan_s["phase2"] > 10.0
    # the compute-bound final phase is flat across all four runs
    ref = lan_n["phase4"]
    for label, r in results.items():
        assert abs(r.phases["phase4"] - ref) / ref < 0.15, label
    # write-back only carries the preserved results, not the temporaries
    assert wan_sgfs.writeback_seconds > 0
    assert wan_sgfs.writeback_bytes <= 8 * 1024 * 1024
