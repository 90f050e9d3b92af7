"""Figure 7: PostMark per-phase runtimes in LAN.

Paper parameters: 100 directories / 500 files / 1000 transactions,
file sizes 512 B – 16 KB.  Shape claims (§6.2.2):

- creation and deletion phases run near-native on every secure setup
  (gfs-ssh marginally worse),
- in the transaction phase only sgfs stays close to nfs-v3, beating
  sfs (~17 %) and gfs-ssh (~14 %) — we assert ordering plus generous
  bands around those gaps,
- nfs-v4 shows no advantage.
"""

from repro.harness import figure_table, run_figure


def test_fig7_postmark_lan(benchmark):
    results = benchmark.pedantic(run_figure, args=("fig7",), rounds=1, iterations=1)
    print("\n" + figure_table("fig7", results))
    benchmark.extra_info["phases_s"] = {
        name: {k: round(v, 2) for k, v in r.phases.items()}
        for name, r in results.items()
    }

    nfs = results["nfs-v3"].phases
    sgfs = results["sgfs"].phases
    sfs = results["sfs"].phases
    ssh = results["gfs-ssh"].phases

    # creation/deletion: all secure setups within ~2.5x of native
    for name in ("sfs", "sgfs", "gfs-ssh"):
        ph = results[name].phases
        assert ph["creation"] < 2.5 * nfs["creation"], name
        assert ph["deletion"] < 2.0 * nfs["deletion"], name
    # transaction phase: sgfs closest to native, beats sfs and gfs-ssh
    assert sgfs["transaction"] < sfs["transaction"]
    assert sgfs["transaction"] < ssh["transaction"]
    assert sgfs["transaction"] < 1.6 * nfs["transaction"]
    # the paper's 17% / 14% margins, with tolerance
    assert 1.05 < sfs["transaction"] / sgfs["transaction"] < 1.6
    assert 1.05 < ssh["transaction"] / sgfs["transaction"] < 2.2
    # nfs-v4 no advantage
    assert results["nfs-v4"].total >= results["nfs-v3"].total * 0.98
