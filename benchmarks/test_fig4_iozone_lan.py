"""Figure 4: IOzone read/reread runtime on eight DFS setups in LAN.

Paper's shape claims (§6.2.1):

- every user-level file system is more than two-fold slower than the
  kernel NFS implementations under this worst-case workload,
- security overhead over plain gfs: ≈ +9 % with SHA1-HMAC only,
  ≈ +15 % with RC4+SHA1, ≈ +50 % with AES-256+SHA1,
- gfs-ssh is more than six-fold slower than gfs (double user-level
  forwarding),
- sgfs-rc is ~15 % slower than SFS (blocking vs asynchronous RPCs),
- nfs-v4 shows no advantage over nfs-v3.
"""

from conftest import within_factor

from repro.harness import figure_table, run_figure


def test_fig4_iozone_lan(benchmark):
    results = benchmark.pedantic(run_figure, args=("fig4",), rounds=1, iterations=1)
    totals = {name: r.total for name, r in results.items()}
    print("\n" + figure_table("fig4", results))
    benchmark.extra_info["runtimes_s"] = {k: round(v, 3) for k, v in totals.items()}

    gfs = totals["gfs"]
    # user-level systems are >2x kernel NFS
    for setup in ("gfs", "sgfs-sha", "sgfs-rc", "sgfs-aes", "sfs", "gfs-ssh"):
        assert totals[setup] > 2.0 * totals["nfs-v3"], setup
    # the cipher ladder: +9% / +15% / +50% (generous tolerance band)
    assert within_factor(totals["sgfs-sha"] / gfs, 1.09, 1.06)
    assert within_factor(totals["sgfs-rc"] / gfs, 1.15, 1.08)
    assert within_factor(totals["sgfs-aes"] / gfs, 1.50, 1.10)
    # double forwarding: gfs-ssh >= ~6x gfs
    assert totals["gfs-ssh"] / gfs > 5.0
    # blocking SGFS trails async SFS by roughly the paper's 15%
    assert 1.05 < totals["sgfs-rc"] / totals["sfs"] < 1.45
    # nfs-v4 brings no advantage
    assert totals["nfs-v4"] >= totals["nfs-v3"] * 0.98
