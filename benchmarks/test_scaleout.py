"""Scale-out: aggregate throughput and per-client latency vs. fleet size.

Not a paper figure — the paper measures one client per session — but the
experiment its grid-sharing story implies: N users mount one server
through independent (per-user secured, for SGFS) sessions and run the
IOzone read/reread workload concurrently over per-client directories.

Shape claims asserted:

- aggregate throughput rises with client count until the server
  saturates (near-linear early, flattening late);
- the crypto-heavy setup (sgfs-aes) saturates earlier and at a lower
  aggregate rate than the plain proxied setup (gfs) — the server CPU is
  busy with per-session encryption long before the plain stacks run out
  of server;
- same-seed fleet runs are bit-identical, per-client.

The LAN link is widened 8x from the calibrated testbed so the plain
setups are not link-capped in the measured range; the crypto ceiling is
what we are after, and it is CPU-, not network-, bound.
"""

from __future__ import annotations

import pytest
from bench_scaleout import FAT_LAN, aes_fleet, client_iozone

from repro.harness import Scenario, run

SETUPS = ("nfs-v3", "gfs", "sgfs-aes")
CLIENT_COUNTS = (1, 2, 4, 8, 16, 32)


def _throughput_curve(setup: str) -> dict:
    """client count -> aggregate MB/s (and per-client seconds)."""
    curve = {}
    for n in CLIENT_COUNTS:
        r = run(Scenario(setup, clients=n, cal=FAT_LAN), client_iozone)
        curve[n] = {
            "throughput": r.aggregate_throughput() / 1e6,
            "per_client_mean": r.mean_client_seconds,
        }
    return curve


@pytest.fixture(scope="module")
def curves():
    return {setup: _throughput_curve(setup) for setup in SETUPS}


def test_scaleout_table(curves):
    print("\n=== Scale-out: aggregate MB/s vs clients (IOzone read/reread) ===")
    header = f"{'setup':12s}" + "".join(f"{n:>9d}" for n in CLIENT_COUNTS)
    print(header)
    print("-" * len(header))
    for setup in SETUPS:
        cells = "".join(
            f"{curves[setup][n]['throughput']:>9.1f}" for n in CLIENT_COUNTS
        )
        print(f"{setup:12s}{cells}")


def test_throughput_rises_until_saturation(curves):
    for setup in SETUPS:
        c = curves[setup]
        # Early range is near-linear: 4 clients beat 1 by well over 2x.
        assert c[4]["throughput"] > 2.0 * c[1]["throughput"], setup
        # Monotone non-decreasing within measurement slack.
        for lo, hi in zip(CLIENT_COUNTS, CLIENT_COUNTS[1:]):
            assert c[hi]["throughput"] > 0.95 * c[lo]["throughput"], (setup, lo, hi)
        # Declining returns: the late doubling gains less than the early one.
        early = c[4]["throughput"] / c[2]["throughput"]
        late = c[32]["throughput"] / c[16]["throughput"]
        assert late < early, (setup, early, late)


def test_crypto_saturates_earlier_and_lower(curves):
    gfs, aes = curves["gfs"], curves["sgfs-aes"]
    # Lower ceiling: the AES fleet's saturated rate is far below gfs's.
    assert aes[32]["throughput"] < 0.5 * gfs[32]["throughput"]
    # Earlier knee: going 8 -> 16 clients still pays for gfs but is
    # nearly flat for sgfs-aes (server CPU already full of crypto).
    gain_gfs = gfs[16]["throughput"] / gfs[8]["throughput"]
    gain_aes = aes[16]["throughput"] / aes[8]["throughput"]
    assert gain_aes < gain_gfs
    # Scaling efficiency at 16 clients is much worse under AES.
    eff_gfs = gfs[16]["throughput"] / (16 * gfs[1]["throughput"])
    eff_aes = aes[16]["throughput"] / (16 * aes[1]["throughput"])
    assert eff_aes < eff_gfs


def test_per_client_latency_grows_under_load(curves):
    # Each client runs the same workload; with a contended server the
    # mean per-client runtime must grow with fleet size.
    for setup in SETUPS:
        c = curves[setup]
        assert c[16]["per_client_mean"] > c[1]["per_client_mean"], setup


def test_profile_attributes_flattening_to_crypto():
    """ISSUE 6 acceptance: on the 8-client sgfs-aes scale-out scenario
    the profiler must attribute the majority of server-side CPU to
    crypto, with concrete percentages — the computed explanation for
    why the AES curve flattens in the table above."""
    report = run(aes_fleet(8), client_iozone, profile=True).profile
    server = report["cpu"]["server"]
    print("\n=== 8-client sgfs-aes server CPU attribution ===")
    print(f"busy {server['busy_pct_of_makespan']:.1f}% of makespan; "
          f"crypto {server['crypto_pct_of_busy']:.1f}% of busy "
          f"({server['crypto_pct_of_makespan']:.1f}% of makespan)")
    for key, row in sorted(server["accounts"].items(),
                           key=lambda kv: -kv[1]["seconds"]):
        print(f"  {key:42s} {row['seconds']:.6f}s {row['pct_of_busy']:5.1f}%")
    # The server is the bottleneck host and crypto dominates its CPU.
    assert server["crypto_pct_of_busy"] > 50.0
    assert server["crypto_seconds"] > 0.0
    # Crypto sub-accounts are individually attributed (hierarchical keys).
    assert any("/seal:" in k or "/handshake" in k for k in server["accounts"])
    # The fleet report carries per-client sections for all 8 members.
    assert set(report["clients"]) >= {f"c{i}" for i in range(8)}


def test_profile_report_byte_identical_same_seed():
    from repro.obs.profile import report_json

    a = run(aes_fleet(8), client_iozone, profile=True)
    b = run(aes_fleet(8), client_iozone, profile=True)
    assert report_json(a.profile) == report_json(b.profile)
    from repro.obs.profile import collapsed_stacks

    assert collapsed_stacks(a.tracer) == collapsed_stacks(b.tracer)


def test_fleet_bit_identical_same_seed():
    a = run(aes_fleet(8), client_iozone)
    b = run(aes_fleet(8), client_iozone)
    assert a.makespan == b.makespan
    for ca, cb in zip(a.per_client, b.per_client):
        assert (ca.name, ca.start, ca.end, ca.phases) == (
            cb.name, cb.start, cb.end, cb.phases
        )
    assert a.stats == b.stats


# -- multi-core server: breaking the crypto ceiling ---------------------------
# The acceptance floors themselves (16c/4core >= 3x 8c/1core; a reconnecting
# fleet resumes after exactly 8 full handshakes) are ``bench_scaleout.py
# --check``'s, on the same fleets; here: the table, the profile, determinism.


def test_multicore_table():
    print("\n=== sgfs-aes aggregate MB/s vs clients x server cores ===")
    counts = (1, 2, 4, 8, 16, 32)
    cores_list = (1, 2, 4, 8)
    header = f"{'cores':8s}" + "".join(f"{n:>9d}" for n in counts)
    print(header)
    print("-" * len(header))
    for cores in cores_list:
        row = []
        for n in counts:
            r = run(aes_fleet(n, cores), client_iozone)
            row.append(r.aggregate_throughput() / 1e6)
        print(f"{cores:<8d}" + "".join(f"{v:>9.1f}" for v in row))


def test_multicore_profile_reports_per_core_rows():
    server = run(aes_fleet(16, 4), client_iozone,
                 profile=True).profile["cpu"]["server"]
    assert server["cores"] == 4
    assert set(server["per_core"]) == {"0", "1", "2", "3"}
    # Affinity spreads 16 sessions over 4 cores: every core does real
    # work, none hogs it all.
    busys = [server["per_core"][k]["busy_seconds"] for k in "0123"]
    assert min(busys) > 0.25 * max(busys)
    # busy can exceed one makespan's worth now; per-core never can.
    for k in "0123":
        assert server["per_core"][k]["utilization_pct"] <= 100.0


def test_multicore_scaleout_bit_identical():
    a = run(aes_fleet(16, 4), client_iozone)
    b = run(aes_fleet(16, 4), client_iozone)
    assert a.makespan == b.makespan
    assert a.stats == b.stats

