"""Scale-out benchmark — the server-crypto ceiling, before and after.

Runs pinned sgfs-aes fleet scenarios on the widened (8x) LAN and writes
``BENCH_SCALEOUT.json``:

- ``base-8c-1core``  — the saturated single-core baseline: 8 clients
  against one serialized server CPU, aggregate throughput capped by
  per-session sealing;
- ``wide-16c-4core`` — 16 clients against a 4-core server with
  per-session crypto affinity; the headline ``throughput_ratio_vs_base``
  is the acceptance number (must be >= 3.0);
- ``resume-8c-4core`` — a reconnect-heavy fleet with session tickets:
  every reconnect takes the abbreviated handshake, so only the initial
  connections pay the full RSA exchange;
- ``grid-24c-{1,2,4}s`` — the sharded data plane: 24 clients running the
  verified write/read workload against 1, 2, and 4 single-core backends
  with 32 KB stripe blocks.  The single-backend run saturates the one
  server core; striping spreads block I/O (and its sealing) across the
  backends, and ``grid_ratio_4s_vs_1s`` (must be >= 1.8) is the
  scale-out acceptance number;
- ``wan-*`` — the WAN transfer engine: a 16 MB sgfs-aes IOzone through
  the caching proxy on the LAN and at 80 ms RTT with streams 1 and 4.
  Without the engine every cache-miss block costs a round trip; with 4
  sub-channels and RTT-sized read-ahead windows the 80 ms run must stay
  within 2x of LAN throughput (``wan_ratio_s4_vs_lan`` >= 0.5).
  ``wan-80ms-postmark-s{1,4}`` run PostMark against a capacity-squeezed
  proxy cache so eviction write-back traffic crosses the WAN mid-run;
  the windowed write-behind + compound envelopes must raise the
  transaction rate (``postmark_txn_gain_s4_vs_s1`` > 1.0);
- ``authz-1e6`` — the population-scale identity layer: hashed-gridmap
  lookup cost probed at 10^3 and 10^6 entries.  The wall-clock times
  are printed but **not** recorded (they are not virtual-time); what is
  recorded is the robust boolean ``o1_lookup`` — the 10^6 lookups must
  stay within 8x of the 10^3 lookups (a hash map sits near 1x, a linear
  scan near 1000x) — plus the deterministic resolution check;
- ``churn-8c-{full,resumed,delegated}`` — session-establishment
  throughput under login storms: 8 staggered long-lived
  :class:`~repro.workloads.churn.SessionChurn` clients cycling their
  upstream sessions.  ``full`` pays the complete RSA handshake on every
  reconnect; ``resumed`` turns session tickets on (exactly 8 full
  handshakes, the initial logins); ``delegated`` additionally
  authenticates with short-lived limited proxy credentials that expire
  mid-run, so reconnects interleave re-delegations with abbreviated
  handshakes while the server proxy's epoch-stamped authz cache
  revalidates under gridmap churn (``authz_stale`` > 0).

Every recorded value is virtual-time (or a robust boolean) and
therefore deterministic: the committed snapshot must match a fresh run
bit-for-bit (CI enforces this with ``repro bench-diff``), and
``--check`` additionally fails the build if the multi-core speedup ever
drops below 3x, the 4-backend grid speedup below 1.8x, the gridmap
lookup stops being O(1), or the churn fleets stop resuming / renewing.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaleout.py
    PYTHONPATH=src python benchmarks/bench_scaleout.py \
        --out /tmp/BENCH_SCALEOUT.json --check
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro.core.calibration import DEFAULT_CALIBRATION
from repro.gsi import Gridmap
from repro.harness import run_fleet, run_iozone, run_postmark
from repro.workloads.churn import SessionChurn
from repro.workloads.iozone import IOzoneReadReread, IOzoneWriteRead

FILE_SIZE = 128 * 1024  # per client, read + reread
FAT_LAN = dataclasses.replace(
    DEFAULT_CALIBRATION, lan_bandwidth=DEFAULT_CALIBRATION.lan_bandwidth * 8
)
SUITE = "aes-256-cbc-sha1"
MIN_RATIO = 3.0

# Grid scenarios: enough clients that one single-core backend saturates
# (24 latency-capped clients demand ~2x what one core can seal), files
# large enough to amortize the per-backend TLS handshakes, and a client
# cache small enough that both read passes hit the protocol.
GRID_CLIENTS = 24
GRID_FILE_SIZE = 1024 * 1024  # per client, written + read + reread
GRID_BLOCK = 32 * 1024
MIN_GRID_RATIO = 1.8

# WAN transfer engine scenarios: a single large-file session through the
# caching proxy (prepared server-side, so the first read pass crosses
# the wire), on the stock calibration — WAN latency, not LAN bandwidth,
# is the quantity under test.
WAN_RTT = 0.080
WAN_FILE_SIZE = 16 * 1024 * 1024
WAN_STREAMS = 4
MIN_WAN_RATIO = 0.5
#: proxy cache capacity for the PostMark WAN runs — small enough that
#: eviction write-back traffic crosses the WAN during the timed phases
PM_CACHE_CAPACITY = 256 * 1024

# Population-scale authz: probe the hashed gridmap at two sizes three
# decades apart.  min-of-repeats wall clock with an 8x slack makes the
# O(1) verdict robust (a linear scan would blow the bound by ~100x).
AUTHZ_SMALL = 1_000
AUTHZ_LARGE = 1_000_000
AUTHZ_PROBES = 64
AUTHZ_ROUNDS = 200
AUTHZ_REPEATS = 5
AUTHZ_SLACK = 8.0

# Session churn: 8 clients staggered into a login storm, each a
# long-lived light-I/O session cycling its upstream every 1.5 virtual
# seconds; the delegated variant's 4 s proxy lifetime forces several
# renewals inside the 12 s run.
CHURN_CLIENTS = 8
CHURN_DURATION = 12.0
CHURN_PERIOD = 0.5
CHURN_STAGGER = 0.25
CHURN_RECONNECT = 1.5
CHURN_DELEGATION = 4.0


def aes_fleet(clients: int, cores: int = 1, **kw):
    return run_fleet(
        "sgfs-aes", lambda: IOzoneReadReread(file_size=FILE_SIZE),
        clients=clients, cal=FAT_LAN, server_cores=cores, **kw,
    )


def _grid_fleet(servers: int):
    return run_fleet(
        "sgfs-aes", lambda: IOzoneWriteRead(file_size=GRID_FILE_SIZE),
        clients=GRID_CLIENTS, cal=FAT_LAN, server_cores=1,
        servers=servers, grid_block_size=GRID_BLOCK,
        setup_kwargs={"cache_bytes": 64 * 1024},
    )


def _wan_iozone(rtt: float, streams: int):
    return run_iozone(
        "sgfs-aes", rtt=rtt, file_size=WAN_FILE_SIZE,
        setup_kwargs={"disk_cache": True, "streams": streams},
        telemetry=True,
    )


def _wan_measure(result, rtt: float, streams: int) -> dict:
    pc = result.stats.get("proxy.client", {})
    bulk_calls = sum(
        v for k, v in pc.items() if k.startswith("stream_calls{")
    )
    return {
        "rtt": rtt,
        "streams": streams,
        "file_size": WAN_FILE_SIZE,
        "virtual_seconds": result.total,
        "read_seconds": result.phases["read"],
        "reread_seconds": result.phases["reread"],
        # read + reread passes over the file
        "mb_per_sec": round(2 * WAN_FILE_SIZE / result.total / 1e6, 3),
        "stream_bulk_calls": bulk_calls,
    }


def _wan_postmark(streams: int):
    return run_postmark(
        "sgfs-aes", rtt=WAN_RTT,
        setup_kwargs={"disk_cache": True, "streams": streams,
                      "cache_capacity": PM_CACHE_CAPACITY},
        telemetry=True,
    )


def _pm_measure(result, streams: int) -> dict:
    pc = result.stats.get("proxy.client", {})
    txn_seconds = result.phases["transaction"]
    return {
        "rtt": WAN_RTT,
        "streams": streams,
        "cache_capacity": PM_CACHE_CAPACITY,
        "virtual_seconds": result.total,
        "transaction_seconds": txn_seconds,
        # 1000 transactions is the PostMark default this run uses
        "txn_per_sec": round(1000 / txn_seconds, 3),
        "writeback_blocks": pc.get("writeback_blocks", 0),
        "compound_envelopes": pc.get("compound_envelopes", 0),
    }


def _grid_measure(result, servers: int) -> dict:
    stats = result.stats.get("grid", {})
    return {
        "clients": GRID_CLIENTS,
        "servers": servers,
        "server_cores": 1,
        "makespan_virtual_seconds": result.makespan,
        # measured from per-client byte totals (not the per-client
        # estimate — see FleetResult.aggregate_throughput)
        "aggregate_mb_per_sec": round(result.aggregate_throughput() / 1e6, 3),
        "mean_client_seconds": result.mean_client_seconds,
        "striped_reads": stats.get("striped_reads", 0),
        "striped_writes": stats.get("striped_writes", 0),
    }


def _population_gridmap(entries: int) -> Gridmap:
    # Raw dict population: DN parsing 10^6 names would dominate setup
    # without touching the quantity under test (hash lookup cost).
    gm = Gridmap()
    gm.entries = {
        f"/C=US/O=UFL/OU=pop/CN=User {i:07d}": f"acct{i % 97:02d}"
        for i in range(entries)
    }
    return gm


def _lookup_seconds(gm: Gridmap, entries: int) -> float:
    """Best-of-repeats wall seconds for AUTHZ_ROUNDS×AUTHZ_PROBES lookups."""
    probes = [
        f"/C=US/O=UFL/OU=pop/CN=User {(i * 7919) % entries:07d}"
        for i in range(AUTHZ_PROBES)
    ]
    lookup = gm.lookup_str
    best = float("inf")
    for _ in range(AUTHZ_REPEATS):
        t0 = time.perf_counter()
        for _ in range(AUTHZ_ROUNDS):
            for dn in probes:
                lookup(dn)
        best = min(best, time.perf_counter() - t0)
    return best


def _authz_measure() -> dict:
    small = _population_gridmap(AUTHZ_SMALL)
    large = _population_gridmap(AUTHZ_LARGE)
    resolved = (
        small.lookup_str(f"/C=US/O=UFL/OU=pop/CN=User {0:07d}") == "acct00"
        and large.lookup_str(
            f"/C=US/O=UFL/OU=pop/CN=User {AUTHZ_LARGE - 1:07d}"
        ) == f"acct{(AUTHZ_LARGE - 1) % 97:02d}"
        and large.lookup_str("/C=US/O=UFL/OU=pop/CN=Nobody") is None
    )
    t_small = _lookup_seconds(small, AUTHZ_SMALL)
    t_large = _lookup_seconds(large, AUTHZ_LARGE)
    # Wall-clock numbers are printed for the operator but kept out of
    # the JSON — only virtual-time and robust booleans are committed.
    n = AUTHZ_ROUNDS * AUTHZ_PROBES
    print(f"  authz lookup: {AUTHZ_SMALL} entries "
          f"{t_small / n * 1e9:7.1f} ns/lookup, "
          f"{AUTHZ_LARGE} entries {t_large / n * 1e9:7.1f} ns/lookup "
          f"({t_large / t_small:.2f}x, bound {AUTHZ_SLACK:.0f}x)")
    return {
        "small_entries": AUTHZ_SMALL,
        "large_entries": AUTHZ_LARGE,
        "probes_per_round": AUTHZ_PROBES,
        "rounds": AUTHZ_ROUNDS,
        "o1_lookup": bool(t_large <= t_small * AUTHZ_SLACK),
        "lookups_resolved": bool(resolved),
    }


def _churn_fleet(**kw):
    return run_fleet(
        "sgfs-aes",
        lambda: SessionChurn(duration=CHURN_DURATION, period=CHURN_PERIOD),
        clients=CHURN_CLIENTS, cal=FAT_LAN, server_cores=1,
        stagger=CHURN_STAGGER, reconnect_interval=CHURN_RECONNECT, **kw,
    )


def _churn_measure(result, label: str) -> dict:
    tls = result.stats.get("tls", {})
    gsi = result.stats.get("gsi", {})
    psrv = result.stats.get("proxy.server", {})
    # ``handshakes`` counts every establishment; the full/resumed split
    # is only on the wire (and counted) when tickets are negotiated.
    total = tls.get(f"handshakes{{role=server,suite={SUITE}}}", 0)
    full = tls.get(f"full_handshakes{{role=server,suite={SUITE}}}", 0)
    resumed = tls.get(f"resumptions{{role=server,suite={SUITE}}}", 0)
    return {
        "mode": label,
        "clients": CHURN_CLIENTS,
        "duration": CHURN_DURATION,
        "reconnect_interval": CHURN_RECONNECT,
        "makespan_virtual_seconds": result.makespan,
        "tls_handshakes": total,
        "tls_full_handshakes": full,
        "tls_resumptions": resumed,
        "sessions_per_vsec": round(total / result.makespan, 3),
        "delegations": gsi.get("delegations", 0),
        "renewals": gsi.get("renewals", 0),
        "authz_hits": psrv.get("authz_cache_hits", 0),
        "authz_misses": psrv.get("authz_cache_misses", 0),
        "authz_stale": psrv.get("authz_cache_stale", 0),
    }


def _measure(result, clients: int, cores: int) -> dict:
    tls = result.stats.get("tls", {})
    return {
        "clients": clients,
        "server_cores": cores,
        "makespan_virtual_seconds": result.makespan,
        "aggregate_mb_per_sec": round(
            result.aggregate_throughput(2 * FILE_SIZE) / 1e6, 3
        ),
        "mean_client_seconds": result.mean_client_seconds,
        "tls_full_handshakes": tls.get(
            f"full_handshakes{{role=server,suite={SUITE}}}", 0
        ),
        "tls_resumptions": tls.get(
            f"resumptions{{role=server,suite={SUITE}}}", 0
        ),
    }


def run_benchmarks() -> dict:
    out = {
        "benchmark": "bench_scaleout",
        "workload": "iozone-read-reread",
        "setup": "sgfs-aes",
        "file_size": FILE_SIZE,
        "lan_bandwidth_multiplier": 8,
        "scenarios": {},
    }
    base = aes_fleet(8, 1)
    out["scenarios"]["base-8c-1core"] = _measure(base, 8, 1)
    wide = aes_fleet(16, 4)
    out["scenarios"]["wide-16c-4core"] = _measure(wide, 16, 4)
    resume = aes_fleet(8, 4, session_tickets=True, reconnect_interval=0.01)
    out["scenarios"]["resume-8c-4core"] = _measure(resume, 8, 4)
    out["scenarios"]["resume-8c-4core"]["session_tickets"] = True
    out["scenarios"]["resume-8c-4core"]["reconnect_interval"] = 0.01
    for servers in (1, 2, 4):
        grid = _grid_fleet(servers)
        out["scenarios"][f"grid-24c-{servers}s"] = _grid_measure(grid, servers)
    out["scenarios"]["authz-1e6"] = _authz_measure()
    out["scenarios"]["churn-8c-full"] = _churn_measure(
        _churn_fleet(), "full")
    out["scenarios"]["churn-8c-resumed"] = _churn_measure(
        _churn_fleet(session_tickets=True), "resumed")
    out["scenarios"]["churn-8c-delegated"] = _churn_measure(
        _churn_fleet(session_tickets=True,
                     delegation_lifetime=CHURN_DELEGATION), "delegated")
    out["scenarios"]["churn-8c-delegated"]["delegation_lifetime"] = (
        CHURN_DELEGATION)
    out["scenarios"]["wan-lan-16m"] = _wan_measure(
        _wan_iozone(0.0, 1), 0.0, 1)
    for streams in (1, WAN_STREAMS):
        out["scenarios"][f"wan-80ms-16m-s{streams}"] = _wan_measure(
            _wan_iozone(WAN_RTT, streams), WAN_RTT, streams)
        out["scenarios"][f"wan-80ms-postmark-s{streams}"] = _pm_measure(
            _wan_postmark(streams), streams)
    ratio = (out["scenarios"]["wide-16c-4core"]["aggregate_mb_per_sec"]
             / out["scenarios"]["base-8c-1core"]["aggregate_mb_per_sec"])
    out["throughput_ratio_vs_base"] = round(ratio, 3)
    grid_ratio = (out["scenarios"]["grid-24c-4s"]["aggregate_mb_per_sec"]
                  / out["scenarios"]["grid-24c-1s"]["aggregate_mb_per_sec"])
    out["grid_ratio_4s_vs_1s"] = round(grid_ratio, 3)
    wan_ratio = (out["scenarios"][f"wan-80ms-16m-s{WAN_STREAMS}"]["mb_per_sec"]
                 / out["scenarios"]["wan-lan-16m"]["mb_per_sec"])
    out["wan_ratio_s4_vs_lan"] = round(wan_ratio, 3)
    pm_gain = (
        out["scenarios"][f"wan-80ms-postmark-s{WAN_STREAMS}"]["txn_per_sec"]
        / out["scenarios"]["wan-80ms-postmark-s1"]["txn_per_sec"])
    out["postmark_txn_gain_s4_vs_s1"] = round(pm_gain, 3)
    for label, m in out["scenarios"].items():
        if label.startswith(("wan-", "authz-", "churn-")):
            continue
        extra = (f"striped_r={m['striped_reads']} striped_w={m['striped_writes']}"
                 if "striped_reads" in m else
                 f"full_hs={m['tls_full_handshakes']} "
                 f"resumed={m['tls_resumptions']}")
        print(f"  {label:16s} {m['aggregate_mb_per_sec']:8.1f} MB/s  "
              f"makespan {m['makespan_virtual_seconds']:.5f}s  {extra}")
    for label in ("churn-8c-full", "churn-8c-resumed", "churn-8c-delegated"):
        m = out["scenarios"][label]
        print(f"  {label:20s} {m['sessions_per_vsec']:6.2f} sessions/s  "
              f"hs={m['tls_handshakes']} "
              f"full={m['tls_full_handshakes']} "
              f"resumed={m['tls_resumptions']} "
              f"renewals={m['renewals']} "
              f"authz h/m/s={m['authz_hits']}/{m['authz_misses']}/"
              f"{m['authz_stale']}")
    for label in ("wan-lan-16m", "wan-80ms-16m-s1",
                  f"wan-80ms-16m-s{WAN_STREAMS}"):
        m = out["scenarios"][label]
        print(f"  {label:18s} {m['mb_per_sec']:8.2f} MB/s  "
              f"total {m['virtual_seconds']:.3f}s  streams={m['streams']}")
    for label in ("wan-80ms-postmark-s1",
                  f"wan-80ms-postmark-s{WAN_STREAMS}"):
        m = out["scenarios"][label]
        print(f"  {label:18s} {m['txn_per_sec']:8.1f} txn/s  "
              f"txn phase {m['transaction_seconds']:.3f}s  "
              f"streams={m['streams']}")
    print(f"  throughput ratio 16c/4core vs 8c/1core: {ratio:.2f}x")
    print(f"  grid throughput ratio 4 backends vs 1: {grid_ratio:.2f}x")
    print(f"  wan 80ms throughput vs lan (streams={WAN_STREAMS}): "
          f"{wan_ratio:.2f}x")
    print(f"  wan postmark txn-rate gain s{WAN_STREAMS} vs s1: {pm_gain:.2f}x")
    return out


def check(result: dict) -> int:
    failures = []
    ratio = result["throughput_ratio_vs_base"]
    if ratio < MIN_RATIO:
        failures.append(
            f"multi-core speedup {ratio:.2f}x below the {MIN_RATIO:.1f}x floor"
        )
    grid_ratio = result["grid_ratio_4s_vs_1s"]
    if grid_ratio < MIN_GRID_RATIO:
        failures.append(
            f"4-backend grid speedup {grid_ratio:.2f}x below the "
            f"{MIN_GRID_RATIO:.1f}x floor"
        )
    for servers in (2, 4):
        g = result["scenarios"][f"grid-24c-{servers}s"]
        if g["striped_reads"] <= 0 or g["striped_writes"] <= 0:
            failures.append(
                f"grid-24c-{servers}s recorded no striped I/O "
                f"(reads={g['striped_reads']}, writes={g['striped_writes']})"
            )
    resume = result["scenarios"]["resume-8c-4core"]
    if resume["tls_resumptions"] <= 0:
        failures.append("reconnect-heavy fleet recorded no TLS resumptions")
    if resume["tls_full_handshakes"] != 8:
        failures.append(
            f"expected exactly 8 full handshakes (initial connections), "
            f"got {resume['tls_full_handshakes']}"
        )
    wan_ratio = result["wan_ratio_s4_vs_lan"]
    if wan_ratio < MIN_WAN_RATIO:
        failures.append(
            f"80ms WAN throughput with {WAN_STREAMS} streams is "
            f"{wan_ratio:.2f}x of LAN, below the {MIN_WAN_RATIO:.1f}x floor"
        )
    wan_s4 = result["scenarios"][f"wan-80ms-16m-s{WAN_STREAMS}"]
    if wan_s4["stream_bulk_calls"] <= 0:
        failures.append(
            "multi-stream WAN run recorded no sub-channel bulk calls"
        )
    pm_gain = result["postmark_txn_gain_s4_vs_s1"]
    if pm_gain <= 1.0:
        failures.append(
            f"WAN PostMark txn rate did not improve with {WAN_STREAMS} "
            f"streams (gain {pm_gain:.2f}x)"
        )
    pm_s4 = result["scenarios"][f"wan-80ms-postmark-s{WAN_STREAMS}"]
    if pm_s4["writeback_blocks"] <= 0 or pm_s4["compound_envelopes"] <= 0:
        failures.append(
            f"WAN PostMark run never exercised windowed write-back "
            f"(blocks={pm_s4['writeback_blocks']}, "
            f"envelopes={pm_s4['compound_envelopes']})"
        )
    authz = result["scenarios"]["authz-1e6"]
    if not authz["o1_lookup"]:
        failures.append(
            f"gridmap lookup at {AUTHZ_LARGE} entries exceeded "
            f"{AUTHZ_SLACK:.0f}x the {AUTHZ_SMALL}-entry cost — not O(1)"
        )
    if not authz["lookups_resolved"]:
        failures.append("population gridmap lookups resolved incorrectly")
    full = result["scenarios"]["churn-8c-full"]
    if full["tls_resumptions"] != 0:
        failures.append(
            f"ticket-less churn fleet recorded "
            f"{full['tls_resumptions']} resumptions"
        )
    if full["tls_handshakes"] <= CHURN_CLIENTS:
        failures.append(
            f"ticket-less churn fleet never re-handshook "
            f"(handshakes={full['tls_handshakes']})"
        )
    for label in ("churn-8c-resumed", "churn-8c-delegated"):
        m = result["scenarios"][label]
        if m["tls_full_handshakes"] != CHURN_CLIENTS:
            failures.append(
                f"{label}: expected exactly {CHURN_CLIENTS} full handshakes "
                f"(the initial logins), got {m['tls_full_handshakes']}"
            )
        if m["tls_resumptions"] <= 0:
            failures.append(f"{label} recorded no TLS resumptions")
    deleg = result["scenarios"]["churn-8c-delegated"]
    if deleg["renewals"] <= 0:
        failures.append("delegated churn fleet never renewed a delegation")
    if deleg["delegations"] != CHURN_CLIENTS + deleg["renewals"]:
        failures.append(
            f"delegation accounting off: {deleg['delegations']} != "
            f"{CHURN_CLIENTS} logins + {deleg['renewals']} renewals"
        )
    if deleg["authz_stale"] <= 0:
        failures.append(
            "delegated churn never revalidated a stale authz cache entry "
            "(gridmap epoch invalidation untested)"
        )
    for msg in failures:
        print(f"FAIL: {msg}")
    if not failures:
        print(f"OK: {ratio:.2f}x >= {MIN_RATIO:.1f}x, "
              f"grid {grid_ratio:.2f}x >= {MIN_GRID_RATIO:.1f}x, "
              f"wan {wan_ratio:.2f}x >= {MIN_WAN_RATIO:.1f}x, "
              f"postmark gain {pm_gain:.2f}x, "
              f"{resume['tls_resumptions']} resumptions, "
              f"authz O(1) at {AUTHZ_LARGE} entries, "
              f"churn renewals {deleg['renewals']}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_SCALEOUT.json",
                        help="output path (default: BENCH_SCALEOUT.json)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the multi-core speedup is >= 3x, "
                             "the 4-backend grid speedup is >= 1.8x, the "
                             "80ms WAN run holds >= 0.5x LAN throughput "
                             "with 4 streams, the WAN PostMark txn rate "
                             "improves, the reconnect fleet resumed "
                             "sessions, the 10^6-entry gridmap lookup "
                             "stays O(1), and the churn fleets resumed / "
                             "renewed as configured")
    args = parser.parse_args(argv)
    print("bench_scaleout (sgfs-aes, fat LAN)")
    result = run_benchmarks()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if args.check:
        return check(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
