"""Scale-out benchmark — the server-crypto ceiling, before and after.

Runs pinned sgfs-aes scenarios and writes ``BENCH_SCALEOUT.json``.  The
benchmark is one table (:func:`scenarios`: each row a label and the run
that measures it, mostly ``run(Scenario(...), factory)``), plus the
ratios (:data:`RATIOS`) and the conditions (:data:`CONDITIONS`) gated
on it:

- ``base-8c-1core``  — the saturated single-core baseline: 8 clients
  against one serialized server CPU on the widened (8x) LAN, aggregate
  throughput capped by per-session sealing;
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
- ``grid-12c-4s-s4`` — ``bench/``'s ``grid-fleet-wr`` geometry (12
  clients, 4 backends, 2 replicas, 4 streams, 512 KB files): a mount of
  4 legs x 4 channels, dialed one leg per backend at once, must pay
  exactly one full handshake per client and backend
  (``tls_full_handshakes`` == 48);
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
  revalidates under gridmap churn (``authz_stale`` > 0);
- ``wan-*`` — the WAN transfer engine: a 16 MB sgfs-aes IOzone through
  the caching proxy on the LAN and at 80 ms RTT with streams 1 and 4.
  Without the engine every cache-miss block costs a round trip; with 4
  sub-channels and two RTT-sized read-ahead windows in flight the 80 ms
  run must hold 90 % of the paper's stop-and-wait proxy on the LAN
  (``wan_ratio_s4_vs_lan`` >= 0.9), and 80 % of the same 4-stream engine
  on the LAN, ``wan-lan-16m-s4`` (``wan_ratio_s4_vs_lan_s4`` >= 0.8).
  ``wan-engine-{757,762}`` write then twice read files of 757 and 762
  32 KB records through a 4 MiB proxy cache at 80 ms and 4 streams (the
  geometry of ``bench/``'s ``iozone-wan-engine``): the first read pass
  of the smaller file once ran 15 % slower, a window-estimator artefact,
  and must now read within 3 % of the larger (``wan_cliff_757_vs_762``).
  ``wan-80ms-postmark-s{1,4}`` run PostMark against a capacity-squeezed
  proxy cache so eviction write-back traffic crosses the WAN mid-run;
  the windowed write-behind + compound envelopes must raise the
  transaction rate (``postmark_txn_gain_s4_vs_s1`` > 1.0).

Every recorded value is virtual-time (or a robust boolean) and
therefore deterministic.  ``--check`` fails the build if any floor or
condition does not hold, and then unless the fresh result equals the
committed ``BENCH_SCALEOUT.json`` exactly: the same keys, every value
equal.  A new scenario is a row of :func:`scenarios`; a new gate is a
row of :data:`RATIOS` or :data:`CONDITIONS`.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaleout.py
    PYTHONPATH=src python benchmarks/bench_scaleout.py \
        --out /tmp/BENCH_SCALEOUT.json --check
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import sys
import timeit
from functools import partial
from pathlib import Path

from repro.core.calibration import DEFAULT_CALIBRATION
from repro.gsi import Gridmap
from repro.harness import Scenario, run
from repro.obs.schema import metric_key, parse_key
from repro.workloads.churn import SessionChurn
from repro.workloads.iozone import IOzoneReadReread, IOzoneWriteRead
from repro.workloads.postmark import PostMark

#: the committed snapshot ``--check`` holds a fresh run to
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_SCALEOUT.json"

FILE_SIZE = 128 * 1024  # per client, read + reread
FAT_LAN = dataclasses.replace(
    DEFAULT_CALIBRATION, lan_bandwidth=DEFAULT_CALIBRATION.lan_bandwidth * 8
)
SUITE = "aes-256-cbc-sha1"

# Grid scenarios: enough clients that one single-core backend saturates
# (24 latency-capped clients demand ~2x what one core can seal), files
# large enough to amortize the per-backend TLS handshakes, and a client
# cache small enough that both read passes hit the protocol.
GRID_CLIENTS = 24
GRID_FILE_SIZE = 1024 * 1024  # per client, written + read + reread
GRID_BLOCK = 32 * 1024
#: per-client file of the multi-stream grid row (``bench/``'s
#: ``grid-fleet-wr`` geometry), small enough that mounting 4 legs x 4
#: channels is a large share of the makespan
GRID_S4_FILE_SIZE = 512 * 1024

# WAN transfer engine scenarios: a single large-file session through the
# caching proxy (prepared server-side, so the first read pass crosses
# the wire), on the stock calibration — WAN latency, not LAN bandwidth,
# is the quantity under test.
WAN_RTT = 0.080
WAN_FILE_SIZE = 16 * 1024 * 1024
WAN_STREAMS = 4
#: proxy cache capacity for the PostMark WAN runs — small enough that
#: eviction write-back traffic crosses the WAN during the timed phases
PM_CACHE_CAPACITY = 256 * 1024
#: the write-then-read engine rows: 32 KB records through a 4 MiB proxy
#: cache, so write-behind evictions and read-ahead both cross the WAN
ENGINE_RECORD = 32 * 1024
ENGINE_CACHE = 4 * 1024 * 1024

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


def aes_fleet(clients: int, cores: int = 1, **fields) -> Scenario:
    """The sgfs-aes fleet of the ``base``/``wide``/``resume`` rows (and of
    ``benchmarks/test_scaleout.py``), which runs :func:`client_iozone`."""
    return Scenario("sgfs-aes", clients=clients, cal=FAT_LAN, server_cores=cores,
                    **fields)


def client_iozone():
    return IOzoneReadReread(file_size=FILE_SIZE)


def authz_probe(sizes) -> dict:
    """The wall-clock gridmap probe at ``sizes`` = (small, large) entries:
    best-of-repeats seconds for the same number of lookups at each size,
    the O(1) verdict and the resolution check.  The wall-clock numbers
    are printed for the operator but kept out of the JSON."""
    dn = "/C=US/O=UFL/OU=pop/CN=User {:07d}".format
    maps, seconds = [], []
    for n in sizes:
        gm = Gridmap()
        # Raw dict population: DN parsing 10^6 names would dominate setup
        # without touching the quantity under test (hash lookup cost).
        gm.entries = {dn(i): f"acct{i % 97:02d}" for i in range(n)}
        probes = [dn(i * 7919 % n) for i in range(AUTHZ_PROBES)] * AUTHZ_ROUNDS
        seconds.append(min(timeit.repeat(lambda: list(map(gm.lookup_str, probes)),
                                         number=1, repeat=AUTHZ_REPEATS)))
        maps.append(gm)
    small, large = maps
    t_small, t_large = seconds
    last = sizes[1] - 1
    n = AUTHZ_ROUNDS * AUTHZ_PROBES
    print(f"  authz lookup: {sizes[0]} entries {t_small / n * 1e9:7.1f} ns/lookup, "
          f"{sizes[1]} entries {t_large / n * 1e9:7.1f} ns/lookup "
          f"({t_large / t_small:.2f}x, bound {AUTHZ_SLACK:.0f}x)")
    return {"o1_lookup": bool(t_large <= t_small * AUTHZ_SLACK),
            "lookups_resolved": small.lookup_str(dn(0)) == "acct00"
            and large.lookup_str(dn(last)) == f"acct{last % 97:02d}"
            and large.lookup_str("/C=US/O=UFL/OU=pop/CN=Nobody") is None}


# -- the table ----------------------------------------------------------------

def stat(component: str, name: str, **labels):
    """The snapshot value ``component/name{labels}`` (0 when absent)."""
    key = metric_key(name, labels)
    return lambda r: r.stats.get(component, {}).get(key, 0)


def stat_sum(component: str, name: str):
    """``component/name`` summed over all its label values."""
    return lambda r: sum(v for k, v in r.stats.get(component, {}).items()
                         if parse_key(k)[0] == name)


def scenarios():
    """Every scenario as data, in run order: (label, the run that
    measures it, the constant fields it records, its measured fields as
    name -> function of the run's result).  Built per call."""
    makespan, total = operator.attrgetter("makespan"), operator.attrgetter("total")
    fleet = {"makespan_virtual_seconds": makespan,
             # measured from per-client byte totals
             "aggregate_mb_per_sec": lambda r: round(r.aggregate_throughput() / 1e6, 3),
             "mean_client_seconds": operator.attrgetter("mean_client_seconds")}
    tls = {f"tls_{name}": stat("tls", name, role="server", suite=SUITE)
           for name in ("handshakes", "full_handshakes", "resumptions")}
    tls_split = {f"tls_{name}": tls[f"tls_{name}"]
               for name in ("full_handshakes", "resumptions")}
    aes = {**fleet, **tls_split}
    grid = {**fleet, **{f"striped_{rw}": stat("grid", f"striped_{rw}")
                        for rw in ("reads", "writes")}}
    churn = {"makespan_virtual_seconds": makespan, **tls,
             "sessions_per_vsec": lambda r: round(tls["tls_handshakes"](r) / r.makespan, 3),
             **{name: stat("gsi", name) for name in ("delegations", "renewals")},
             **{f"authz_{k}": stat("proxy.server", f"authz_cache_{k}")
                for k in ("hits", "misses", "stale")}}
    wan = {"virtual_seconds": total, "read_seconds": lambda r: r.phases["read"],
           "reread_seconds": lambda r: r.phases["reread"],
           # read + reread passes over the file
           "mb_per_sec": lambda r: round(2 * WAN_FILE_SIZE / r.total / 1e6, 3),
           "stream_bulk_calls": stat_sum("proxy.client", "stream_calls")}
    postmark = {"virtual_seconds": total,
                "transaction_seconds": lambda r: r.phases["transaction"],
                # 1000 transactions is the PostMark default this run uses
                "txn_per_sec": lambda r: round(1000 / r.phases["transaction"], 3),
                **{name: stat("proxy.client", name)
                   for name in ("writeback_blocks", "compound_envelopes")}}

    def aes_row(label, clients, cores, **recorded):
        return (label, partial(run, aes_fleet(clients, cores, **recorded), client_iozone),
                {"clients": clients, "server_cores": cores, **recorded}, aes)

    def grid_row(label, clients, servers, file_size, fields, **recorded):
        grid_fleet = Scenario("sgfs-aes", clients=clients, cal=FAT_LAN, server_cores=1,
                              servers=servers, grid_block_size=GRID_BLOCK,
                              cache_bytes=64 * 1024, **recorded)
        return (label, partial(run, grid_fleet, lambda: IOzoneWriteRead(file_size=file_size)),
                {"clients": clients, "servers": servers, "server_cores": 1,
                 **recorded}, fields)

    def churn_row(mode, tickets, **recorded):
        churning = Scenario(
            "sgfs-aes", clients=CHURN_CLIENTS, cal=FAT_LAN, server_cores=1,
            stagger=CHURN_STAGGER, reconnect_interval=CHURN_RECONNECT,
            session_tickets=tickets, **recorded)
        return (f"churn-8c-{mode}",
                partial(run, churning, lambda: SessionChurn(duration=CHURN_DURATION,
                                                            period=CHURN_PERIOD)),
                {"mode": mode, "clients": CHURN_CLIENTS, "duration": CHURN_DURATION,
                 "reconnect_interval": CHURN_RECONNECT, **recorded}, churn)

    def wan_row(label, rtt, streams):
        return (label, partial(run, Scenario("sgfs-aes", rtt=rtt, disk_cache=True,
                                             streams=streams),
                               lambda: IOzoneReadReread(file_size=WAN_FILE_SIZE)),
                {"rtt": rtt, "streams": streams, "file_size": WAN_FILE_SIZE}, wan)

    def engine_row(records):
        size = records * ENGINE_RECORD
        engine = Scenario("sgfs-aes", rtt=WAN_RTT, disk_cache=True, streams=WAN_STREAMS,
                          cache_capacity=ENGINE_CACHE)

        def mb_per_sec(phase):
            return lambda r: round(size / r.phases[phase] / 1e6, 3)

        return (f"wan-engine-{records}",
                partial(run, engine, lambda: IOzoneWriteRead(file_size=size)),
                {"rtt": WAN_RTT, "records": records, "streams": WAN_STREAMS,
                 "cache_capacity": ENGINE_CACHE},
                {"virtual_seconds": total,
                 **{f"{phase}_mb_per_sec": mb_per_sec(phase)
                    for phase in ("write", "read", "reread")},
                 "writeback_errors": stat("proxy.client", "writeback_errors")})

    def postmark_row(streams):
        cache = {"streams": streams, "cache_capacity": PM_CACHE_CAPACITY}
        return (f"wan-80ms-postmark-s{streams}",
                partial(run, Scenario("sgfs-aes", rtt=WAN_RTT, disk_cache=True, **cache),
                        PostMark),
                {"rtt": WAN_RTT, **cache}, postmark)

    return [
        aes_row("base-8c-1core", 8, 1),
        aes_row("wide-16c-4core", 16, 4),
        aes_row("resume-8c-4core", 8, 4, session_tickets=True, reconnect_interval=0.01),
        *[grid_row(f"grid-24c-{n}s", GRID_CLIENTS, n, GRID_FILE_SIZE, grid)
          for n in (1, 2, 4)],
        grid_row("grid-12c-4s-s4", 12, 4, GRID_S4_FILE_SIZE, {**grid, **tls_split},
                 replicas=2, streams=4),
        ("authz-1e6", partial(authz_probe, (AUTHZ_SMALL, AUTHZ_LARGE)),
         {"small_entries": AUTHZ_SMALL, "large_entries": AUTHZ_LARGE,
          "probes_per_round": AUTHZ_PROBES, "rounds": AUTHZ_ROUNDS},
         {k: operator.itemgetter(k) for k in ("o1_lookup", "lookups_resolved")}),
        churn_row("full", False),
        churn_row("resumed", True),
        churn_row("delegated", True, delegation_lifetime=CHURN_DELEGATION),
        wan_row("wan-lan-16m", 0.0, 1),
        wan_row(f"wan-lan-16m-s{WAN_STREAMS}", 0.0, WAN_STREAMS),
        wan_row("wan-80ms-16m-s1", WAN_RTT, 1), postmark_row(1),
        wan_row(f"wan-80ms-16m-s{WAN_STREAMS}", WAN_RTT, WAN_STREAMS),
        postmark_row(WAN_STREAMS),
        engine_row(757),
        engine_row(762),
    ]


#: (name, field, numerator scenario, denominator scenario, test, floor):
#: the ratio of one field between two scenarios, rounded to 3 places,
#: and the floor it must clear
RATIOS = [
    ("throughput_ratio_vs_base", "aggregate_mb_per_sec",
     "wide-16c-4core", "base-8c-1core", ">=", 3.0),
    ("grid_ratio_4s_vs_1s", "aggregate_mb_per_sec", "grid-24c-4s", "grid-24c-1s", ">=", 1.8),
    ("wan_ratio_s4_vs_lan", "mb_per_sec", f"wan-80ms-16m-s{WAN_STREAMS}", "wan-lan-16m",
     ">=", 0.9),
    ("wan_ratio_s4_vs_lan_s4", "mb_per_sec", f"wan-80ms-16m-s{WAN_STREAMS}",
     f"wan-lan-16m-s{WAN_STREAMS}", ">=", 0.8),
    ("postmark_txn_gain_s4_vs_s1", "txn_per_sec", f"wan-80ms-postmark-s{WAN_STREAMS}",
     "wan-80ms-postmark-s1", ">", 1.0),
    ("wan_cliff_757_vs_762", "read_mb_per_sec", "wan-engine-757", "wan-engine-762",
     ">=", 0.97),
]

#: (scenario, field, test, bound): what each scenario must show it
#: exercised; a callable bound is computed from the scenario's values
CONDITIONS = [
    *[(f"grid-24c-{n}s", f"striped_{rw}", ">", 0)
      for n in (2, 4) for rw in ("reads", "writes")],
    # one full handshake per (client, backend): every leg's channels
    # 1..3 resume, although a client dials its four legs at once
    ("grid-12c-4s-s4", "tls_full_handshakes", "==", 48),
    ("resume-8c-4core", "tls_resumptions", ">", 0),
    ("resume-8c-4core", "tls_full_handshakes", "==", 8),
    (f"wan-80ms-16m-s{WAN_STREAMS}", "stream_bulk_calls", ">", 0),
    (f"wan-80ms-postmark-s{WAN_STREAMS}", "writeback_blocks", ">", 0),
    (f"wan-80ms-postmark-s{WAN_STREAMS}", "compound_envelopes", ">", 0),
    *[(f"wan-engine-{records}", "writeback_errors", "==", 0) for records in (757, 762)],
    ("authz-1e6", "o1_lookup", "==", True),
    ("authz-1e6", "lookups_resolved", "==", True),
    ("churn-8c-full", "tls_resumptions", "==", 0),
    ("churn-8c-full", "tls_handshakes", ">", CHURN_CLIENTS),
    *[(f"churn-8c-{mode}", field, test, bound)
      for mode in ("resumed", "delegated")
      for field, test, bound in (("tls_full_handshakes", "==", CHURN_CLIENTS),
                                 ("tls_resumptions", ">", 0))],
    ("churn-8c-delegated", "renewals", ">", 0),
    ("churn-8c-delegated", "delegations", "==",
     lambda m: CHURN_CLIENTS + m.get("renewals", 0)),
    ("churn-8c-delegated", "authz_stale", ">", 0),
]

TESTS = {">": operator.gt, ">=": operator.ge, "==": operator.eq}


# -- run, measure, print, check -----------------------------------------------

def measure(result, constants: dict, fields: dict) -> dict:
    return {**constants, **{name: f(result) for name, f in fields.items()}}


def show(label: str, values: dict) -> None:
    cells = (f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
             for k, v in values.items())
    print(f"  {label:26s} " + " ".join(cells))


def run_benchmarks() -> dict:
    out = {"benchmark": "bench_scaleout", "workload": "iozone-read-reread",
           "setup": "sgfs-aes", "file_size": FILE_SIZE,
           "lan_bandwidth_multiplier": 8, "scenarios": {}}
    rows = out["scenarios"]
    for label, job, constants, fields in scenarios():
        rows[label] = measure(job(), constants, fields)
        show(label, {k: rows[label][k] for k in fields})
    for name, field, num, den, test, floor in RATIOS:
        out[name] = round(rows[num][field] / rows[den][field], 3)
        show(name, {"ratio": out[name], "floor": f"{test} {floor}"})
    return out


def _flat(tree: dict, prefix: str = "") -> dict:
    """``{"a/b": json text}`` for every leaf of a nested dict."""
    flat = {}
    for k, v in tree.items():
        if isinstance(v, dict):
            flat.update(_flat(v, f"{prefix}{k}/"))
        else:
            flat[prefix + k] = json.dumps(v)
    return flat


def check(result: dict, committed: dict) -> int:
    """1 unless every ratio floor and condition holds on ``result`` and
    ``result`` equals ``committed`` exactly (same keys, equal values);
    prints each failure and each differing value."""
    failures = []
    floors = [(None, name, test, floor) for name, _f, _n, _d, test, floor in RATIOS]
    for scenario, field, test, bound in floors + CONDITIONS:
        row = result.get("scenarios", {}).get(scenario, {}) if scenario else result
        value, limit = row.get(field), bound(row) if callable(bound) else bound
        if value is None or not TESTS[test](value, limit):
            failures.append(f"{scenario or 'ratio'} {field}={value}, not {test} {limit}")
    fresh, old = _flat(result), _flat(committed)
    for key in sorted(fresh.keys() | old.keys()):
        if fresh.get(key) != old.get(key):
            failures.append(f"{key}: committed {old.get(key, '(absent)')}, "
                            f"fresh {fresh.get(key, '(absent)')}")
    for msg in failures:
        print(f"FAIL: {msg}")
    if not failures:
        print(f"OK: {len(floors) + len(CONDITIONS)} floors and conditions hold; "
              f"all {len(old)} values equal {COMMITTED.name}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_SCALEOUT.json",
                        help="output path (default: BENCH_SCALEOUT.json)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless every floor and condition holds and "
                             "the result equals the committed BENCH_SCALEOUT.json")
    args = parser.parse_args(argv)
    print("bench_scaleout (sgfs-aes, fat LAN)")
    # read before --out may overwrite it
    committed = json.loads(COMMITTED.read_text(encoding="utf-8")) if args.check else None
    result = run_benchmarks()
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {args.out}")
    return check(result, committed) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
