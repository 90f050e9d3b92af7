"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — the available setups, cipher suites and workloads,
- ``info`` — the active calibration constants,
- ``run`` — one workload on one setup at one RTT, with per-phase output;
  ``--clients N`` scales it out to an N-client concurrent fleet
  (per-client sessions, caches, and DRBG streams; one contended server),
- ``figure`` — regenerate one of the paper's figures as a text table,
- ``sweep`` — a workload across a list of RTTs for two setups
  (Figure-8-style series for any workload),
- ``stats`` — run with telemetry and print the cross-layer metrics
  registry snapshot (``--json`` for machine-readable output),
- ``trace`` — run with span tracing and write a Chrome-trace JSON file
  loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing,
- ``profile`` — run with full profiling (telemetry + tracing + resource
  occupancy recording) and print the bottleneck-attribution report:
  CPU busy/crypto percentages per host, link occupancy, lock waits,
  RPC queue depth, and the virtual-time critical path.  ``--clients N``
  profiles an N-client fleet; ``--flame FILE`` writes a collapsed-stack
  flame graph (flamegraph.pl / speedscope compatible); ``--json FILE``
  writes the full report as JSON.

``run``, ``stats``, ``trace`` and ``profile`` spell their scenario with
the same flags (one parent parser): ``--setup``, ``--workload``,
``--rtt-ms``, ``--disk-cache``, ``--streams``, ``--clients`` and the fleet
options, ``--faults``.  :func:`_run` makes them one
:class:`~repro.harness.Scenario` — the paper's seat or, with ``--clients
N``, a fleet — and runs the workload from :data:`WORKLOADS` there.  Which
setup supports which option is the harness's decision
(:meth:`repro.harness.Scenario.check`); the CLI prints its refusal.

Everything prints virtual-time seconds from the deterministic simulation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.calibration import DEFAULT_CALIBRATION
from repro.core.setups import PROXY_CACHE_SETUPS, SETUP_BUILDERS
from repro.crypto.suites import SUITES
from repro.faults import FAULT_PRESETS
from repro.harness import Scenario, figure_table, run, run_figure
from repro.harness.tables import figures
from repro.workloads.churn import SessionChurn
from repro.workloads.iozone import IOzoneReadReread, IOzoneWriteRead
from repro.workloads.mab import ModifiedAndrewBenchmark
from repro.workloads.postmark import PostMark
from repro.workloads.seismic import Seismic

#: name -> workload class: the one table every command runs from
WORKLOADS = {
    "iozone": IOzoneReadReread,
    "iozone-wr": IOzoneWriteRead,
    "postmark": PostMark,
    "mab": ModifiedAndrewBenchmark,
    "seismic": Seismic,
    "churn": SessionChurn,
}
#: workloads that make sense for one client (churn needs a fleet)
SINGLE_WORKLOADS = sorted(set(WORKLOADS) - {"churn"})

def _ms(text: str) -> float:
    """A ``*-ms`` flag's value as the virtual seconds its field holds."""
    return float(text) / 1000.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SGFS (SC'07) reproduction — run simulated experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list setups, suites, workloads, figures")
    sub.add_parser("info", help="show the calibration constants")

    # The scenario, spelled once: run, stats, trace and profile inherit it.
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--workload", choices=sorted(WORKLOADS),
                          required=True,
                          help="benchmark to run; 'churn' (long-lived "
                               "light-I/O sessions) requires --clients >= 2")
    scenario.add_argument("--setup", choices=sorted(SETUP_BUILDERS),
                          required=True)
    scenario.add_argument("--rtt-ms", type=float, default=0.0,
                          help="emulated WAN round-trip time (default: LAN)")
    scenario.add_argument("--file-size", type=int, default=None,
                          help="iozone file size in bytes (default: the "
                               "workload's own default)")
    scenario.add_argument("--disk-cache", action="store_true",
                          help="enable the proxy disk cache (proxied setups)")
    scenario.add_argument("--streams", type=int, default=1,
                          help="parallel proxy-to-proxy channels per upstream "
                               "leg; bulk block traffic round-robins across "
                               "them and the read-ahead/write-behind window "
                               "grows to the RTT (default: 1 = one channel, "
                               "one block per round trip)")
    scenario.add_argument("--faults", choices=sorted(FAULT_PRESETS), default=None,
                          help="run under a deterministic adversarial network "
                               "(packet loss, duplication, flaps, crashes)")
    scenario.add_argument("--fault-seed", default="faults",
                          help="seed for the fault schedule; same seed => "
                               "identical drop schedule (default: 'faults')")
    scenario.add_argument("--session-tickets", action="store_true",
                          help="enable TLS session tickets between the "
                               "proxies (sgfs* setups), so a reconnecting "
                               "session resumes with an abbreviated handshake")
    scenario.add_argument("--clients", type=int, default=1,
                          help="fleet size: run N concurrent clients against "
                               "one server (default: 1 = classic single run)")
    # Each flag of the group sets the Scenario field of its dest; at one
    # client every one of them is an error (_run).
    fleet = scenario.add_argument_group("fleet options (--clients >= 2)")
    scenario.set_defaults(fleet_flags=[
        fleet.add_argument("--stagger-ms", dest="stagger", type=_ms, default=0.0,
                           metavar="MS",
                           help="virtual milliseconds between fleet client "
                                "starts (default: 0 = synchronized)"),
        fleet.add_argument("--server-cores", type=int, default=1, metavar="N",
                           help="server CPU cores for fleet runs; distinct "
                                "sessions pin to distinct cores and profile "
                                "reports gain per-core rows (default: 1)"),
        fleet.add_argument("--reconnect-ms", dest="reconnect_interval", type=_ms,
                           default=None, metavar="MS",
                           help="cycle each fleet client's upstream session "
                                "every N virtual milliseconds (exercises "
                                "resumption)"),
        fleet.add_argument("--delegation-ms", dest="delegation_lifetime", type=_ms,
                           default=None, metavar="MS",
                           help="SSO mode: fleet clients authenticate with "
                                "short-lived limited proxy credentials valid N "
                                "virtual milliseconds; expiry forces "
                                "re-delegation on the next reconnect (secure "
                                "sgfs* setups only)"),
        fleet.add_argument("--servers", type=int, default=1, metavar="N",
                           help="shard the data plane across N backend NFS "
                                "servers; grid-created files stripe their "
                                "blocks round-robin (default: 1 = unsharded)"),
        fleet.add_argument("--replicas", type=int, default=1, metavar="N",
                           help="write each grid block to N consecutive "
                                "backends so reads survive a backend crash "
                                "(default: 1 = no replication)"),
    ])

    run_p = sub.add_parser("run", parents=[scenario],
                           help="run one workload on one setup")
    run_p.add_argument("--cpu", action="store_true",
                       help="also print proxy/daemon CPU utilization")
    run_p.add_argument("--stats-json", default=None, metavar="FILE",
                       help="write the cross-layer metrics snapshot to "
                            "FILE as JSON")

    fig_p = sub.add_parser("figure", help="regenerate a figure of the paper")
    fig_p.add_argument("name", choices=list(figures()))

    sweep_p = sub.add_parser("sweep", help="one workload across RTTs, two setups")
    sweep_p.add_argument("--workload", choices=SINGLE_WORKLOADS,
                         default="postmark")
    sweep_p.add_argument("--baseline", choices=sorted(SETUP_BUILDERS),
                         default="nfs-v3")
    sweep_p.add_argument("--setup", choices=sorted(SETUP_BUILDERS), default="sgfs")
    sweep_p.add_argument("--rtts-ms", default="5,10,20,40,80",
                         help="comma-separated RTT list in milliseconds")

    stats_p = sub.add_parser(
        "stats", parents=[scenario],
        help="run with telemetry and print the metrics-registry snapshot",
    )
    stats_p.add_argument("--json", action="store_true",
                         help="emit the snapshot as JSON (machine-readable)")

    trace_p = sub.add_parser(
        "trace", parents=[scenario],
        help="run with span tracing and write Chrome-trace JSON "
             "(load in Perfetto or chrome://tracing)",
    )
    trace_p.add_argument("--out", default="trace.json",
                         help="output file (default: trace.json)")

    prof_p = sub.add_parser(
        "profile", parents=[scenario],
        help="run with full profiling and print the bottleneck-"
             "attribution report (virtual-time critical path, CPU/link/"
             "lock/queue utilization)",
    )
    prof_p.add_argument("--window", type=float, default=None,
                        help="utilization-timeline bucket width in virtual "
                             "seconds (default: makespan/20)")
    prof_p.add_argument("--top", type=int, default=10,
                        help="rows per ranked report section (default: 10)")
    prof_p.add_argument("--flame", default=None, metavar="FILE",
                        help="write a collapsed-stack flame graph "
                             "(flamegraph.pl / speedscope 'collapsed' input)")
    prof_p.add_argument("--json", dest="json_out", default=None, metavar="FILE",
                        help="write the full attribution report to FILE as "
                             "JSON (deterministic: same seed => same bytes)")
    return parser


# -- commands -----------------------------------------------------------------


def _cmd_list(out) -> int:
    print("setups: ", ", ".join(sorted(SETUP_BUILDERS)), file=out)
    print("suites: ", ", ".join(sorted(SUITES)), file=out)
    print("workloads: ", ", ".join(sorted(WORKLOADS)), file=out)
    print("figures: ", ", ".join(figures()), file=out)
    print("fault presets: ", ", ".join(sorted(FAULT_PRESETS)), file=out)
    return 0


def _cmd_info(out) -> int:
    cal = DEFAULT_CALIBRATION
    print("calibration (see repro/core/calibration.py):", file=out)
    for name in (
        "cpu_hz", "lan_link_latency", "lan_bandwidth", "client_cache_bytes",
        "block_size", "read_ahead_blocks", "server_disk_access",
        "cache_disk_access",
    ):
        print(f"  {name:20s} = {getattr(cal, name)}", file=out)
    print(f"  kernel_client_cost   = {cal.kernel_client_cost}", file=out)
    print(f"  kernel_server_cost   = {cal.kernel_server_cost}", file=out)
    print(f"  proxy_cost           = {cal.proxy_cost}", file=out)
    return 0


def _write_stats_json(path: str, stats: dict, out) -> int:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, sort_keys=True, indent=2)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=out)
        return 2
    print(f"wrote {path}", file=out)
    return 0


def _run(args, out, **obs):
    """The one run path of ``run``, ``stats``, ``trace`` and ``profile``:
    the scenario in ``args`` — one session, or a fleet when ``--clients``
    is above 1.  Returns the harness result, or None after printing why
    the run is impossible."""
    if args.clients == 1 and args.workload == "churn":
        print("error: the churn workload requires a fleet run "
              "(--clients >= 2)", file=out)
        return None
    fleet = {flag.dest: getattr(args, flag.dest) for flag in args.fleet_flags}
    if args.clients == 1:
        for flag in args.fleet_flags:
            if fleet[flag.dest] != flag.default:
                print(f"error: {flag.option_strings[0]} requires a fleet run "
                      "(--clients >= 2)", file=out)
                return None
    workload_kw = {}
    if args.file_size is not None and args.workload.startswith("iozone"):
        workload_kw["file_size"] = args.file_size
    # zero-argument on purpose: a fleet passes the client index to a
    # factory that takes a parameter
    factory = lambda: WORKLOADS[args.workload](**workload_kw)
    scenario = Scenario(args.setup, rtt=args.rtt_ms / 1000.0, faults=args.faults,
                        fault_seed=args.fault_seed, disk_cache=args.disk_cache,
                        streams=args.streams, session_tickets=args.session_tickets,
                        clients=None if args.clients == 1 else args.clients, **fleet)
    try:
        return run(scenario, factory, **obs)
    except ValueError as exc:  # the harness refused the scenario
        print(f"error: {exc}", file=out)
        return None


def _seconds(args, result) -> float:
    """The virtual duration of what :func:`_run` returned: one session's
    total, or a fleet's launch-to-last-finish makespan."""
    return result.total if args.clients == 1 else result.makespan


def _cmd_run(args, out) -> int:
    result = _run(args, out)
    if result is None:
        return 2
    rtt_label = "LAN" if args.rtt_ms == 0 else f"{args.rtt_ms:g}ms RTT"
    fleet = f", {args.clients}-client fleet" if args.clients > 1 else ""
    print(f"{args.workload} on {args.setup} ({rtt_label}){fleet}", file=out)
    if args.clients > 1:
        print(f"  {'makespan':12s} {result.makespan:10.3f}s", file=out)
        print(f"  {'mean/client':12s} {result.mean_client_seconds:10.3f}s", file=out)
        for c in result.per_client:
            print(f"  {c.name:12s} {c.total:10.3f}s "
                  f"(start {c.start:.3f}s)", file=out)
    if args.faults:
        fstats = result.stats.get("faults", {})
        shown = {k: v for k, v in fstats.items() if v}
        print(f"  faults[{args.faults}]: "
              + (", ".join(f"{k}={v}" for k, v in sorted(shown.items()))
                 or "no packets perturbed"), file=out)
    if args.clients == 1:
        for phase, seconds in result.phases.items():
            print(f"  {phase:12s} {seconds:10.3f}s", file=out)
        if result.writeback_seconds:
            print(f"  {'write-back':12s} {result.writeback_seconds:10.3f}s "
                  f"({result.writeback_bytes} bytes)", file=out)
        if args.cpu:
            for side in ("client", "server"):
                for account in ("proxy", "sfsd", "sfssd", "ssh", "sshd"):
                    pct = result.cpu_mean(side, account)
                    if pct > 0:
                        print(f"  cpu[{side}:{account}] = {pct:.1f}%", file=out)
    if args.stats_json:
        return _write_stats_json(args.stats_json, result.stats, out)
    return 0


def _cmd_figure(name: str, out) -> int:
    print(figure_table(name, run_figure(name)), file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    try:
        rtts = [float(x) for x in args.rtts_ms.split(",") if x.strip()]
    except ValueError:
        print(f"error: bad RTT list {args.rtts_ms!r}", file=out)
        return 2
    print(f"{args.workload}: {args.baseline} vs {args.setup}", file=out)
    factory = WORKLOADS[args.workload]
    cached = args.setup in PROXY_CACHE_SETUPS
    for rtt_ms in rtts:
        rtt = rtt_ms / 1000.0
        base = run(Scenario(args.baseline, rtt=rtt), factory)
        other = run(Scenario(args.setup, rtt=rtt, disk_cache=cached), factory)
        print(f"  {rtt_ms:6.1f}ms  {base.total:10.2f}s  {other.total:10.2f}s  "
              f"{base.total / other.total:6.2f}x", file=out)
    return 0


def _cmd_stats(args, out) -> int:
    result = _run(args, out, telemetry=True)
    if result is None:
        return 2
    if args.json:
        print(json.dumps(result.stats, sort_keys=True, indent=2), file=out)
        return 0
    label = "total" if args.clients == 1 else f"{args.clients}-client makespan"
    print(f"{args.workload} on {args.setup}: "
          f"{label}={_seconds(args, result):.3f}s virtual", file=out)
    for component in sorted(k for k in result.stats
                            if isinstance(result.stats[k], dict)):
        print(f"  [{component}]", file=out)
        for metric, value in sorted(result.stats[component].items()):
            if isinstance(value, dict):
                inner = ", ".join(f"{k}={v:g}" if isinstance(v, float)
                                  else f"{k}={v}"
                                  for k, v in sorted(value.items()))
                print(f"    {metric:28s} {inner}", file=out)
            elif isinstance(value, float):
                print(f"    {metric:28s} {value:g}", file=out)
            else:
                print(f"    {metric:28s} {value}", file=out)
    return 0


def _cmd_trace(args, out) -> int:
    # Open the output first: a bad path should fail before the run,
    # not after minutes of simulation.
    try:
        fh = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=out)
        return 2
    with fh:
        result = _run(args, out, telemetry=True, tracing=True)
        if result is None:
            return 2
        fh.write(result.tracer.to_json(indent=None))
    spans = len(result.tracer.spans)
    cats = ", ".join(sorted(result.tracer.categories()))
    print(f"wrote {args.out}: {spans} spans across [{cats}] "
          f"({_seconds(args, result):.3f}s virtual)", file=out)
    print("open in https://ui.perfetto.dev or chrome://tracing", file=out)
    return 0


def _cmd_profile(args, out) -> int:
    from repro.obs.profile import collapsed_stacks, format_report, report_json

    profile_opts = {"top": args.top}
    if args.window is not None:
        profile_opts["window"] = args.window
    result = _run(args, out, profile=profile_opts)
    if result is None:
        return 2
    report = result.profile
    print(format_report(report), file=out)
    if args.flame:
        try:
            with open(args.flame, "w", encoding="utf-8") as fh:
                fh.write(collapsed_stacks(result.tracer))
        except OSError as exc:
            print(f"error: cannot write {args.flame}: {exc}", file=out)
            return 2
        print(f"wrote {args.flame} (collapsed stacks; feed to flamegraph.pl "
              f"or speedscope)", file=out)
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(report_json(report))
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.json_out}: {exc}", file=out)
            return 2
        print(f"wrote {args.json_out}", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "info":
        return _cmd_info(out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "figure":
        return _cmd_figure(args.name, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "stats":
        return _cmd_stats(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "profile":
        return _cmd_profile(args, out)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
