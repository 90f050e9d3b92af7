#!/usr/bin/env python3
"""Per-session security customization: the paper's central trade-off.

Runs the same bulk-read workload under every session security
configuration (§6.2.1's menu) and prints the runtime ladder plus the
client proxy's CPU utilization — the data behind the paper's argument
that "an application-tailored security configuration is very important":
sessions moving non-confidential data can skip encryption and keep
integrity, paying ~9 % instead of ~50 %.

Also prints per-procedure latency percentiles for one of the runs, read
from the telemetry registry's ``nfs.client`` ``latency{proc=...}``
histograms.

Run:  python examples/security_performance_tradeoff.py
"""

from repro.harness import run_iozone
from repro.core import Testbed, setup_sgfs
from repro.workloads import IOzoneReadReread

MB = 1024 * 1024
CONFIGS = [
    ("gfs", "no security (baseline)"),
    ("sgfs-sha", "integrity only: SHA1-HMAC"),
    ("sgfs-rc", "medium: RC4-128 + SHA1-HMAC"),
    ("sgfs-aes", "strong: AES-256-CBC + SHA1-HMAC"),
]


def ladder() -> None:
    print(f"{'session config':36s} {'runtime':>9s} {'vs gfs':>8s} {'proxy CPU':>10s}")
    base = None
    for setup, label in CONFIGS:
        r = run_iozone(setup, rtt=0.0, file_size=4 * MB,
                       setup_kwargs={"cache_bytes": 2 * MB})
        if base is None:
            base = r.total
        overhead = (r.total / base - 1) * 100
        print(f"{label:36s} {r.total:8.3f}s {overhead:+7.1f}% "
              f"{r.cpu_mean('client', 'proxy'):9.1f}%")


def trace_one() -> None:
    print("\nper-procedure latency for one sgfs-aes run (nfs.client histograms):")
    tb = Testbed.build(telemetry=True)
    mount = setup_sgfs(tb, suite="aes-256-cbc-sha1")
    wl = IOzoneReadReread(file_size=1 * MB)
    wl.prepare(tb)
    tb.run(wl.run(mount))
    prefix = "latency{proc="
    rows = {k[len(prefix):-1]: h
            for k, h in tb.obs.snapshot()["nfs.client"].items()
            if k.startswith(prefix)}
    print(f"{'proc':12s} {'count':>6s} {'mean':>9s} {'p50':>9s} "
          f"{'p95':>9s} {'max':>9s}")
    for proc, h in sorted(rows.items(), key=lambda kv: -kv[1]["sum"]):
        print(f"{proc:12s} {h['count']:6d} {h['mean'] * 1000:8.2f}m "
              f"{h['p50'] * 1000:8.2f}m {h['p95'] * 1000:8.2f}m "
              f"{h['max'] * 1000:8.2f}m")


if __name__ == "__main__":
    ladder()
    trace_one()
