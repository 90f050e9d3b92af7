#!/usr/bin/env python3
"""The repo's benchmark: four workloads, two clocks, a per-layer ledger.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds N]
                         [--trace [0|1]] [--smoke] [--out FILE]
    python3 bench/run.py --compare A.json B.json

Each workload runs in a child process of its own (single-threaded,
``PYTHONHASHSEED=0``), one after the other.  A child discards one
warm-up rep, then repeats the workload for ``--seconds`` of host time
(at least three reps) with tracing and profiling off, and checks that
every rep produced the same virtual fingerprint.  ``--trace`` cuts the
timed part to three reps and adds three untimed ones — under
``cProfile``, with ``profile=True``, with ``telemetry=False`` — plus the
micro-benchmarks, which together give the per-layer metrics.

Every metric is printed by name with its unit; the whole result goes to
``bench/out/result.json`` (or ``--out``).  With one ``--workload`` the
last line of standard output is the JSON object the driver reads.  See
``bench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
CHILD_TIMEOUT_S = 170
HOST_METRICS = ("setup_s", "host_run_s")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def summary(values) -> dict:
    """Median, quartiles and sample count of one metric's per-rep values."""
    values = list(values)
    if min(values) < max(values):
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:  # one sample, or a virtual metric: exact, not interpolated
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# child: one workload, measured
# ---------------------------------------------------------------------------


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def measure(workload: str, seed: str, seconds: float, trace: bool, smoke: bool,
            with_micro: bool) -> dict:
    """Run one workload in this process and return its result document."""
    import resource

    t0 = time.perf_counter()
    import repro.harness  # noqa: F401  (timed: the cold start every CLI user pays)
    import_s = time.perf_counter() - t0
    import workloads as wl

    min_reps = 2 if smoke else 3
    budget = 0.0 if (smoke or trace) else seconds
    errors = []
    fingerprint = None
    reps = []
    attempted = failed = 0

    def checked_rep(label: str, **obs):
        """One rep, its ops counted, its fingerprint checked; None if it broke."""
        nonlocal attempted, failed, fingerprint
        gc.collect()
        try:
            rep = wl.run_rep(workload, seed, smoke, **obs)
        except Exception as exc:  # a rep that raises fails all its ops
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
            lost = reps[0].ops_attempted if reps else 1
            attempted += lost
            failed += lost
            return None
        attempted += rep.ops_attempted
        mine = rep.fingerprint()
        fingerprint = fingerprint or mine
        if mine != fingerprint:
            errors.append(f"{label}: fingerprint {mine} differs from the run's "
                          f"{fingerprint}")
            failed += rep.ops_attempted
        else:
            failed += rep.ops_failed
        log(f"  {label}: setup {rep.setup_s:.3f}s run {rep.host_run_s:.3f}s "
            f"virt {rep.makespan:.6f}s")
        return rep

    if not smoke:
        checked_rep("warm-up")
    deadline = time.perf_counter() + budget
    while not errors:
        rep = checked_rep(f"rep {len(reps) + 1}")
        if rep is None:
            break
        reps.append(rep)
        if len(reps) == min_reps:
            # after a fixed number of reps, so that how many more the time
            # allowed (the heap creeps up as they repeat) does not show
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        longest = max(r.host_total_s for r in reps)
        if len(reps) >= min_reps and time.perf_counter() + longest > deadline:
            break

    doc = {"workload": workload, "seed": wl.seed_name(seed), "fingerprint": fingerprint,
           "errors": errors, "end_to_end": {}, "per_layer": {}}
    if len(reps) >= min_reps:
        end = {name: summary(getattr(r, name) for r in reps) for name in HOST_METRICS}
        end["host_peak_rss_mb"] = summary([rss_mb])
        for name, value in reps[0].end_to_end_virtual().items():
            end[name] = summary([value] * len(reps))
        doc["end_to_end"] = end
        if trace and not errors:
            trace_reps(doc, wl, workload, seed, smoke, reps, import_s, checked_rep)
            if with_micro:
                import micro

                gc.collect()
                doc["micro"] = micro.run_micro(0.01, 2) if smoke else micro.run_micro()
    doc.update(attempted=max(attempted, 1), failed=failed,
               correct=bool(reps) and not errors and failed == 0)
    return doc


def trace_reps(doc, wl, workload, seed, smoke, reps, import_s, checked_rep) -> None:
    """The three untimed reps: every per-layer metric but the micro ones."""
    import cProfile
    import pstats

    import layers

    errors = doc["errors"]
    per_layer = doc["per_layer"] = dict(reps[0].counts())
    default_s = statistics.median(r.host_total_s for r in reps)
    per_layer["sim.host_us_per_event"] = (
        1e6 * statistics.median(r.host_run_s for r in reps) / per_layer["sim.events"])
    per_layer["harness.import_s"] = import_s

    profiler = cProfile.Profile()
    profiler.enable()
    profiled = checked_rep("cProfile rep")
    profiler.disable()
    buckets, total = layers.host_self_seconds(pstats.Stats(profiler))
    for layer, secs in buckets.items():
        per_layer[f"{layer}.host_self_s"] = secs
    doc["profiled_total_s"] = total
    del profiler, profiled

    traced = checked_rep("profile=True rep", profile=wl.PROFILE_KWARGS)
    if traced is not None:
        per_layer.update(layers.virtual_attribution(traced))
        per_layer["obs.trace_overhead_share"] = traced.host_total_s / default_s - 1.0
        if traced.tracer.dropped:
            errors.append(f"span ring buffer dropped {traced.tracer.dropped} spans")
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{workload}.trace.json").write_text(traced.tracer.to_json())
    del traced

    gc.collect()
    bare = wl.run_rep(workload, seed, smoke, telemetry=False)
    if bare.virtual_key() != reps[0].virtual_key():
        errors.append("telemetry=False changed the virtual results")
    per_layer["obs.telemetry_overhead_share"] = 1.0 - bare.host_total_s / default_s
    log(f"  telemetry=False rep: {bare.host_total_s:.3f}s")


# ---------------------------------------------------------------------------
# parent: spawn, print, write
# ---------------------------------------------------------------------------


def spawn(workload: str, args, with_micro: bool) -> dict:
    """Run one workload in a child process and return its document."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--child", "--workload", workload,
           "--seed", args.seed, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke + ["--no-micro"] * (not with_micro)
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"{workload}: child exited {done.returncode} without a result")
    return json.loads(done.stdout.splitlines()[-1])


def environment() -> dict:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc - 1:
        log(f"warning: 1-min load average {load:.2f} exceeds nproc-1 = {nproc - 1}; "
            f"host-clock metrics will be noisy")
    return {"nproc": nproc, "python": platform.python_version(),
            "loadavg_1m": load, "machine": platform.machine()}


def print_workload(doc: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {doc['workload']}  seed={doc['seed']}  fingerprint={doc['fingerprint']}")
    print(f"   ops_attempted={doc['attempted']} ops_failed={doc['failed']} "
          f"ops_failed_share={doc['failed'] / doc['attempted']:.6g} ratio")
    for m in spec["end_to_end"]:
        s = doc["end_to_end"].get(m["name"])
        if s is not None:
            print(f"   {m['name']:<36} {s['median']:>16.6f} {units[m['name']]:<16} "
                  f"q1={s['q1']:.6f} q3={s['q3']:.6f} n={s['n']}")
    for m in spec["per_layer"]:
        if m["name"] in doc["per_layer"]:
            print(f"   {m['name']:<36} {doc['per_layer'][m['name']]:>16.6f} "
                  f"{units[m['name']]}")
    for error in doc["errors"]:
        print(f"   ERROR {error}")


def driver_line(doc: dict, spec: dict, trace: int) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if trace:
        metrics = {m["name"]: {"value": doc["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": doc["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})


def run(args, spec: dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    result = {"schema": 1, "env": environment(),
              "settings": {"seconds": args.seconds, "trace": args.trace,
                           "smoke": args.smoke, "seed": args.seed},
              "workloads": {}}
    micro = {}
    for name in names:
        log(f"{name}:")
        # the micro-benchmarks are workload-independent: once per invocation
        doc = result["workloads"][name] = spawn(name, args, with_micro=not micro)
        micro = micro or doc.pop("micro", {})
        if doc["per_layer"]:
            doc["per_layer"].update(micro)
        print_workload(doc, spec)
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    correct = all(doc["correct"] for doc in result["workloads"].values())
    if len(names) == 1 and correct:
        print(driver_line(result["workloads"][names[0]], spec, args.trace))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# compare two result files
# ---------------------------------------------------------------------------


def verdict(a: dict, b: dict, better: str, bound: float):
    """(worse_by, verdict) of run ``b`` against run ``a`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap:
        return worse_by, "unresolved"
    return worse_by, "regressed" if worse_by > bound else "ok"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    regressed = False
    print(f"{'workload':<20}{'metric':<24}{'A median [q1, q3]':<38}"
          f"{'B median [q1, q3]':<38}{'worse by':>9}  verdict")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            continue
        for m in spec["end_to_end"]:
            sa, sb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            worse_by, word = verdict(sa, sb, m["better"], m["bound"])
            regressed |= word == "regressed"
            cell = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"
            print(f"{name:<20}{m['name']:<24}{cell(sa):<38}{cell(sb):<38}"
                  f"{100 * worse_by:>+8.2f}%  {word}")
        same = wa["fingerprint"] == wb["fingerprint"]
        print(f"{name:<20}{'fingerprint':<24}{wa['fingerprint'][:16]:<38}"
              f"{wb['fingerprint'][:16]:<38}{'':>9}  {'same' if same else 'differs'}")
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                regressed = True
                print(f"{name:<20}ops_failed_share {side}: {w['failed']}/{w['attempted']}"
                      f"  regressed")
    return 1 if regressed else 0


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        log(f"bench/run.py: no program to measure: {SRC / 'repro'} is missing")
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all four, in turn")
    parser.add_argument("--seed", default="1",
                        help="inputs are made from it; N means bench-N (default 1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="host seconds of timed reps per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also produce the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two reps: for schema checks only")
    parser.add_argument("--out", help="result file (default bench/out/result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files instead of running")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--no-micro", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.child:
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.smoke, not args.no_micro)
        print(json.dumps(doc))
        return 0
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
