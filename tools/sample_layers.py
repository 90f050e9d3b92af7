#!/usr/bin/env python3
"""Sample where a benchmark workload's host time goes, without ``cProfile``.

A ``SIGPROF`` timer interrupts the unmodified program every millisecond
of CPU time and records the Python stack; nothing is charged per call,
so the shares are not distorted the way ``cProfile``'s are (about 3x on
the many-small-calls codec path).  Prints self and cumulative share by
``repro.<package>`` and by function, over ``bench/workloads.run_rep``.

``--phase setup`` counts only the samples a rep takes before its first
workload operation (the span ``bench/`` reports as ``setup_s``: keys,
testbed, proxies, mounts, handshakes), ``--phase run`` only those after
it (``host_run_s``); ``all``, the default, counts both.  The boundary is
the one the bench stamps: the first resume of a ``workloads._Stamped``
workload's ``run``, which this tool wraps.

Usage: python tools/sample_layers.py <workload> [--seed S] [--reps N] [--top K]
                                     [--phase {all,setup,run}]
"""

from __future__ import annotations

import argparse
import collections
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src" / "repro") + os.sep
INTERVAL_S = 0.001


def _layer(filename: str):
    return filename[len(SRC):].split(os.sep, 1)[0] if filename.startswith(SRC) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--phase", choices=("all", "setup", "run"), default="all")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    workloads.run_rep(args.workload, args.seed)  # warm-up: imports, key memo
    self_layer, cum_layer = collections.Counter(), collections.Counter()
    self_func, cum_func = collections.Counter(), collections.Counter()
    samples = 0
    running = False  # has the current rep reached its first operation?
    stamped_run = workloads._Stamped.run

    def run(self, mount):
        nonlocal running
        running = True  # at the first resume, where the bench stamps too
        return (yield from stamped_run(self, mount))

    workloads._Stamped.run = run

    def on_tick(_signum, frame):
        nonlocal samples
        if args.phase != "all" and running != (args.phase == "run"):
            return
        samples += 1
        layers, funcs, leaf = set(), set(), True
        while frame is not None:
            code = frame.f_code
            layer = _layer(code.co_filename)
            if layer is not None:
                func = f"{layer}/{Path(code.co_filename).name}:{code.co_name}"
                if leaf:  # C builtins have no frame: charged to their caller
                    self_layer[layer] += 1
                    self_func[func] += 1
                    leaf = False
                layers.add(layer)
                funcs.add(func)
            frame = frame.f_back
        cum_layer.update(layers)
        cum_func.update(funcs)

    signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        for _ in range(args.reps):
            running = False
            workloads.run_rep(args.workload, args.seed)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def share(n: int) -> str:
        return f"{100.0 * n / max(samples, 1):5.1f}%"

    print(f"{args.workload}: {samples} samples over {args.reps} reps"
          f" (phase {args.phase})")
    print(f"{'package':<12}{'self':>8}{'cumulative':>12}")
    for layer, n in self_layer.most_common():
        print(f"{layer:<12}{share(n):>8}{share(cum_layer[layer]):>12}")
    print(f"\n{'function':<56}{'self':>8}{'cumulative':>12}")
    for func, n in self_func.most_common(args.top):
        print(f"{func:<56}{share(n):>8}{share(cum_func[func]):>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
