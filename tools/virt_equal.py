#!/usr/bin/env python3
"""Show that two ``bench/run.py --trace 1`` results differ only in the kernel.

The benchmark's fingerprint hashes ``sim.events``, so ``bench/run.py
--compare`` says ``fingerprint differs`` for any change to how much the
simulator does per run — correctly, and without saying what else moved.
This compares, workload by workload, every ``virt_*`` end-to-end metric
and every deterministic per-layer metric outside ``sim.*`` (counts, bytes,
virtual seconds and the ratios made of them: the units ``BENCHMARK.json``
gives them), exits non-zero unless all are equal to the last digit, and
prints the ``sim.*`` deltas.  Host-clock metrics are not read.

Usage: python tools/virt_equal.py A.json B.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VIRTUAL_UNITS = {"count", "bytes", "virt_s", "ratio"}


def virtual_layer_metrics() -> list:
    """Per-layer metric names that repeat exactly on one seed: those in
    virtual units, less ``obs.*`` (shares of host time)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer"]
            if m["unit"] in VIRTUAL_UNITS and not m["name"].startswith("obs.")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", metavar="A.json")
    ap.add_argument("b", metavar="B.json")
    args = ap.parse_args(argv)
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        a, b = json.load(fa)["workloads"], json.load(fb)["workloads"]
    if set(a) != set(b):
        print(f"different workloads: {sorted(a)} vs {sorted(b)}")
        return 2
    layer_names = virtual_layer_metrics()
    moved = 0
    for name in a:
        wa, wb = a[name], b[name]
        if not (wa["per_layer"] and wb["per_layer"]):
            print(f"{name}: no per-layer metrics; run bench/run.py with --trace 1")
            return 2
        rows = [(m, wa["end_to_end"][m]["median"], wb["end_to_end"][m]["median"])
                for m in wa["end_to_end"] if m.startswith("virt_")]
        rows += [(m, wa["per_layer"][m], wb["per_layer"][m]) for m in layer_names]
        kernel = [r for r in rows if r[0].startswith("sim.")]
        others = [r for r in rows if not r[0].startswith("sim.")]
        diffs = [r for r in others if r[1] != r[2]]
        moved += len(diffs)
        print(f"== {name}: {len(others) - len(diffs)}/{len(others)} virtual metrics "
              f"and counts outside sim.* equal"
              f"{'' if wa['seed'] == wb['seed'] else '  (SEEDS DIFFER)'}")
        for metric, va, vb in diffs:
            print(f"   MOVED {metric:<36} {va!r} -> {vb!r}")
        for metric, va, vb in kernel:
            delta = "=" if va == vb else f"{100 * (vb - va) / (va or 1):+.1f}%"
            print(f"   {metric:<36} {va!r} -> {vb!r}  {delta}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
