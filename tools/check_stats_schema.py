#!/usr/bin/env python3
"""Check ``--stats-json`` / ``stats --json`` snapshots against the stats schema.

Every key must be declared in ``repro.obs.schema`` with its label names,
and every declared unlabelled key of a component present must be
present.  Prints each problem and exits non-zero if any file has one.

Usage: PYTHONPATH=src python tools/check_stats_schema.py STATS.json...
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.schema import SCHEMA_VERSION, check


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", metavar="STATS.json")
    args = ap.parse_args(argv)
    failed = False
    for path in args.paths:
        with open(path, encoding="utf-8") as fh:
            problems = check(json.load(fh))
        for problem in problems:
            print(f"{path}: {problem}")
        failed = failed or bool(problems)
        print(f"{path}: {'FAIL' if problems else 'ok'} (schema v{SCHEMA_VERSION})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
