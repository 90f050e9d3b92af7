"""Compare two stats/bench JSON snapshots and emit regression verdicts.

Works on any nested JSON the harness produces — ``BENCH_SCALEOUT.json``
from ``benchmarks/bench_scaleout.py``, a ``stats`` export from the CLI,
or a profile report.  Both documents are flattened to dotted paths
(dict keys joined with ``.``, list indices as ``[i]``) and compared
metric by metric:

- numeric pairs get a relative delta and a verdict — ``ok`` within
  tolerance, ``improved`` / ``regressed`` when the metric's direction
  is known (latency-like names want to go down, throughput-like names
  up), ``changed`` when the direction is unknown;
- paths present on only one side report ``added`` / ``removed``;
- non-numeric mismatches report ``changed``.

The comparison is pure and deterministic; the CLI's ``bench-diff``
subcommand exits non-zero only if something ``regressed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Any, Dict, List, Optional, Sequence

#: Path substrings whose metrics improve *downward* (time, queueing).
LOWER_IS_BETTER = (
    "wall_seconds", "virtual_seconds", "seconds", "makespan", "wait",
    "depth", "latency", "p50", "p95", "p99", "mean", "max", "min",
    "heap_pushes", "events_dispatched", "process_wakeups", "dropped",
    "retransmit", "denied", "misses", "evictions",
)

#: Path substrings whose metrics improve *upward* (rates, hits).
HIGHER_IS_BETTER = (
    "events_per_sec", "per_sec", "throughput", "bytes_per_sec", "hits",
    "granted",
)


def direction_of(path: str) -> int:
    """-1 if lower is better, +1 if higher is better, 0 if unknown.

    Higher-is-better markers win ties because they are the more
    specific names (``events_per_sec`` also contains ``events``).
    """
    lower = path.lower()
    if any(m in lower for m in HIGHER_IS_BETTER):
        return 1
    if any(m in lower for m in LOWER_IS_BETTER):
        return -1
    return 0


def flatten(doc: Any, prefix: str = "") -> Dict[str, Any]:
    """Nested dict/list → ``{"a.b[0].c": leaf}`` with sorted traversal."""
    out: Dict[str, Any] = {}
    if isinstance(doc, dict):
        for key in sorted(doc, key=str):
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(doc[key], sub))
    elif isinstance(doc, (list, tuple)):
        for i, item in enumerate(doc):
            out.update(flatten(item, f"{prefix}[{i}]"))
    else:
        out[prefix] = doc
    return out


@dataclass
class DiffEntry:
    """One compared metric path."""

    path: str
    verdict: str  # ok | improved | regressed | changed | added | removed
    baseline: Any = None
    current: Any = None
    delta_pct: Optional[float] = None


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def bench_diff(
    baseline: Any,
    current: Any,
    tolerance: float = 0.05,
    only: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> List[DiffEntry]:
    """Compare two JSON documents; return entries sorted by path.

    ``tolerance`` is the relative change treated as noise (0.05 = 5%).
    ``only`` / ``ignore`` are fnmatch globs over dotted paths; ``only``
    (when non-empty) selects the paths to compare, then ``ignore``
    removes from that set.
    """
    base = flatten(baseline)
    cur = flatten(current)
    paths = sorted(set(base) | set(cur))
    if only:
        paths = [p for p in paths if any(fnmatch(p, g) for g in only)]
    if ignore:
        paths = [p for p in paths if not any(fnmatch(p, g) for g in ignore)]
    out: List[DiffEntry] = []
    for path in paths:
        if path not in base:
            out.append(DiffEntry(path, "added", current=cur[path]))
            continue
        if path not in cur:
            out.append(DiffEntry(path, "removed", baseline=base[path]))
            continue
        b, c = base[path], cur[path]
        if _is_number(b) and _is_number(c):
            if b == c:
                out.append(DiffEntry(path, "ok", b, c, 0.0))
                continue
            denom = abs(b) if b != 0 else 1.0
            delta = (c - b) / denom
            if abs(delta) <= tolerance:
                verdict = "ok"
            else:
                d = direction_of(path)
                if d == 0:
                    verdict = "changed"
                elif (delta > 0) == (d > 0):
                    verdict = "improved"
                else:
                    verdict = "regressed"
            out.append(DiffEntry(path, verdict, b, c, 100.0 * delta))
        elif b != c:
            out.append(DiffEntry(path, "changed", b, c))
        else:
            out.append(DiffEntry(path, "ok", b, c))
    return out


def has_regression(entries: Sequence[DiffEntry]) -> bool:
    return any(e.verdict == "regressed" for e in entries)


def format_diff(
    entries: Sequence[DiffEntry], show_ok: bool = False
) -> str:
    """Render the diff, one line per non-ok entry (all with show_ok)."""
    counts: Dict[str, int] = {}
    lines: List[str] = []
    for e in entries:
        counts[e.verdict] = counts.get(e.verdict, 0) + 1
        if e.verdict == "ok" and not show_ok:
            continue
        if e.verdict == "added":
            lines.append(f"  added     {e.path} = {e.current!r}")
        elif e.verdict == "removed":
            lines.append(f"  removed   {e.path} (was {e.baseline!r})")
        elif e.delta_pct is not None:
            lines.append(
                f"  {e.verdict:<9} {e.path}: {e.baseline!r} -> {e.current!r} "
                f"({e.delta_pct:+.1f}%)"
            )
        else:
            lines.append(
                f"  {e.verdict:<9} {e.path}: {e.baseline!r} -> {e.current!r}"
            )
    summary = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
    header = f"bench-diff: {len(entries)} metrics compared ({summary or 'none'})"
    return "\n".join([header] + lines)


def diff_json(entries: Sequence[DiffEntry]) -> List[Dict[str, Any]]:
    """The diff as JSON-ready dicts (for --json output)."""
    return [
        {
            "path": e.path,
            "verdict": e.verdict,
            "baseline": e.baseline,
            "current": e.current,
            "delta_pct": e.delta_pct,
        }
        for e in entries
    ]
