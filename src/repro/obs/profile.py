"""Bottleneck attribution: critical path, utilization timelines, flames.

Where did the makespan go?  This module turns the raw telemetry the
stack already records — completed span trees (:mod:`repro.obs.tracing`),
per-account CPU busy intervals (:mod:`repro.sim.cpu`), per-direction
link occupancy (:mod:`repro.net.network`), lock-wait histograms
(:mod:`repro.sim.sync`), and RPC worker-queue depth samples
(:mod:`repro.rpc.server`) — into one attribution report:

- **critical path**: a backward sweep over span *self-segments* (the
  parts of each span not covered by its children) from the end of the
  run picks, at every instant, the latest-starting active segment; the
  resulting chain partitions the makespan into named contributors plus
  explicit ``(idle)`` gaps.
- **CPU attribution**: per host, total busy time and the exact
  per-account breakdown — hierarchical crypto sub-accounts
  (``proxy/seal:aes-256-cbc-sha1``) make "70% of the server proxy's CPU
  is cipher work" a computed fact.
- **utilization timelines**: time-bucketed busy percentages for every
  CPU and every directed link, the same windowed series as the paper's
  Figs. 5–6 but for any resource.
- **flame graph**: collapsed-stack export (``a;b;c <weight>`` lines,
  the flamegraph.pl / speedscope input format) weighted by span
  self-time in integer nanoseconds.

Everything is deterministic: inputs come from the virtual clock and
FIFO queues, ties break on span ids, and reports serialize with sorted
keys — two same-seed runs produce byte-identical output.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

#: Substrings of a hierarchical CPU-account key that mark crypto work.
#: (The crypto layers charge ``<parent>/seal:<suite>``, ``/open:``,
#: ``/crypto:`` and ``/handshake`` sub-accounts.)
CRYPTO_MARKERS = ("/seal:", "/open:", "/crypto:", "/handshake")


def is_crypto_account(account: str) -> bool:
    """True if a ledger key records cipher/MAC/handshake CPU time."""
    return any(m in account for m in CRYPTO_MARKERS)


# ---------------------------------------------------------------------------
# span geometry
# ---------------------------------------------------------------------------


def self_segments(spans) -> List[Tuple[float, float, Any]]:
    """The self-time intervals of every closed span.

    A span's *self-segments* are the parts of its ``[start, end]``
    interval not covered by its children — the time the span itself was
    the innermost active region of its track.  Stack discipline
    guarantees children nest inside the parent and do not overlap each
    other, so a single forward walk suffices.
    """
    closed = [s for s in spans if s.end is not None]
    children: Dict[int, List[Any]] = defaultdict(list)
    for s in closed:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out: List[Tuple[float, float, Any]] = []
    for s in closed:
        cur = s.start
        for kid in sorted(children.get(s.span_id, ()),
                          key=lambda k: (k.start, k.span_id)):
            if kid.start > cur:
                out.append((cur, kid.start, s))
            if kid.end > cur:
                cur = kid.end
        if s.end > cur:
            out.append((cur, s.end, s))
    return out


def critical_path(tracer, t0: float, t_end: float):
    """Attribute ``[t0, t_end]`` to span self-segments by backward sweep.

    From ``t_end`` backwards, the *active* segment at time ``t`` is the
    self-segment covering ``t`` with the latest start (tie: largest
    ``span_id`` — the most recently opened span).  The sweep jumps to
    that segment's start and repeats; instants covered by no segment are
    charged to ``(idle)``.  Returns ``(contributors, idle_seconds)``
    where contributors maps ``(cat, name) -> [seconds, steps]``.
    """
    segs = self_segments(tracer.spans)
    segs = [(a, b, s) for a, b, s in segs if b > t0 and a < t_end]
    # Sorted by end descending so the sweep can admit candidates lazily.
    segs.sort(key=lambda seg: (-seg[1], -seg[0], -seg[2].span_id))
    contributors: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0.0, 0])
    idle = 0.0
    active: List[Tuple[float, int, Any]] = []  # max-heap by (start, span_id)
    j = 0
    t = t_end
    while t > t0:
        while j < len(segs) and segs[j][1] >= t:
            a, _b, s = segs[j]
            heapq.heappush(active, (-a, -s.span_id, s))
            j += 1
        # Entries starting at/after t lie in the already-swept region.
        while active and -active[0][0] >= t:
            heapq.heappop(active)
        if active:
            start = -active[0][0]
            s = heapq.heappop(active)[2]
            lo = max(start, t0)
            entry = contributors[(s.cat or "span", s.name)]
            entry[0] += t - lo
            entry[1] += 1
            t = lo
        elif j < len(segs):
            # Gap: nothing covers t; idle back to the next segment end.
            lo = max(min(segs[j][1], t), t0)
            idle += t - lo
            t = lo
        else:
            idle += t - t0
            t = t0
    return contributors, idle


def self_time_by_name(tracer) -> Dict[Tuple[str, str], List[float]]:
    """Aggregate span self-time as ``(cat, name) -> [seconds, count]``."""
    out: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0.0, 0])
    seen = set()
    for a, b, s in self_segments(tracer.spans):
        entry = out[(s.cat or "span", s.name)]
        entry[0] += b - a
        if s.span_id not in seen:
            seen.add(s.span_id)
            entry[1] += 1
    return out


def self_time_by_namespace(tracer) -> Dict[str, float]:
    """Span self-time per fleet-client namespace (None → "(shared)")."""
    ns_of = tracer.track_namespaces()
    out: Dict[str, float] = defaultdict(float)
    for a, b, s in self_segments(tracer.spans):
        out[ns_of.get(s.tid) or "(shared)"] += b - a
    return dict(out)


# ---------------------------------------------------------------------------
# flame graph
# ---------------------------------------------------------------------------


def collapsed_stacks(tracer) -> str:
    """The run as collapsed stacks (flamegraph.pl / speedscope input).

    One line per unique stack, ``track;ancestor;...;leaf <weight>``,
    weighted by self-time in integer nanoseconds and sorted
    lexicographically — byte-identical across same-seed runs.
    """
    names = tracer.track_names()
    by_id = {s.span_id: s for s in tracer.spans}
    weights: Dict[str, int] = defaultdict(int)
    for a, b, s in self_segments(tracer.spans):
        frames = []
        node = s
        while node is not None:
            frames.append(node.name)
            node = by_id.get(node.parent_id) if node.parent_id is not None else None
        frames.append(names.get(s.tid, f"track{s.tid}"))
        frames.reverse()
        ns = round((b - a) * 1e9)
        if ns > 0:
            weights[";".join(frames)] += ns
    return "\n".join(f"{stack} {w}" for stack, w in sorted(weights.items()))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def _rounded(obj, digits: int = 9):
    """Round every float in a nested structure (readability only — the
    inputs are already deterministic)."""
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: _rounded(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v, digits) for v in obj]
    return obj


def build_report(
    tb,
    t0: float = 0.0,
    t_end: Optional[float] = None,
    window: Optional[float] = None,
    top: int = 10,
) -> Dict[str, Any]:
    """Build the attribution report for a finished (profiled) run.

    ``tb`` is a :class:`~repro.core.topology.Testbed` (or anything with
    ``sim``, ``net``, ``obs``, ``tracer`` and ``nfs_rpc_server``); the
    run should have been built with ``profile=True`` so link occupancy
    and queue timelines were recorded.  ``window`` sizes the utilization
    buckets (default: makespan / 20).
    """
    sim = tb.sim
    if t_end is None:
        t_end = sim.now
    makespan = t_end - t0
    if window is None:
        window = max(makespan / 20.0, 1e-9)
    report: Dict[str, Any] = {
        "meta": {
            "t0": t0, "t_end": t_end, "makespan": makespan, "window": window,
        },
    }

    # -- CPU attribution ----------------------------------------------------
    cpu_section: Dict[str, Any] = {}
    for name in sorted(tb.net.nodes):
        cpu = getattr(tb.net.nodes[name], "cpu", None)
        if cpu is None:
            continue
        ledger = cpu.ledger
        totals = ledger.totals()
        if not totals:
            continue
        busy = sum(totals.values())
        crypto = sum(v for k, v in totals.items() if is_crypto_account(k))
        accounts = {
            k: {
                "seconds": v,
                "pct_of_makespan": _pct(v, makespan),
                "pct_of_busy": _pct(v, busy),
            }
            for k, v in totals.items()
        }
        ncores = getattr(cpu, "cores", 1)
        series = []
        t = t0
        while t < t_end:
            hi = min(t + window, t_end)
            # With N cores the window capacity is N * (hi - t); the
            # timeline stays 0–100% whatever the core count.
            series.append(
                [hi, _pct(ledger.busy_all_in_window(t, hi), (hi - t) * ncores)]
            )
            t += window
        entry = {
            "busy_seconds": busy,
            "busy_pct_of_makespan": _pct(busy, makespan),
            "crypto_seconds": crypto,
            "crypto_pct_of_makespan": _pct(crypto, makespan),
            "crypto_pct_of_busy": _pct(crypto, busy),
            "accounts": accounts,
            "timeline": series,
        }
        if ncores > 1:
            per_core = ledger.busy_by_core(t0, t_end)
            entry["cores"] = ncores
            entry["per_core"] = {
                str(core): {
                    "busy_seconds": per_core.get(core, 0.0),
                    "utilization_pct": _pct(per_core.get(core, 0.0), makespan),
                }
                for core in range(ncores)
            }
        cpu_section[name] = entry
    report["cpu"] = cpu_section

    # -- link occupancy -----------------------------------------------------
    links: Dict[str, Any] = {}
    link_ledger = getattr(tb.net, "link_ledger", None)
    if link_ledger is not None:
        for key, busy in link_ledger.totals().items():
            series = []
            t = t0
            while t < t_end:
                hi = min(t + window, t_end)
                series.append(
                    [hi, _pct(link_ledger.busy_in_window(key, t, hi), hi - t)]
                )
                t += window
            links[key] = {
                "busy_seconds": busy,
                "utilization_pct": _pct(busy, makespan),
                "timeline": series,
            }
    report["links"] = links

    # -- lock waits and RPC queueing (straight from the registry) ----------
    snap = tb.obs.snapshot() if tb.obs.enabled else {}
    report["locks"] = snap.get("sync", {})
    rpc_q: Dict[str, Any] = {}
    rpc_meta = snap.get("rpc.server", {})

    def _queue_entry(server) -> Dict[str, Any]:
        timeline = getattr(server, "queue_timeline", [])
        entry: Dict[str, Any] = {
            "samples": len(timeline),
            "max_depth": max((d for _t, d in timeline), default=0),
            "mean_depth": (
                sum(d for _t, d in timeline) / len(timeline) if timeline else 0.0
            ),
        }
        # queue metrics are labeled per RPC server; keep each backend's
        # own rows so a sharded run shows per-backend utilization
        label = f"{{server={server.name}}}"
        for key, value in rpc_meta.items():
            if (key.startswith("queue_wait") or key.startswith("queue_depth")) \
                    and key.endswith(label):
                entry[key] = value
        return entry

    rpc_servers = [b.rpc_server for b in getattr(tb, "backends", None) or []]
    if not rpc_servers:
        home = getattr(tb, "nfs_rpc_server", None)
        rpc_servers = [home] if home is not None else []
    for server in rpc_servers:
        rpc_q[server.name] = _queue_entry(server)
    report["rpc_queue"] = rpc_q

    # -- WAN transfer engine: per-sub-channel traffic -----------------------
    # The client proxy labels per-channel bulk traffic as
    # ``stream_calls{ch=...,leg=...}`` / ``stream_bytes{...}`` in its
    # stats collector; surface one row per (channel, leg).
    streams: Dict[str, Any] = {}
    for key, value in snap.get("proxy.client", {}).items():
        if not key.startswith(("stream_calls{", "stream_bytes{")):
            continue
        metric, label = key.split("{", 1)
        label = label.rstrip("}")
        row = streams.setdefault(label, {"calls": 0, "bytes": 0})
        row["calls" if metric == "stream_calls" else "bytes"] = value
    if streams:
        report["streams"] = streams

    # -- critical path and span self-time -----------------------------------
    tracer = tb.tracer
    if tracer is not None and tracer.enabled:
        contributors, idle = critical_path(tracer, t0, t_end)
        ranked = sorted(
            contributors.items(), key=lambda kv: (-kv[1][0], kv[0])
        )
        report["critical_path"] = {
            "idle_seconds": idle,
            "idle_pct": _pct(idle, makespan),
            "contributors": [
                {
                    "cat": cat, "name": name, "seconds": secs,
                    "pct_of_makespan": _pct(secs, makespan), "steps": steps,
                }
                for (cat, name), (secs, steps) in ranked[:top]
            ],
        }
        by_name = sorted(
            self_time_by_name(tracer).items(), key=lambda kv: (-kv[1][0], kv[0])
        )
        report["top_spans"] = [
            {
                "cat": cat, "name": name, "self_seconds": secs,
                "count": count, "pct_of_makespan": _pct(secs, makespan),
            }
            for (cat, name), (secs, count) in by_name[:top]
        ]
        by_ns = self_time_by_namespace(tracer)
        if len(by_ns) > 1:
            report["clients"] = {
                ns: {"self_seconds": secs, "pct_of_makespan": _pct(secs, makespan)}
                for ns, secs in sorted(by_ns.items())
            }
    return _rounded(report)


def report_json(report: Dict[str, Any], indent: Optional[int] = 2) -> str:
    return json.dumps(report, sort_keys=True, indent=indent)


def format_report(report: Dict[str, Any], width: int = 72) -> str:
    """Human-readable rendering of :func:`build_report` output."""
    lines: List[str] = []
    meta = report["meta"]
    lines.append(
        f"makespan {meta['makespan']:.6f}s  "
        f"(t0={meta['t0']:.6f}, t_end={meta['t_end']:.6f}, "
        f"window={meta['window']:.6f}s)"
    )
    for host, c in report.get("cpu", {}).items():
        lines.append("")
        lines.append(
            f"cpu {host}: busy {c['busy_seconds']:.6f}s "
            f"({c['busy_pct_of_makespan']:.1f}% of makespan), "
            f"crypto {c['crypto_seconds']:.6f}s "
            f"({c['crypto_pct_of_busy']:.1f}% of busy, "
            f"{c['crypto_pct_of_makespan']:.1f}% of makespan)"
        )
        if c.get("per_core"):
            lines.append(f"  cores: {c.get('cores', len(c['per_core']))}")
            for core, v in sorted(
                c["per_core"].items(), key=lambda kv: int(kv[0])
            ):
                lines.append(
                    f"    core {core:<2} busy {v['busy_seconds']:>10.6f}s "
                    f"({v['utilization_pct']:.1f}% of makespan)"
                )
        ranked = sorted(
            c["accounts"].items(), key=lambda kv: (-kv[1]["seconds"], kv[0])
        )
        for account, v in ranked:
            lines.append(
                f"  {account:<40} {v['seconds']:>10.6f}s "
                f"{v['pct_of_makespan']:>6.1f}%"
            )
    if report.get("links"):
        lines.append("")
        lines.append("links:")
        for key, v in sorted(report["links"].items()):
            lines.append(
                f"  {key:<24} busy {v['busy_seconds']:.6f}s "
                f"({v['utilization_pct']:.1f}%)"
            )
    if report.get("locks"):
        lines.append("")
        lines.append("lock contention:")
        for key, v in sorted(report["locks"].items()):
            if isinstance(v, dict):
                lines.append(
                    f"  {key:<44} n={v.get('count', 0)} "
                    f"sum={v.get('sum', 0.0):.6f}s"
                )
            else:
                lines.append(f"  {key:<44} {v}")
    for name, v in report.get("rpc_queue", {}).items():
        lines.append("")
        lines.append(
            f"rpc queue {name}: samples={v['samples']} "
            f"max_depth={v['max_depth']} mean_depth={v['mean_depth']:.2f}"
        )
    if report.get("streams"):
        lines.append("")
        lines.append("wan streams (bulk calls per sub-channel):")
        for label, v in sorted(report["streams"].items()):
            lines.append(
                f"  {label:<28} calls={v['calls']:<8} bytes={v['bytes']}"
            )
    cp = report.get("critical_path")
    if cp:
        lines.append("")
        lines.append(
            f"critical path (idle {cp['idle_seconds']:.6f}s, "
            f"{cp['idle_pct']:.1f}%):"
        )
        for c in cp["contributors"]:
            lines.append(
                f"  {c['cat'] + ':' + c['name']:<36} {c['seconds']:>10.6f}s "
                f"{c['pct_of_makespan']:>6.1f}%  ({c['steps']} steps)"
            )
    if report.get("top_spans"):
        lines.append("")
        lines.append("top spans by self time:")
        for c in report["top_spans"]:
            lines.append(
                f"  {c['cat'] + ':' + c['name']:<36} "
                f"{c['self_seconds']:>10.6f}s {c['pct_of_makespan']:>6.1f}%  "
                f"(n={c['count']})"
            )
    if report.get("clients"):
        lines.append("")
        lines.append("per-client span self time:")
        for ns, v in report["clients"].items():
            lines.append(
                f"  {ns:<12} {v['self_seconds']:>10.6f}s "
                f"{v['pct_of_makespan']:>6.1f}%"
            )
    return "\n".join(lines)
