"""Per-layer metrics: counts, virtual-clock attribution, host self time.

Layers are the ``src/repro`` packages.  ``harness`` also covers
``core``, ``workloads`` and ``faults`` (and anything outside the thirteen
names); ``sfs``, ``sshtun`` and ``services`` are on no workload's path.

Three sources, all outside the program:

- :func:`counts` reads the registry snapshot a timed rep returns
  (``result.stats``) — work done, hit ratios, retries;
- :func:`virtual_attribution` reads the ``repro.obs.profile`` report and
  span tree of one ``profile=True`` rep — the virtual critical path,
  CPU ledger and link occupancy;
- :func:`host_self_seconds` buckets one ``cProfile`` pass over the
  unmodified code by package, charging every function that is not the
  program's own (C builtins, the standard library) to whichever package
  called it.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Tuple

import repro
from repro.obs.profile import self_time_by_name

LAYERS = (
    "sim", "net", "xdr", "rpc", "tls", "crypto", "gsi", "proxy", "grid",
    "nfs", "vfs", "obs", "harness",
)

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_SERVER_HOST = re.compile(r"server|s\d+")


def labelled_sum(component: dict, metric: str, label: str = "") -> float:
    """Sum ``metric`` and every ``metric{...label...}`` entry of a component."""
    total = 0.0
    for key, value in component.items():
        name, _, labels = key.partition("{")
        if name == metric and label in labels and not isinstance(value, dict):
            total += value
    return total


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def counts(stats: Dict[str, dict], payload_bytes: int) -> Dict[str, float]:
    """The deterministic per-layer counts of one rep's ``result.stats``.

    Counters a run never touched are absent from the snapshot (they are
    registered lazily) and read as 0; ratios with an empty denominator
    are 0.
    """
    get = lambda comp: stats.get(comp, {})
    sim, net, tls = get("sim"), get("net"), get("tls")
    rpc_c, rpc_s = get("rpc.client"), get("rpc.server")
    pc, ps, grid = get("proxy.client"), get("proxy.server"), get("grid")
    cache = get("nfs.cache")
    wire = labelled_sum(net, "link_bytes")
    queue_wait = [v for k, v in rpc_s.items() if k.startswith("queue_wait{")]
    queue_depth = [v for k, v in rpc_s.items() if k.startswith("queue_depth{")]
    stream_bytes = [v for k, v in pc.items() if k.startswith("stream_bytes{")]
    handshakes = labelled_sum(tls, "handshakes", "role=server")
    resumptions = labelled_sum(tls, "resumptions", "role=server")
    authz = (ps.get("authz_cache_hits", 0) + ps.get("authz_cache_misses", 0)
             + ps.get("authz_cache_stale", 0))
    page, attr = cache.get("page", {}), cache.get("attr", {})
    out = {
        "sim.events": sim.get("events_dispatched", 0),
        "sim.heap_pushes": sim.get("heap_pushes", 0),
        "sim.process_wakeups": sim.get("process_wakeups", 0),
        # every hop counted: on the star topology each packet crosses two
        # links, so 2.0 is the floor of the ratio
        "net.wire_bytes": wire,
        "net.overhead_ratio": _ratio(wire, payload_bytes),
        "rpc.calls": labelled_sum(rpc_c, "calls"),
        "rpc.bytes": labelled_sum(rpc_c, "bytes_in") + labelled_sum(rpc_c, "bytes_out"),
        "rpc.retransmits": (labelled_sum(rpc_c, "retransmissions")
                            + labelled_sum(get("nfs.client"), "retransmissions")),
        "rpc.drc_replays": labelled_sum(get("rpc.drc"), "replays"),
        "rpc.queue_wait_virt_s": sum(h["sum"] for h in queue_wait),
        "rpc.queue_depth_max": max((h["max"] for h in queue_depth), default=0),
        "tls.records": labelled_sum(tls, "records_out"),
        "tls.bytes_sealed": labelled_sum(tls, "bytes_sealed"),
        "tls.full_handshakes": handshakes - resumptions,
        "tls.resumptions": resumptions,
        "gsi.delegations": get("gsi").get("delegations", 0),
        "gsi.renewals": get("gsi").get("renewals", 0),
        "proxy.data_hit_ratio": _ratio(
            pc.get("data_hits", 0), pc.get("data_hits", 0) + pc.get("data_misses", 0)),
        "proxy.forwarded": pc.get("forwarded", 0),
        "proxy.local_replies": pc.get("local_replies", 0),
        "proxy.writeback_blocks": pc.get("writeback_blocks", 0),
        "proxy.compound_members_per_envelope": _ratio(
            pc.get("compound_members", 0), pc.get("compound_envelopes", 0)),
        "proxy.stream_imbalance": _ratio(
            max(stream_bytes, default=0), min(stream_bytes, default=0)),
        "proxy.authz_hit_ratio": _ratio(ps.get("authz_cache_hits", 0), authz),
        "nfs.page_hit_ratio": _ratio(
            page.get("hits", 0), page.get("hits", 0) + page.get("misses", 0)),
        "nfs.attr_hit_ratio": _ratio(
            attr.get("hits", 0), attr.get("hits", 0) + attr.get("misses", 0)),
        "nfs.lock_waits": get("nfs.server").get("lock_waits", 0),
    }
    for name in ("spans_read", "spans_written", "replica_writes",
                 "layout_lookups", "read_failovers", "degraded_writes"):
        out[f"grid.{name}"] = grid.get(name, 0)
    return out


def virtual_attribution(rep) -> Dict[str, float]:
    """Virtual-clock metrics of one ``profile=True`` rep."""
    report = rep.profile
    makespan = report["meta"]["makespan"]
    critical = report["critical_path"]
    by_cat: Dict[str, float] = {}
    for row in critical["contributors"]:
        by_cat[row["cat"]] = by_cat.get(row["cat"], 0.0) + row["seconds"]
    servers = [entry for host, entry in report["cpu"].items()
               if _SERVER_HOST.fullmatch(host)]
    crypto = sum(e["crypto_seconds"] for e in servers)
    capacity = sum(e.get("cores", 1) for e in servers) * makespan
    # A disk span covers the wait for the spindle and the transfer; the
    # spindle's wait histogram is the first part.
    disk_spans = sum(secs for (cat, _name), (secs, _n)
                     in self_time_by_name(rep.tracer).items() if cat == "disk")
    spindle_wait = sum(h["sum"] for key, h in rep.stats.get("sync", {}).items()
                       if key.startswith("sem_wait{") and ".spindle" in key)
    return {
        "sim.virt_idle_share": _ratio(critical["idle_seconds"], makespan),
        "net.bottleneck_link_util": max(
            (l["utilization_pct"] for l in report["links"].values()), default=0.0) / 100,
        "rpc.virt_critical_s": by_cat.get("rpc", 0.0),
        "tls.virt_critical_s": by_cat.get("tls", 0.0),
        "proxy.virt_critical_s": by_cat.get("proxy", 0.0),
        "vfs.disk_virt_critical_s": by_cat.get("disk", 0.0),
        "vfs.disk_busy_virt_s": disk_spans - spindle_wait,
        "crypto.virt_server_cpu_share": _ratio(crypto, capacity),
        "crypto.virt_server_busy_share": _ratio(
            crypto, sum(e["busy_seconds"] for e in servers)),
    }


def _layer_of(filename: str):
    """The layer a source file belongs to, or None if it is not the program's."""
    if not filename.startswith(_PACKAGE_ROOT):
        return None
    package = filename[len(_PACKAGE_ROOT):].split(os.sep, 1)[0]
    return package if package in LAYERS else "harness"


def host_self_seconds(profile_stats) -> Tuple[Dict[str, float], float]:
    """Bucket a ``pstats.Stats`` by layer: ``({layer: self seconds}, total)``.

    Self time of a function outside ``repro`` is split among its callers
    in proportion to the time the callers map records for each, walking
    up until a ``repro`` frame is found; what has no such caller (the
    benchmark's own frames) is the harness's.  Every profiled second
    lands in exactly one layer, so the buckets sum to the total.
    """
    raw = profile_stats.stats
    out = dict.fromkeys(LAYERS, 0.0)

    def charge(func, amount: float, depth: int) -> None:
        layer = _layer_of(func[0])
        if layer is not None:
            out[layer] += amount
            return
        callers = raw[func][4] if func in raw else {}
        weight = sum(row[2] for row in callers.values())
        if depth >= 8 or weight <= 0.0:
            out["harness"] += amount
            return
        for caller, row in callers.items():
            if row[2] > 0.0:
                charge(caller, amount * row[2] / weight, depth + 1)

    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        charge(func, tt, 0)
    return out, profile_stats.total_tt
