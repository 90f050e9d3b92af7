"""The stats schema: every key a run can report, declared once.

A snapshot is ``{component: {key: value}}``; a key is a metric name plus
optional labels, spelled ``name{a=1,b=2}`` with the labels sorted
(:func:`metric_key`).  :data:`SCHEMA` declares, per component, each
name's kind, label names and the schema version that added it.  The
registry enforces it (:mod:`repro.obs.metrics`):

- creating an instrument, or a collector reporting a key, that is not
  declared raises ``ValueError``;
- colliding reports merge by the declared kind (gauges by max, counters
  and cache triples by sum);
- every declared unlabelled key of a component present in a snapshot is
  present, at zero if untouched.

Adding a metric is one row at ``since=SCHEMA_VERSION + 1``: golden
hashes cover :func:`project` at a pinned version, so it moves none.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

SCHEMA_VERSION = 2

COUNTER, GAUGE, HISTOGRAM, CACHE = "counter", "gauge", "histogram", "cache"


class Decl(NamedTuple):
    """One declared metric: its kind, label names and the schema version
    that added it."""

    kind: str
    labels: Tuple[str, ...] = ()
    since: int = 1


#: (component, kind, names, label names[, since]) — names and labels
#: space-separated, labels in sorted order.
_ROWS = (
    ("disk", COUNTER, "reads writes bytes_read bytes_written", "disk"),
    ("faults", COUNTER, "packets dropped corrupted duplicated delayed retransmits "
                        "flap_drops crashes", ""),
    ("grid", COUNTER, "striped_reads striped_writes spans_read spans_written "
                      "replica_writes read_failovers degraded_writes dead_marks "
                      "hole_spans layout_lookups layout_invalidations mirrored_ops "
                      "size_pushes", ""),
    ("grid", GAUGE, "layout_cache_entries shadow_handles", ""),
    ("grid.meta", COUNTER, "lookups registrations forgets dead_marks epoch_bumps", ""),
    ("gsi", COUNTER, "delegations renewals", ""),
    ("net", COUNTER, "link_bytes", "link"),
    ("net", GAUGE, "link_busy_seconds", "link"),
    ("net", HISTOGRAM, "queue_delay", "link"),
    ("net", COUNTER, "loopback_bytes", ""),
    ("nfs.cache", CACHE, "attr name access page", ""),
    ("nfs.client", COUNTER, "retransmissions", ""),
    ("nfs.client", HISTOGRAM, "latency", "proc"),
    ("nfs.server", COUNTER, "lock_waits", ""),
    ("nfs.server", HISTOGRAM, "lock_wait", ""),
    ("portal", COUNTER, "proxies_issued renewals denials", ""),
    ("portal", GAUGE, "enrolled_users", ""),
    ("proxy.client", COUNTER, "local_replies forwarded data_hits data_misses attr_hits "
                              "writes_absorbed writeback_blocks writeback_bytes "
                              "writeback_errors blocks_sealed blocks_opened revalidations "
                              "revalidation_drops upstream_retries compound_envelopes "
                              "compound_members", ""),
    ("proxy.client", COUNTER, "stream_calls stream_bytes", "ch leg"),
    ("proxy.client", COUNTER, "prefetch_evicted_unread", "", 2),
    ("proxy.server", COUNTER, "granted denied acl_answers unix_fallbacks calls_forwarded "
                              "authz_cache_hits authz_cache_misses authz_cache_stale "
                              "sessions handshakes handshake_failures compound_envelopes "
                              "compound_members", ""),
    ("rpc.client", COUNTER, "calls bytes_in bytes_out retransmissions", "account"),
    ("rpc.client", HISTOGRAM, "latency", "proc"),
    ("rpc.drc", COUNTER, "replays parks", "cache"),
    ("rpc.server", COUNTER, "calls bytes_in bytes_out", "server"),
    ("rpc.server", GAUGE, "sessions_queued", "server"),
    ("rpc.server", HISTOGRAM, "queue_depth queue_wait", "server"),
    ("rpc.server", HISTOGRAM, "service_time", "proc server"),
    ("sim", COUNTER, "events_dispatched heap_pushes process_wakeups", ""),
    ("sync", COUNTER, "sem_waits rwlock_waits", "lock"),
    ("sync", HISTOGRAM, "sem_wait rwlock_wait", "lock"),
    ("tls", COUNTER, "records_in records_out bytes_sealed bytes_opened renegotiations",
     "suite"),
    ("tls", COUNTER, "handshakes full_handshakes resumptions", "role suite"),
)

#: component -> metric name -> :class:`Decl`
SCHEMA: Dict[str, Dict[str, Decl]] = {}
for _component, _kind, _names, _labels, *_since in _ROWS:
    for _name in _names.split():
        SCHEMA.setdefault(_component, {})[_name] = Decl(_kind, tuple(_labels.split()), *_since)
del _component, _kind, _names, _labels, _since, _name


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """The one spelling of a snapshot key: ``name{a=1,b=2}``, labels sorted."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """``(name, labels)`` of a snapshot key; the inverse of :func:`metric_key`."""
    name, _, inner = key.partition("{")
    return name, dict(part.split("=", 1) for part in inner[:-1].split(",")) if inner else {}


def declared(component: str, name: str, labels=(), kind: str = "") -> Decl:
    """The declaration of ``component/name`` with these label names (and
    this kind, if given); ``ValueError`` if there is none."""
    decl = SCHEMA.get(component, {}).get(name)
    if decl is None or decl.labels != tuple(sorted(labels)) or kind not in ("", decl.kind):
        shown = metric_key(name, dict.fromkeys(labels, "*"))
        raise ValueError(f"{kind or 'metric'} {component}/{shown} is not declared "
                         f"in repro.obs.schema")
    return decl


def zero(kind: str):
    """What an untouched key of ``kind`` reports."""
    if kind == HISTOGRAM:
        return {"count": 0, "sum": 0.0}
    return {"hits": 0, "misses": 0, "evictions": 0} if kind == CACHE else 0


def zeros(component: str) -> Dict[str, int]:
    """Every unlabelled counter of ``component`` at 0: the starting
    counts of a component that keeps its own."""
    return {name: 0 for name, decl in SCHEMA[component].items()
            if decl.kind == COUNTER and not decl.labels}


def check(stats: Dict[str, dict]) -> List[str]:
    """What breaks the schema in a snapshot: undeclared keys, and declared
    unlabelled keys missing from a component that is present."""
    problems = []
    for component, metrics in stats.items():
        for key in metrics:
            try:
                declared(component, *parse_key(key))
            except ValueError as exc:
                problems.append(str(exc))
        problems += [f"{component}/{name} is missing"
                     for name, decl in SCHEMA.get(component, {}).items()
                     if not decl.labels and name not in metrics]
    return problems


def project(stats: Dict[str, dict], version: int = SCHEMA_VERSION) -> Dict[str, dict]:
    """``stats`` restricted to the keys declared at ``version`` or before."""
    out = {}
    for component, metrics in stats.items():
        kept = {key: value for key, value in metrics.items()
                if SCHEMA[component][key.partition("{")[0]].since <= version}
        if kept:
            out[component] = kept
    return out
