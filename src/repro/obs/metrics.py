"""Metrics registry: counters, gauges, streaming histograms.

The registry is the cross-layer ledger behind every number in the
paper's evaluation: per-procedure RPC latency (Fig. 4), per-cipher bytes
encrypted (Figs. 4-6), proxy cache hit rates (Fig. 8), disk and link
byte counts.  Design rules:

- **Deterministic.**  Instruments never read the wall clock or any other
  ambient state; histograms summarize through *fixed* bucket boundaries,
  so two identical simulation runs snapshot byte-identically.
- **Zero-cost when disabled.**  :data:`NULL_REGISTRY` exposes the same
  surface but every instrument it hands out is a shared no-op; hot call
  sites additionally guard on ``registry.enabled`` (a single attribute
  check) so the disabled path does no dictionary lookups at all.
- **Declared.**  Every key is declared once in :mod:`repro.obs.schema`,
  with its kind and label names; :meth:`Registry.snapshot` exports a
  nested ``{component: {key: value}}`` dict over exactly those keys,
  sorted, ready for ``json.dumps``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Dict, List, Sequence, Tuple

from repro.obs.schema import (
    CACHE, COUNTER, GAUGE, HISTOGRAM, SCHEMA, declared, metric_key, parse_key, zero,
)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) of ``values`` by linear
    interpolation between closest ranks.

    This is the one percentile definition used everywhere in the
    repository (the RPC tracer and the histogram snapshots), replacing
    the ad-hoc ``int(len * q)`` indexing that over-indexed toward the
    maximum for small samples and picked the upper of the two middle
    elements for even-length medians.

    ``values`` may be unsorted; an internal sorted copy is used.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile out of range: {q}")
    if not values:
        raise ValueError("percentile of empty sequence")
    data = sorted(values)
    rank = q * (len(data) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return data[lo]
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


class Counter:
    """A monotonically increasing count (events, bytes, hits)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def export(self):
        return self.value


class Gauge:
    """A value that can go up and down (queue depth, bytes cached)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def add(self, v: float) -> None:
        self.value += v

    def export(self):
        return self.value


#: Default histogram boundaries: log-spaced virtual-time latencies from
#: 1 us to 100 s — wide enough for a loopback hop and an 80 ms-RTT WAN
#: COMMIT alike.  Fixed boundaries keep summaries deterministic.
LATENCY_BOUNDS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0, 100.0,
)


class Histogram:
    """A streaming histogram over fixed bucket boundaries.

    ``bounds`` are the *upper* edges of the finite buckets; one implicit
    overflow bucket catches everything beyond the last edge.  Exact
    count/sum/min/max are tracked alongside, so means are exact and the
    interpolated quantiles are clamped to the observed range.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = LATENCY_BOUNDS):
        b = tuple(bounds)
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = b
        self.counts = [0] * (len(b) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        # first bucket whose upper edge admits v
        self.counts[bisect_left(self.bounds, v)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating inside the
        bucket containing the target rank (same fractional-rank
        convention as :func:`percentile`)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if self.count == 0:
            return 0.0
        target = q * (self.count - 1)  # fractional rank, 0-based
        seen = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if target < seen + n:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                lower = max(lower, self.min)
                upper = min(max(upper, lower), self.max)
                frac = (target - seen + 0.5) / n
                return lower + (upper - lower) * min(max(frac, 0.0), 1.0)
            seen += n
        return self.max  # pragma: no cover - unreachable

    def export(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _NullInstrument:
    """Absorbs every instrument method; shared singleton."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def add(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass

    value = 0

    def export(self):
        return 0


NULL_INSTRUMENT = _NullInstrument()


def merge_metric(old, new, kind: str = COUNTER):
    """Combine two values reported under one declared key — an N-client
    fleet's sessions report through the same names.  ``kind`` is the
    key's declared kind: gauges report levels and merge by max (two
    6-deep queues are not a 12-deep one, and max does not depend on
    which collector ran first); counters sum; cache triples sum field by
    field."""
    if kind == GAUGE:
        return max(old, new)
    if kind == CACHE:
        return {field: old[field] + new[field] for field in old}
    return old + new


class Registry:
    """Named instruments grouped by component, plus pull collectors, over
    the keys :mod:`repro.obs.schema` declares.

    Instruments are get-or-create: the first ``counter("rpc.client",
    "bytes_out", account="a")`` checks the declaration and creates it,
    later calls return the same object.  Components that keep their own
    counts (the proxy ``stats`` dict, the client caches) register a
    *collector* — a callable returning ``{key: value}`` — polled only at
    snapshot time, where its keys are checked.  Neither check runs per
    increment.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, str], object] = {}
        self._collectors: List[Tuple[str, Callable[[], Dict[str, object]]]] = []

    # -- instruments ---------------------------------------------------

    def _get(self, factory, kind: str, component: str, name: str,
             labels: Dict[str, object]):
        key = (component, metric_key(name, labels))
        inst = self._metrics.get(key)
        if inst is None:
            declared(component, name, labels, kind)
            inst = self._metrics[key] = factory()
        return inst

    def counter(self, component: str, name: str, **labels) -> Counter:
        return self._get(Counter, COUNTER, component, name, labels)

    def gauge(self, component: str, name: str, **labels) -> Gauge:
        return self._get(Gauge, GAUGE, component, name, labels)

    def histogram(
        self,
        component: str,
        name: str,
        bounds: Sequence[float] = LATENCY_BOUNDS,
        **labels,
    ) -> Histogram:
        return self._get(lambda: Histogram(bounds), HISTOGRAM, component, name, labels)

    def add_collector(self, component: str, fn: Callable[[], Dict[str, object]]) -> None:
        self._collectors.append((component, fn))

    def add_fields(self, component: str, read: Callable[[str], object], **labels) -> None:
        """Collect ``read(name)`` for every declared counter and gauge of
        ``component`` whose label names are those of ``labels`` — the one
        collector of a component that keeps its own counts (``read`` is
        usually its bound ``__getattribute__``)."""
        keys = [(name, metric_key(name, labels))
                for name, decl in SCHEMA[component].items()
                if decl.kind in (COUNTER, GAUGE) and decl.labels == tuple(sorted(labels))]
        self.add_collector(component, lambda: {key: read(name) for name, key in keys})

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Nested ``{component: {key: value}}`` view of everything, sorted.

        Collector keys that collide — the per-session caches of an
        N-client fleet — merge by their declared kind
        (:func:`merge_metric`); every declared unlabelled key of a
        component present is filled in at zero if nothing reported it.
        """
        out: Dict[str, Dict[str, object]] = {}
        for (component, key), inst in self._metrics.items():
            out.setdefault(component, {})[key] = inst.export()
        for component, fn in self._collectors:
            bucket = out.setdefault(component, {})
            for key, value in fn().items():
                kind = declared(component, *parse_key(key)).kind
                bucket[key] = merge_metric(bucket[key], value, kind) if key in bucket else value
        for component, metrics in out.items():
            for name, decl in SCHEMA[component].items():
                if not decl.labels and name not in metrics:
                    metrics[name] = zero(decl.kind)
        return {c: dict(sorted(m.items())) for c, m in sorted(out.items())}


class NullRegistry(Registry):
    """Every instrument is the shared no-op; ``enabled`` is False so hot
    paths can skip their bookkeeping with one attribute check."""

    enabled = False

    def __init__(self) -> None:
        pass

    def _get(self, factory, kind, component, name, labels):
        return NULL_INSTRUMENT

    def add_collector(self, component, fn) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {}


NULL_REGISTRY = NullRegistry()
