"""``repro.obs`` — unified telemetry: metrics registry + span tracing.

Two pillars (see DESIGN.md "Observability"):

- :class:`Registry` — named counters, gauges and streaming histograms
  with ``component/name`` keys and labels, every key declared once in
  :mod:`repro.obs.schema`; ``snapshot()`` exports a nested dict.
  :data:`NULL_REGISTRY` is the zero-cost disabled variant.
- :class:`SpanTracer` — virtual-clock spans with per-process causal
  nesting, ring-buffered, exportable as Chrome-trace/Perfetto JSON.
  :data:`NULL_TRACER` is the disabled variant.

Both are wired through explicit hook points: the simulator carries the
active registry/tracer (``sim.obs`` / ``sim.tracer``), and each layer
picks them up at construction time.  Enable per-testbed via
``Testbed.build(telemetry=True, tracing=True)`` or the ``stats`` /
``trace`` CLI commands.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BOUNDS,
    NULL_REGISTRY,
    NullRegistry,
    Registry,
    merge_metric,
    percentile,
)
from repro.obs.benchdiff import flatten
from repro.obs.profile import (
    build_report,
    collapsed_stacks,
    critical_path,
    format_report,
    report_json,
    self_segments,
)
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, NullTracer, Span, SpanTracer

__all__ = [
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDS",
    "NULL_REGISTRY",
    "merge_metric",
    "NullRegistry",
    "Registry",
    "percentile",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanTracer",
    "flatten",
    "build_report",
    "collapsed_stacks",
    "critical_path",
    "format_report",
    "report_json",
    "self_segments",
]
