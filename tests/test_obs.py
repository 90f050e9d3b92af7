"""Telemetry subsystem (repro.obs): metrics, spans, determinism, CLI."""

import json

import pytest

from repro.cli import main
from repro.core.topology import Testbed
from repro.harness import Scenario, run
from repro.nfs.cache import CacheStats
from repro.obs import (
    Histogram,
    LATENCY_BOUNDS,
    NULL_REGISTRY,
    NULL_TRACER,
    Registry,
    SpanTracer,
    percentile,
)
from repro.obs.metrics import NULL_INSTRUMENT
from repro.workloads.iozone import IOzoneReadReread


# -- percentile (the one shared definition) ----------------------------------


def test_percentile_even_length_median_is_midpoint():
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.5


def test_percentile_small_sample_p95_is_not_max():
    # the old int(len * 0.95) indexing returned the max for n < 20
    data = [1.0, 2.0, 3.0, 4.0, 100.0]
    p95 = percentile(data, 0.95)
    assert 4.0 < p95 < 100.0


def test_percentile_extremes_and_errors():
    data = [5.0, 1.0, 3.0]  # unsorted on purpose
    assert percentile(data, 0.0) == 1.0
    assert percentile(data, 1.0) == 5.0
    assert percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# -- histograms ---------------------------------------------------------------


def test_histogram_bucket_edges_are_inclusive_upper():
    h = Histogram(bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 1.0, 1.5, 2.0, 4.0, 9.0):
        h.observe(v)
    # v <= bound lands in that bucket; 9.0 overflows
    assert h.counts == [2, 2, 1, 1]
    assert h.count == 6
    assert h.min == 0.5 and h.max == 9.0


def test_histogram_single_value_quantiles_collapse():
    h = Histogram()
    h.observe(0.007)
    ex = h.export()
    assert ex["p50"] == ex["p95"] == ex["p99"] == 0.007
    assert ex["min"] == ex["max"] == 0.007


def test_histogram_quantiles_clamped_to_observed_range():
    h = Histogram()
    for v in (0.002, 0.0025, 0.003, 0.02, 0.021):
        h.observe(v)
    for q in (0.0, 0.5, 0.95, 1.0):
        assert 0.002 <= h.quantile(q) <= 0.021
    assert h.quantile(0.0) < h.quantile(1.0)


def test_percentile_q_zero_boundary_exact():
    # q=0 and q=1 must hit the extremes exactly even for n=1
    assert percentile([42.0], 0.0) == 42.0
    assert percentile([42.0], 1.0) == 42.0
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], -0.01)


def test_histogram_quantile_empty_is_zero_not_error():
    # unlike percentile([], q), an empty histogram degrades to 0.0 so
    # report code can query unpopulated instruments unconditionally
    h = Histogram()
    assert h.quantile(0.0) == 0.0
    assert h.quantile(0.5) == 0.0
    assert h.quantile(1.0) == 0.0
    assert h.export() == {"count": 0, "sum": 0.0}


def test_histogram_quantile_single_sample_all_q():
    h = Histogram()
    h.observe(0.42)
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert h.quantile(q) == pytest.approx(0.42)


def test_histogram_quantile_out_of_range_raises():
    h = Histogram()
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.quantile(-0.1)
    with pytest.raises(ValueError):
        h.quantile(1.01)
    # out-of-range raises even on an empty histogram (validation first)
    with pytest.raises(ValueError):
        Histogram().quantile(2.0)


def test_histogram_quantile_extremes_pin_to_min_max():
    h = Histogram()
    for v in (0.002, 0.05, 0.4, 2.0, 80.0):
        h.observe(v)
    assert h.quantile(0.0) >= h.min
    assert h.quantile(1.0) <= h.max
    assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(bounds=())


def test_latency_bounds_strictly_increasing():
    assert all(a < b for a, b in zip(LATENCY_BOUNDS, LATENCY_BOUNDS[1:]))


# -- registry -----------------------------------------------------------------


def test_registry_get_or_create_and_labels():
    reg = Registry()
    c1 = reg.counter("rpc.client", "bytes_out", account="alice")
    c2 = reg.counter("rpc.client", "bytes_out", account="alice")
    c3 = reg.counter("rpc.client", "bytes_out", account="bob")
    assert c1 is c2 and c1 is not c3
    c1.inc(10)
    c3.inc(1)
    snap = reg.snapshot()
    assert snap["rpc.client"]["bytes_out{account=alice}"] == 10
    assert snap["rpc.client"]["bytes_out{account=bob}"] == 1


def test_registry_snapshot_nested_sorted_and_collectors():
    reg = Registry()
    reg.counter("sim", "process_wakeups").inc()
    reg.counter("sim", "events_dispatched").inc(2)
    reg.add_collector("gsi", lambda: {"renewals": 7})
    snap = reg.snapshot()
    assert list(snap) == ["gsi", "sim"]
    assert snap["sim"] == {"events_dispatched": 2, "heap_pushes": 0,
                           "process_wakeups": 1}
    assert snap["gsi"] == {"delegations": 0, "renewals": 7}
    # snapshot is json-serializable as-is
    json.dumps(snap)


def test_null_registry_is_inert():
    assert NULL_REGISTRY.enabled is False
    assert NULL_REGISTRY.counter("x", "y") is NULL_INSTRUMENT
    assert NULL_REGISTRY.histogram("x", "y") is NULL_INSTRUMENT
    NULL_REGISTRY.counter("x", "y").inc()
    NULL_REGISTRY.add_collector("x", lambda: {"boom": 1})
    assert NULL_REGISTRY.snapshot() == {}


# -- span tracer --------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class _Owner:
    def __init__(self, name):
        self.name = name


def test_span_nesting_records_parent_child():
    clock = _FakeClock()
    tr = SpanTracer(clock=clock)
    with tr.span("outer", cat="rpc") as outer:
        clock.t = 1.0
        with tr.span("inner", cat="tls") as inner:
            clock.t = 2.0
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert inner.start == 1.0 and inner.end == 2.0
    assert outer.end == 2.0
    # inner closes first, so it lands in the buffer first
    assert [s.name for s in tr.spans] == ["inner", "outer"]


def test_spans_on_different_processes_do_not_nest():
    clock = _FakeClock()
    a, b = _Owner("proc-a"), _Owner("proc-b")
    current = {"owner": a}
    tr = SpanTracer(clock=clock, current_track=lambda: current["owner"])
    ctx_a = tr.span("a-work", cat="rpc")
    sa = ctx_a.__enter__()
    current["owner"] = b  # simulated context switch
    with tr.span("b-work", cat="rpc") as sb:
        clock.t = 1.0
    current["owner"] = a
    ctx_a.__exit__(None, None, None)
    assert sb.parent_id is None  # b is not a child of a's open span
    assert sa.tid != sb.tid


def test_chrome_trace_schema_and_determinism():
    def build():
        clock = _FakeClock()
        owner = _Owner("worker")
        tr = SpanTracer(clock=clock, current_track=lambda: owner)
        with tr.span("rpc.call", cat="rpc", proc="READ"):
            clock.t = 0.0015
        tr.instant("cache.hit", cat="nfs-cache")
        return tr

    tr = build()
    doc = tr.chrome_trace()
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert meta and meta[0]["args"]["name"] == "worker"
    assert len(xs) == 2
    ev = xs[0]
    assert ev["name"] == "rpc.call" and ev["cat"] == "rpc"
    assert ev["ts"] == 0.0 and ev["dur"] == 1500.0  # microseconds
    assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
    assert ev["args"]["proc"] == "READ" and "span_id" in ev["args"]
    # identical traces export byte-identically
    assert build().to_json() == tr.to_json()


def test_span_ring_buffer_drops_oldest():
    tr = SpanTracer(clock=_FakeClock(), capacity=2)
    for i in range(3):
        with tr.span(f"s{i}"):
            pass
    assert tr.dropped == 1
    assert [s.name for s in tr.spans] == ["s1", "s2"]


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("anything", cat="x", k=1) as s:
        assert s is None
    NULL_TRACER.instant("marker")
    assert NULL_TRACER.chrome_trace()["traceEvents"] == []


# -- CacheStats unification ---------------------------------------------------


def test_cache_stats_counts_and_rates():
    st = CacheStats()
    st.hit()
    st.hit()
    st.miss()
    st.evict()
    assert (st.hits, st.misses, st.evictions) == (2, 1, 1)
    assert st.lookups == 3
    assert st.hit_rate == pytest.approx(2 / 3)
    assert st.export() == {"hits": 2, "misses": 1, "evictions": 1}
    assert CacheStats().hit_rate == 0.0


def test_cache_stats_register_feeds_registry():
    reg = Registry()
    st = CacheStats()
    st.register(reg, "nfs.cache", "attr")
    st.hit()
    snap = reg.snapshot()
    assert snap["nfs.cache"]["attr"] == {"hits": 1, "misses": 0, "evictions": 0}


def test_nfs_client_cache_stats_keys_are_uniform():
    from repro.core import setup_nfs_v3

    tb = Testbed.build(telemetry=True)
    mount = setup_nfs_v3(tb)

    def job():
        yield from mount.client.write_file("/f", b"x" * 5000)
        yield from mount.client.read_file("/f")

    tb.run(job())
    stats = tb.obs.snapshot()["nfs.cache"]
    assert set(stats) == {"attr", "name", "access", "page"}
    for cache in stats.values():
        assert set(cache) == {"hits", "misses", "evictions"}


# -- end-to-end determinism + layer coverage ----------------------------------


def _traced_run():
    # disk_cache=True so the proxy's cache disk shows up in the trace
    # (the IOzone file is preloaded server-side, so the server disk
    # alone would stay idle on this read-only workload)
    return run(Scenario("sgfs", cache_bytes=256 * 1024, disk_cache=True),
               lambda: IOzoneReadReread(file_size=512 * 1024),
               telemetry=True, tracing=True)


def test_identical_runs_export_identically():
    r1, r2 = _traced_run(), _traced_run()
    assert r1.total == r2.total
    snap1 = json.dumps(r1.stats, sort_keys=True)
    snap2 = json.dumps(r2.stats, sort_keys=True)
    assert snap1 == snap2
    assert r1.trace_json() == r2.trace_json()


def test_traced_sgfs_run_covers_the_stack():
    r = _traced_run()
    cats = r.tracer.categories()
    assert {"rpc", "tls", "proxy", "nfs-cache", "disk"} <= cats
    components = set(r.stats)
    assert {"rpc.client", "rpc.server", "tls", "proxy.client",
            "proxy.server", "nfs.cache", "nfs.client", "sim", "net"} <= components
    doc = json.loads(r.trace_json())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_telemetry_disabled_run_matches_enabled_virtual_time():
    iozone = lambda: IOzoneReadReread(file_size=256 * 1024)
    base = run(Scenario("nfs-v3"), iozone, telemetry=False)
    obs = run(Scenario("nfs-v3"), iozone, telemetry=True, tracing=True)
    assert base.total == obs.total
    assert base.stats.get("sim") is None  # no registry when disabled
    assert "sim" in obs.stats


# -- CLI commands -------------------------------------------------------------


def test_cli_stats_json(capsys_out=None):
    import io

    out = io.StringIO()
    rc = main(["stats", "--setup", "nfs-v3", "--workload", "iozone", "--json"],
              out=out)
    assert rc == 0
    doc = json.loads(out.getvalue())
    assert "rpc.client" in doc and "sim" in doc


def test_cli_stats_rejects_unknown_setup(capsys):
    # the preset dialect is gone: a name outside SETUP_BUILDERS is an
    # argparse error for stats exactly as it is for run
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--setup", "lan-nfs", "--workload", "iozone"])
    assert exc.value.code == 2
    assert "invalid choice: 'lan-nfs'" in capsys.readouterr().err


def test_cli_trace_writes_chrome_json(tmp_path):
    import io

    out_file = tmp_path / "trace.json"
    out = io.StringIO()
    rc = main(["trace", "--setup", "sgfs", "--workload", "iozone",
               "--out", str(out_file)], out=out)
    assert rc == 0
    doc = json.loads(out_file.read_text())
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert xs and {"ts", "dur", "pid", "tid", "name", "cat"} <= set(xs[0])
    assert "perfetto" in out.getvalue()


def test_merge_metric_rules():
    from repro.obs import merge_metric
    from repro.obs.schema import CACHE, COUNTER

    assert merge_metric(2, 3) == 5
    assert merge_metric(1.5, 2, COUNTER) == 3.5
    # cache triples sum field by field
    assert merge_metric(
        {"hits": 1, "misses": 2, "evictions": 0},
        {"hits": 4, "misses": 3, "evictions": 1}, CACHE,
    ) == {"hits": 5, "misses": 5, "evictions": 1}


def test_registry_snapshot_merges_colliding_collectors():
    """N per-session collectors reporting the same names must sum, not
    last-writer-win (the fleet regression this guards)."""
    reg = Registry()
    for hits in (3, 4):
        reg.add_collector("nfs.cache", lambda hits=hits: {
            "page": {"hits": hits, "misses": 1, "evictions": 0}})
    snap = reg.snapshot()
    assert snap["nfs.cache"]["page"] == {"hits": 7, "misses": 2, "evictions": 0}


def test_merge_metric_gauges_take_max_not_sum():
    """Level-style metrics (queue depths, cache entry counts) from N
    colliding collectors must merge by max: summing two snapshots of a
    6-deep queue does not make it 12 deep (the gauge regression this
    guards).  The kind is the key's declaration, not a list of names."""
    from repro.obs import merge_metric
    from repro.obs.schema import COUNTER, GAUGE, declared

    assert merge_metric(6, 4, GAUGE) == 6
    assert merge_metric(4, 6, GAUGE) == 6
    assert merge_metric(6, 4, COUNTER) == 10
    kind = declared("rpc.server", "sessions_queued", ("server",)).kind
    assert merge_metric(6, 4, kind) == 6
    kind = declared("grid", "layout_cache_entries").kind
    assert merge_metric(6, 4, kind) == 6


def test_registry_snapshot_merges_gauges_by_max():
    reg = Registry()
    for depth, calls in ((6, 10), (4, 7)):
        reg.add_collector(
            "rpc.server",
            lambda depth=depth, calls=calls: {
                "sessions_queued{server=nfsd}": depth,
                "calls{server=nfsd}": calls,
            },
        )
    snap = reg.snapshot()
    assert snap["rpc.server"]["sessions_queued{server=nfsd}"] == 6
    assert snap["rpc.server"]["calls{server=nfsd}"] == 17
