"""Bottleneck attribution (repro.obs.profile) and snapshot flattening.

Covers the span geometry (self-segments, critical path), the flame
export, the full report on a profiled run (including byte-identical
determinism), the sync-layer lock-wait export, fleet span namespacing,
and the dotted-path flattening of stats snapshots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.cli import main
from repro.harness import Scenario, run
from repro.obs import Registry, SpanTracer
from repro.obs.benchdiff import flatten
from repro.obs.profile import (
    build_report,
    collapsed_stacks,
    critical_path,
    format_report,
    is_crypto_account,
    report_json,
    self_segments,
)
from repro.sim.core import Simulator
from repro.sim.sync import RwLock, Semaphore, lock_group
from repro.workloads.iozone import IOzoneReadReread


# -- synthetic span fixtures --------------------------------------------------


@dataclass
class _S:
    """Just enough of a Span for the geometry functions."""

    span_id: int
    name: str
    start: float
    end: Optional[float]
    parent_id: Optional[int] = None
    cat: str = "t"
    tid: int = 1


class _Trace:
    """Tracer stand-in exposing a fixed span list."""

    enabled = True

    def __init__(self, spans):
        self.spans = spans

    def track_names(self):
        return {}

    def track_namespaces(self):
        return {}


# -- self-segments ------------------------------------------------------------


def test_self_segments_subtract_children():
    parent = _S(1, "p", 0.0, 10.0)
    kids = [_S(2, "a", 2.0, 4.0, parent_id=1), _S(3, "b", 6.0, 8.0, parent_id=1)]
    segs = self_segments([parent] + kids)
    of = lambda s: sorted((a, b) for a, b, sp in segs if sp is s)
    assert of(parent) == [(0.0, 2.0), (4.0, 6.0), (8.0, 10.0)]
    assert of(kids[0]) == [(2.0, 4.0)]
    assert of(kids[1]) == [(6.0, 8.0)]


def test_self_segments_child_covering_whole_parent_leaves_nothing():
    parent = _S(1, "p", 0.0, 5.0)
    kid = _S(2, "k", 0.0, 5.0, parent_id=1)
    segs = self_segments([parent, kid])
    assert [(a, b) for a, b, s in segs if s is parent] == []
    assert [(a, b) for a, b, s in segs if s is kid] == [(0.0, 5.0)]


def test_self_segments_skip_open_spans():
    closed = _S(1, "done", 0.0, 1.0)
    open_ = _S(2, "running", 0.5, None)
    segs = self_segments([closed, open_])
    assert [s.name for _a, _b, s in segs] == ["done"]


# -- critical path ------------------------------------------------------------


def test_critical_path_prefers_latest_start_and_charges_idle():
    # A covers [0,4], B covers [3,10]; nothing covers (10,12].
    spans = [_S(1, "A", 0.0, 4.0), _S(2, "B", 3.0, 10.0, tid=2)]
    contributors, idle = critical_path(_Trace(spans), 0.0, 12.0)
    assert idle == pytest.approx(2.0)
    assert contributors[("t", "B")][0] == pytest.approx(7.0)
    assert contributors[("t", "A")][0] == pytest.approx(3.0)


def test_critical_path_tie_breaks_on_span_id():
    # Identical intervals: the newer span (larger id) wins the sweep.
    spans = [_S(1, "old", 0.0, 5.0), _S(2, "new", 0.0, 5.0, tid=2)]
    contributors, idle = critical_path(_Trace(spans), 0.0, 5.0)
    assert idle == 0.0
    assert contributors[("t", "new")][0] == pytest.approx(5.0)
    assert ("t", "old") not in contributors
    assert sum(v[0] for v in contributors.values()) == pytest.approx(5.0)


def test_critical_path_empty_trace_is_all_idle():
    contributors, idle = critical_path(_Trace([]), 1.0, 4.0)
    assert contributors == {} and idle == pytest.approx(3.0)


def test_critical_path_partitions_the_makespan():
    spans = [
        _S(1, "A", 0.0, 6.0),
        _S(2, "B", 2.0, 3.0, tid=2),
        _S(3, "C", 5.0, 9.0, tid=3),
    ]
    contributors, idle = critical_path(_Trace(spans), 0.0, 10.0)
    covered = sum(v[0] for v in contributors.values()) + idle
    assert covered == pytest.approx(10.0)


# -- flame export -------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class _Owner:
    def __init__(self, name):
        self.name = name


def test_collapsed_stacks_format_weights_and_order():
    clock = _Clock()
    owner = _Owner("worker")
    tr = SpanTracer(clock=clock, current_track=lambda: owner)
    with tr.span("outer", cat="a"):
        clock.t = 1.0
        with tr.span("inner", cat="b"):
            clock.t = 3.0
        clock.t = 4.0
    text = collapsed_stacks(tr)
    lines = text.splitlines()
    assert lines == sorted(lines)  # lexicographic, hence reproducible
    weights = dict(line.rsplit(" ", 1) for line in lines)
    assert weights["worker;outer"] == str(2_000_000_000)  # 2 s of self time
    assert weights["worker;outer;inner"] == str(2_000_000_000)


# -- crypto account marking ---------------------------------------------------


def test_is_crypto_account():
    assert is_crypto_account("proxy/seal:aes-256-cbc-sha1")
    assert is_crypto_account("proxy/open:rc4-128-sha1")
    assert is_crypto_account("ssh/crypto:aes-256-cbc-sha1")
    assert is_crypto_account("sfsd/handshake")
    assert not is_crypto_account("proxy")
    assert not is_crypto_account("kernel-nfs")


# -- sync-layer wait export ---------------------------------------------------


def test_lock_group_collapses_digit_runs():
    assert lock_group("ino42") == "ino*"
    assert lock_group("cpu:c7.core") == "cpu:c*.core"
    assert lock_group("plain") == "plain"


def test_semaphore_contention_exports_wait_histogram():
    sim = Simulator(obs=Registry())
    sem = Semaphore(sim, capacity=1, name="disk7")

    def holder():
        yield sem.acquire()
        yield sim.timeout(2.0)
        sem.release()

    def waiter():
        yield sim.timeout(1.0)
        yield sem.acquire()
        sem.release()

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    sync = sim.obs.snapshot()["sync"]
    assert sync["sem_waits{lock=disk*}"] == 1
    hist = sync["sem_wait{lock=disk*}"]
    assert hist["count"] == 1
    assert hist["sum"] == pytest.approx(1.0)  # queued t=1 .. granted t=2


def test_semaphore_uncontended_exports_nothing():
    sim = Simulator(obs=Registry())
    sem = Semaphore(sim, capacity=2, name="free")

    def user():
        yield sem.acquire()
        yield sim.timeout(1.0)
        sem.release()

    sim.spawn(user())
    sim.run()
    assert "sync" not in sim.obs.snapshot()
    assert sem.wait_count == 0


def test_rwlock_contention_exports_wait_histogram():
    sim = Simulator(obs=Registry())
    lk = RwLock(sim, name="ino42")

    def writer():
        yield lk.acquire_write()
        yield sim.timeout(3.0)
        lk.release_write()

    def reader():
        yield sim.timeout(1.0)
        yield lk.acquire_read()
        lk.release_read()

    sim.spawn(writer())
    sim.spawn(reader())
    sim.run()
    sync = sim.obs.snapshot()["sync"]
    assert sync["rwlock_waits{lock=ino*}"] == 1
    hist = sync["rwlock_wait{lock=ino*}"]
    assert hist["count"] == 1
    assert hist["sum"] == pytest.approx(2.0)  # queued t=1 .. granted t=3


#: ``sync`` of the contended run below: per group, the counter and the
#: histogram's (count, sum, max).  Semaphores (biod slots, links),
#: per-inode RwLocks and CPU cores all queue in it.  Re-captured when
#: the proxy's write-behind stopped blocking the evicting WRITE on its
#: own burst: the biod wait sum fell from 2.25 to 1.01 virtual seconds;
#: and again when the proxy kept twice the pipe in flight in two-block
#: channel shares (8-block bursts where it had sent 4-block ones).
CONTENDED_SYNC = {
    "rwlock_waits{lock=ino*}": (23, 0.07206620870454622, 0.007951472204545562),
    "sem_waits{lock=biod}": (24, 0.93566023411363, 0.08111513974393897),
    "sem_waits{lock=client<->router:client->router}":
        (20, 0.03210185249999996, 0.002743542500000029),
    "sem_waits{lock=cpu:client.core}":
        (58, 0.031630921749998486, 0.0019609239999999195),
    "sem_waits{lock=cpu:server.core}":
        (38, 0.004873080749999592, 0.00027218774999993034),
}


def test_contended_run_exports_the_same_sync_series():
    from repro.workloads.iozone import IOzoneWriteRead

    size = 1024 * 1024
    r = run(Scenario("sgfs-aes", rtt=0.02, disk_cache=True, streams=4,
                     cache_capacity=size // 4),
            lambda: IOzoneWriteRead(file_size=size))
    sync = r.stats["sync"]
    got = {}
    for key, count in sync.items():
        if "_waits{" in key:
            hist = sync[key.replace("_waits{", "_wait{")]
            assert hist["count"] == count
            got[key] = (count, hist["sum"], hist["max"])
    assert got == CONTENDED_SYNC
    assert len(sync) == 2 * len(CONTENDED_SYNC)


# -- fleet span namespacing ---------------------------------------------------


def test_trace_ns_inherited_by_spawned_subtree():
    sim = Simulator(obs=Registry())
    sim.tracer = SpanTracer(clock=lambda: sim.now,
                            current_track=lambda: sim.current)

    def child():
        with sim.tracer.span("inner", cat="t"):
            yield sim.timeout(1.0)

    def root():
        with sim.tracer.span("outer", cat="t"):
            sim.spawn(child(), name="kid")
            yield sim.timeout(2.0)

    proc = sim.spawn(root(), name="rootp")
    proc.trace_ns = "c7"
    sim.run()
    names = sim.tracer.track_names()
    assert sorted(names.values()) == ["c7:kid", "c7:rootp"]
    assert set(sim.tracer.track_namespaces().values()) == {"c7"}
    # the namespace flows into the flame export, keeping clients apart
    assert all(line.startswith("c7:")
               for line in collapsed_stacks(sim.tracer).splitlines())


def test_trace_ns_defaults_to_none_outside_fleets():
    sim = Simulator(obs=Registry())
    sim.tracer = SpanTracer(clock=lambda: sim.now,
                            current_track=lambda: sim.current)

    def work():
        with sim.tracer.span("w", cat="t"):
            yield sim.timeout(1.0)

    sim.spawn(work(), name="solo")
    sim.run()
    assert set(sim.tracer.track_namespaces().values()) == {None}
    assert "solo" in sim.tracer.track_names().values()


# -- full report on a profiled run -------------------------------------------


def _profiled_run(**kw):
    return run(Scenario("sgfs-aes"), lambda: IOzoneReadReread(file_size=128 * 1024),
               profile=kw.pop("profile", True), **kw)


def test_build_report_sections_and_crypto_attribution():
    r = _profiled_run()
    rep = r.profile
    assert {"meta", "cpu", "links", "locks", "rpc_queue",
            "critical_path", "top_spans"} <= set(rep)
    assert rep["meta"]["makespan"] > 0.0
    server = rep["cpu"]["server"]
    assert server["busy_seconds"] > 0.0
    assert server["crypto_seconds"] > 0.0
    assert server["crypto_pct_of_busy"] <= 100.0 + 1e-9
    assert any(is_crypto_account(k) for k in server["accounts"])
    # account seconds sum to the host's busy total
    total = sum(v["seconds"] for v in server["accounts"].values())
    assert total == pytest.approx(server["busy_seconds"], rel=1e-6)
    # utilization timelines are bucketed over the makespan
    assert server["timeline"] and all(0 <= pct <= 100.0 + 1e-9
                                      for _t, pct in server["timeline"])
    # link occupancy was recorded (profile=True arms it)
    assert rep["links"]
    # critical path + idle partition the makespan
    cp = rep["critical_path"]
    covered = sum(c["seconds"] for c in cp["contributors"]) + cp["idle_seconds"]
    assert covered <= rep["meta"]["makespan"] + 1e-9
    # single-session run: no per-client section
    assert "clients" not in rep


def test_build_report_same_seed_byte_identical():
    a, b = _profiled_run(), _profiled_run()
    assert report_json(a.profile) == report_json(b.profile)
    assert collapsed_stacks(a.tracer) == collapsed_stacks(b.tracer)


def test_build_report_respects_kwargs_dict():
    r = _profiled_run(profile={"top": 2, "window": 0.001})
    rep = r.profile
    assert len(rep["critical_path"]["contributors"]) <= 2
    assert len(rep["top_spans"]) <= 2
    assert rep["meta"]["window"] == pytest.approx(0.001)


def test_format_report_renders_every_section():
    text = format_report(_profiled_run().profile)
    for marker in ("makespan", "cpu server", "links:", "critical path",
                   "top spans by self time"):
        assert marker in text


def test_profile_not_attached_unless_requested():
    r = run(Scenario("sgfs"), lambda: IOzoneReadReread(file_size=128 * 1024),
            telemetry=True, tracing=True)
    assert r.profile is None


# -- flatten ------------------------------------------------------------------


def test_flatten_paths_dicts_and_lists():
    doc = {"b": [1, {"c": 2}], "a": 3}
    assert flatten(doc) == {"a": 3, "b[0]": 1, "b[1].c": 2}


# -- CLI ----------------------------------------------------------------------


def test_cli_profile_writes_flame_and_json(tmp_path):
    import io

    flame = tmp_path / "flame.txt"
    report = tmp_path / "report.json"
    out = io.StringIO()
    rc = main(["profile", "--setup", "sgfs", "--workload", "iozone",
               "--file-size", "131072",
               "--flame", str(flame), "--json", str(report)], out=out)
    assert rc == 0
    assert "makespan" in out.getvalue()
    doc = json.loads(report.read_text())
    assert {"cpu", "critical_path", "meta"} <= set(doc)
    lines = flame.read_text().splitlines()
    assert lines
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        assert ";" in stack and int(weight) > 0
