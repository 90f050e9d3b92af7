"""The stats schema (repro.obs.schema) is the contract of every snapshot.

What a run reports depends on what was built, never on what the run
happened to do: every key is declared, every declared unlabelled key of
a component present is there, colliding reports merge by their declared
kind, and a key added at a later schema version moves no golden hash.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.setups import SETUP_BUILDERS
from repro.grid.router import GridRouter
from repro.harness import run_fleet, run_iozone
from repro.nfs.client import NfsClient
from repro.obs import Registry
from repro.obs.schema import (
    COUNTER, SCHEMA, SCHEMA_VERSION, Decl, check, metric_key, parse_key, project,
)
from repro.proxy.client_proxy import SgfsClientProxy
from repro.workloads import IOzoneWriteRead, SessionChurn
from tests._capture_goldens import snapshot_sha256
from tests.test_golden_runtimes import CACHE_BYTES, FILE_SIZE, GOLDEN

ROOT = Path(__file__).resolve().parent.parent
KB = 1024


def _grid_fleet():
    return run_fleet("sgfs-aes", lambda: IOzoneWriteRead(file_size=128 * KB),
                     clients=3, servers=2, replicas=2, rtt=0.02,
                     faults="lossy-wan", fault_seed="g")


_SCENARIOS = {
    **{f"lan-{setup}": (lambda setup=setup: run_iozone(setup, file_size=256 * KB))
       for setup in SETUP_BUILDERS},
    "wan-4-streams-disk-cache": lambda: run_iozone(
        "sgfs-aes", rtt=0.08, file_size=512 * KB,
        setup_kwargs={"disk_cache": True, "streams": 4}),
    "grid-fleet-lossy": _grid_fleet,
    "delegated-churn-fleet": lambda: run_fleet(
        "sgfs-aes", lambda: SessionChurn(duration=3.0, period=0.5), clients=2,
        stagger=0.25, reconnect_interval=1.5, session_tickets=True,
        delegation_lifetime=4.0),
}


@lru_cache(maxsize=None)
def _stats(label: str) -> dict:
    return _SCENARIOS[label]().stats


@pytest.mark.parametrize("label", sorted(_SCENARIOS))
def test_snapshot_holds_exactly_the_declared_keys(label):
    stats = _stats(label)
    assert check(stats) == []
    assert "sim" in stats and "nfs.cache" in stats


def test_scenarios_cover_the_layers():
    seen = set().union(*(_stats(label) for label in _SCENARIOS))
    assert {"disk", "faults", "grid", "grid.meta", "gsi", "proxy.client",
            "proxy.server", "rpc.drc", "tls"} <= seen


def test_labelled_keys_round_trip_through_the_one_key_function():
    stats = _stats("wan-4-streams-disk-cache")
    streams = [k for k in stats["proxy.client"] if k.startswith("stream_calls{")]
    assert streams == [f"stream_calls{{ch={ch},leg=up}}" for ch in range(4)]
    labelled = [k for metrics in stats.values() for k in metrics if "{" in k]
    assert labelled
    for key in labelled:
        assert metric_key(*parse_key(key)) == key


def test_undeclared_instrument_raises_at_creation():
    reg = Registry()
    with pytest.raises(ValueError, match="not declared"):
        reg.counter("proxy.client", "no_such_key")
    with pytest.raises(ValueError, match="not declared"):
        reg.counter("no.such.component", "calls")
    # declared name, wrong label names or wrong kind
    with pytest.raises(ValueError, match="not declared"):
        reg.counter("rpc.client", "calls", host="x")
    with pytest.raises(ValueError, match="not declared"):
        reg.gauge("rpc.client", "calls", account="x")
    reg.counter("rpc.client", "calls", account="x").inc()


def test_undeclared_collector_key_raises_at_snapshot():
    reg = Registry()
    reg.add_collector("proxy.client", lambda: {"forwarded": 1, "bogus": 2})
    with pytest.raises(ValueError, match="proxy.client/bogus"):
        reg.snapshot()
    problems = check({"proxy.client": {"bogus": 1}})
    assert "metric proxy.client/bogus is not declared in repro.obs.schema" in problems
    assert "proxy.client/forwarded is missing" in problems


def test_untouched_declared_keys_are_zero():
    reg = Registry()
    reg.counter("nfs.server", "lock_waits")
    snap = reg.snapshot()
    assert snap == {"nfs.server": {"lock_wait": {"count": 0, "sum": 0.0},
                                   "lock_waits": 0}}


def test_a_later_version_key_leaves_the_pinned_hash_unchanged(monkeypatch):
    # a new nfs.server counter (nfs.server reports through instruments
    # only), bumped on every client call of a golden run
    monkeypatch.setitem(SCHEMA["nfs.server"], "probe_calls",
                        Decl(COUNTER, since=SCHEMA_VERSION + 1))
    call = NfsClient._call

    def counted(self, proc, args):
        self.obs.counter("nfs.server", "probe_calls").inc()
        return call(self, proc, args)

    monkeypatch.setattr(NfsClient, "_call", counted)
    r = run_iozone("nfs-v3", rtt=0.0, file_size=FILE_SIZE,
                   setup_kwargs={"cache_bytes": CACHE_BYTES}, telemetry=True)
    assert r.stats["nfs.server"]["probe_calls"] > 0
    assert "probe_calls" not in project(r.stats, SCHEMA_VERSION)["nfs.server"]
    assert snapshot_sha256(r) == GOLDEN["lan-nfs-v3"][2]


def test_fleet_merges_follow_the_declared_kinds(monkeypatch):
    made = {GridRouter: [], SgfsClientProxy: []}
    for cls, instances in made.items():
        def init(self, *args, _init=cls.__init__, _instances=instances, **kwargs):
            _init(self, *args, **kwargs)
            _instances.append(self)
        monkeypatch.setattr(cls, "__init__", init)
    stats = _grid_fleet().stats
    routers, proxies = made[GridRouter], made[SgfsClientProxy]
    assert len(routers) == len(proxies) == 3
    # a gauge reports a level: the fleet's is the largest, not the sum
    entries = [len(router._layouts) for router in routers]
    assert max(entries) < sum(entries)
    assert stats["grid"]["layout_cache_entries"] == max(entries)
    # counters sum across sessions
    for name in ("forwarded", "local_replies", "data_misses"):
        assert stats["proxy.client"][name] == sum(p.stats[name] for p in proxies)
    assert stats["grid"]["spans_written"] == sum(
        router.stats["spans_written"] for router in routers)


def test_check_tool_reads_stats_json(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_stats("lan-sgfs")))
    bad.write_text(json.dumps({"grid": {"spans_read": 1}}))
    run = lambda *paths: subprocess.run(
        [sys.executable, "tools/check_stats_schema.py", *map(str, paths)],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run(good).returncode == 0
    out = run(good, bad)
    assert out.returncode == 1
    assert "grid/spans_written is missing" in out.stdout
