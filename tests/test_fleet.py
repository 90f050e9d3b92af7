"""Scale-out fleet harness: determinism, isolation, worker-pool server."""

import pytest

from repro.harness import run_fleet
from repro.workloads.iozone import IOzoneReadReread

FS = 64 * 1024


def _iozone():
    return IOzoneReadReread(file_size=FS)


def _fingerprint(result):
    return (
        result.makespan,
        [(c.name, c.start, c.end, sorted(c.phases.items())) for c in result.per_client],
        result.stats,
    )


def test_eight_client_fleet_bit_identical():
    a = run_fleet("sgfs-sha", _iozone, clients=8)
    b = run_fleet("sgfs-sha", _iozone, clients=8)
    assert _fingerprint(a) == _fingerprint(b)
    assert a.clients == 8 and len(a.per_client) == 8


def test_eight_client_fleet_bit_identical_under_lossy_faults():
    kw = dict(clients=8, rtt=0.04, faults="lossy-wan", fault_seed="fleet-ci")
    a = run_fleet("sgfs-sha", _iozone, **kw)
    b = run_fleet("sgfs-sha", _iozone, **kw)
    assert _fingerprint(a) == _fingerprint(b)
    assert a.stats["faults"]["dropped"] > 0


def test_fleet_makespan_and_stagger():
    sync = run_fleet("nfs-v3", _iozone, clients=4)
    assert all(c.start == 0.0 for c in sync.per_client)
    assert sync.makespan == max(c.end for c in sync.per_client)

    staggered = run_fleet("nfs-v3", _iozone, clients=4, stagger=0.5)
    starts = [c.start for c in staggered.per_client]
    assert starts == [0.0, 0.5, 1.0, 1.5]
    assert staggered.makespan > sync.makespan


def test_fleet_per_session_enforcement_and_metrics():
    r = run_fleet("sgfs-aes", _iozone, clients=3)
    ps = r.stats["proxy.server"]
    # One TLS session per client, all authorized through the gridmap.
    assert ps["sessions"] == 3
    assert ps["handshakes"] == 3
    assert ps.get("handshake_failures", 0) == 0
    assert ps["granted"] > 0 and ps["denied"] == 0
    # Worker-pool queueing is visible once multiple sessions contend.
    assert any(k.startswith("queue_depth") for k in r.stats["rpc.server"])


def test_fleet_merges_per_session_cache_stats():
    solo = run_fleet("nfs-v3", _iozone, clients=1)
    duo = run_fleet("nfs-v3", _iozone, clients=2)
    # Identical per-client workloads: merged per-session counters double.
    solo_hits = solo.stats["nfs.cache"]["page"]["hits"]
    duo_hits = duo.stats["nfs.cache"]["page"]["hits"]
    assert solo_hits > 0
    assert duo_hits == 2 * solo_hits


def test_fleet_throughput_scales_and_contends():
    one = run_fleet("nfs-v3", _iozone, clients=1)
    four = run_fleet("nfs-v3", _iozone, clients=4)
    # More clients move more aggregate bytes per virtual second...
    assert four.aggregate_throughput() > one.aggregate_throughput()
    # ...but each client individually slows down under contention.
    assert four.mean_client_seconds > one.mean_client_seconds


def test_fleet_rejects_single_session_designs():
    with pytest.raises(ValueError):
        run_fleet("sfs", _iozone, clients=2)
    with pytest.raises(ValueError):
        run_fleet("gfs-ssh", _iozone, clients=2)
    with pytest.raises(ValueError):
        run_fleet("nfs-v3", _iozone, clients=0)


@pytest.mark.parametrize("streams", [0, -3])
def test_fleet_rejects_nonpositive_streams(streams):
    """Like ``servers=0`` and ``replicas=0``: an error, not a silent
    run with one stream."""
    with pytest.raises(ValueError, match="streams must be >= 1"):
        run_fleet("sgfs-sha", _iozone, clients=2, streams=streams)


# -- multi-core server, session tickets ---------------------------------------


def test_multicore_fleet_bit_identical():
    kw = dict(clients=8, server_cores=4)
    a = run_fleet("sgfs-aes", _iozone, **kw)
    b = run_fleet("sgfs-aes", _iozone, **kw)
    assert _fingerprint(a) == _fingerprint(b)


def test_multicore_fleet_faster_than_single_core():
    one = run_fleet("sgfs-aes", _iozone, clients=8)
    four = run_fleet("sgfs-aes", _iozone, clients=8, server_cores=4)
    assert four.makespan < one.makespan


def test_single_client_unchanged_by_core_count_knob():
    # cores=1 is the legacy semaphore path; a lone session also cannot
    # exploit parallelism, so its virtual-time results are identical.
    legacy = run_fleet("sgfs-aes", _iozone, clients=1)
    multi = run_fleet("sgfs-aes", _iozone, clients=1, server_cores=4)
    assert legacy.makespan == multi.makespan
    assert legacy.per_client[0].phases == multi.per_client[0].phases


def test_reconnecting_fleet_resumes_sessions():
    r = run_fleet(
        "sgfs-aes", _iozone, clients=4,
        session_tickets=True, reconnect_interval=0.005,
    )
    tls = r.stats["tls"]
    suite = "aes-256-cbc-sha1"
    resumed = tls.get(f"resumptions{{role=server,suite={suite}}}", 0)
    full = tls[f"full_handshakes{{role=server,suite={suite}}}"]
    assert resumed > 0
    # Only the initial connection per client pays the full RSA handshake.
    assert full == 4


def test_reconnecting_fleet_bit_identical_same_seed():
    kw = dict(clients=4, session_tickets=True, reconnect_interval=0.005)
    a = run_fleet("sgfs-aes", _iozone, **kw)
    b = run_fleet("sgfs-aes", _iozone, **kw)
    assert _fingerprint(a) == _fingerprint(b)


def test_tickets_with_lossy_faults_bit_identical():
    kw = dict(
        clients=4, rtt=0.04, faults="lossy-wan", fault_seed="fleet-ci",
        session_tickets=True, reconnect_interval=0.05,
    )
    a = run_fleet("sgfs-sha", _iozone, **kw)
    b = run_fleet("sgfs-sha", _iozone, **kw)
    assert _fingerprint(a) == _fingerprint(b)
    assert a.stats["faults"]["dropped"] > 0


def test_server_crash_flushes_tickets():
    # The server proxy dies and restarts mid-run.  The crash flushes the
    # in-memory ticket cache, so reconnecting clients pay full RSA
    # handshakes again -- more full handshakes than clients.
    from repro.faults import CrashEvent, FaultSpec

    spec = FaultSpec(
        crashes=(CrashEvent(at=0.03, target="server-proxy", down_for=0.005),),
        client_timeo=0.1,
        proxy_timeo=0.1,
        rto_base=0.05,
        rto_max=0.2,
    )
    r = run_fleet(
        "sgfs-aes", lambda: IOzoneReadReread(file_size=4 * FS), clients=4,
        faults=spec, fault_seed="fleet-ci",
        session_tickets=True, reconnect_interval=0.01,
    )
    tls = r.stats["tls"]
    suite = "aes-256-cbc-sha1"
    full = tls[f"full_handshakes{{role=server,suite={suite}}}"]
    # 4 initial + 4 post-crash re-handshakes (flushed cache), resumption
    # in between.
    assert full > 4
    assert tls[f"resumptions{{role=server,suite={suite}}}"] > 0


def test_ticketless_fleet_stats_unchanged():
    # The resumption counters only exist when tickets are on the wire.
    r = run_fleet("sgfs-aes", _iozone, clients=2)
    assert not any("resumptions" in k for k in r.stats.get("tls", {}))
    assert not any("full_handshakes" in k for k in r.stats.get("tls", {}))


# -- fleet accounting and teardown fixes --------------------------------------


def test_aggregate_throughput_measured_vs_estimate():
    from repro.workloads.iozone import IOzoneWriteRead

    r = run_fleet("sgfs-sha", lambda: IOzoneWriteRead(file_size=FS), clients=2)
    # Every client reports its actual byte total, and the rate is
    # measured from those totals.
    assert all(c.bytes_moved == 3 * FS for c in r.per_client)
    assert r.aggregate_throughput() == (2 * 3 * FS) / r.makespan


def test_aggregate_throughput_measured_requires_byte_counts():
    # Workloads that don't report bytes_moved can't be silently scored
    # as zero throughput -- the rate refuses instead.
    from repro.harness import FleetClientResult, FleetResult

    r = FleetResult(
        setup="nfs-v3", clients=2, makespan=2.0,
        per_client=[
            FleetClientResult(name="c0", start=0.0, end=2.0, bytes_moved=4096),
            FleetClientResult(name="c1", start=0.0, end=1.0),
        ],
    )
    with pytest.raises(ValueError, match="c1"):
        r.aggregate_throughput()


def test_reconnect_cyclers_stop_at_client_completion(monkeypatch):
    """Reconnect cyclers must be torn down when their client's workload
    finishes: a straggler client must not keep the finished clients'
    proxies churning through handshakes until the fleet drains."""
    from repro.proxy.client_proxy import SgfsClientProxy

    cycles = []
    real_cycle = SgfsClientProxy.cycle_upstream

    def recording_cycle(self):
        cycles.append((self.host.name, self.sim.now))
        return real_cycle(self)

    monkeypatch.setattr(SgfsClientProxy, "cycle_upstream", recording_cycle)

    def staggered(i):
        # client 0 moves 8x the bytes of the others -> finishes last
        return IOzoneReadReread(file_size=(8 * FS if i == 0 else FS))

    r = run_fleet(
        "sgfs-aes", staggered, clients=3,
        session_tickets=True, reconnect_interval=0.005,
    )
    ends = {c.name: c.end for c in r.per_client}
    assert max(ends.values()) == ends["c0"]
    assert cycles, "reconnect fleet never cycled"
    for host, when in cycles:
        assert when <= ends[host] + 1e-12, (
            f"{host} cycled at {when:.6f}s, after its workload "
            f"ended at {ends[host]:.6f}s"
        )
    # The short-lived clients really did stop early while c0 ran on.
    assert any(host != "c0" for host, _ in cycles)
    assert max(t for h, t in cycles if h != "c0") < ends["c0"]


def test_fleet_proxies_take_the_cache_capacity(monkeypatch):
    """``setup_kwargs`` spells the proxy disk cache's size as
    ``run_workload`` does: a cache smaller than the file makes each
    client's proxy write dirty blocks behind, and every block lands."""
    from repro.core.topology import Testbed
    from repro.workloads.iozone import IOzoneWriteRead

    names = []
    build = Testbed.build

    def recording_build(*args, **kwargs):
        tb = build(*args, **kwargs)
        spawn = tb.sim.spawn

        def recording_spawn(generator, name=""):
            names.append(name)
            return spawn(generator, name=name)

        tb.sim.spawn = recording_spawn
        return tb

    monkeypatch.setattr(Testbed, "build", recording_build)
    r = run_fleet("sgfs-sha", lambda: IOzoneWriteRead(file_size=4 * FS), clients=2,
                  streams=2, setup_kwargs={"disk_cache": True, "cache_capacity": FS})
    assert all(c.bytes_moved == 12 * FS for c in r.per_client)  # read back, checked
    pc = r.stats["proxy.client"]
    assert pc["writeback_blocks"] > 0 and pc["writeback_errors"] == 0
    assert "cproxy-writebehind" in names
