"""Deterministic packet-level fault injection (repro.faults).

The adversary must be *reproducible*: the same (topology, workload,
seed) triple yields the same drop schedule and therefore bit-identical
virtual-time results.  These tests pin the plan's draw discipline, the
flap/crash machinery, and whole-workload determinism under faults.
"""

import pytest

from repro.core import Testbed, setup_nfs_v3
from repro.core.setups import setup_sfs, setup_sgfs
from repro.faults import (
    FAULT_PRESETS,
    CrashEvent,
    FaultPlan,
    FaultSpec,
    LinkFlap,
    resolve_fault_preset,
)
from repro.harness.fleet import run_fleet
from repro.harness.runner import run_iozone, run_postmark, run_workload
from repro.sim import Simulator
from repro.vfs.fs import Credentials
from repro.workloads.postmark import PostMarkConfig

ROOT = Credentials(0, 0)
PATH = ("client", "router", "server")


# -- the plan ----------------------------------------------------------------


def test_verdicts_are_seed_deterministic():
    spec = FaultSpec(drop_rate=0.2, corrupt_rate=0.1, duplicate_rate=0.1,
                     delay_rate=0.2)
    a = FaultPlan(Simulator(), spec, seed="s1")
    b = FaultPlan(Simulator(), spec, seed="s1")
    c = FaultPlan(Simulator(), spec, seed="s2")
    va = [a.verdict(PATH, 100, "stream") for _ in range(200)]
    vb = [b.verdict(PATH, 100, "stream") for _ in range(200)]
    vc = [c.verdict(PATH, 100, "stream") for _ in range(200)]
    assert va == vb
    assert va != vc
    assert {v for v, _ in va} >= {"pass", "drop"}  # rates actually bite


def test_zero_rates_consume_no_entropy():
    """Flap-only and crash-only plans must not perturb anything else:
    the packet rng is never consulted when all rates are zero."""
    plan = FaultPlan(Simulator(), FaultSpec(flaps=(LinkFlap(10.0, 1.0),)))

    class _Boom:
        def random(self):
            raise AssertionError("rng consulted with zero rates")

    plan._rng = _Boom()
    assert plan.verdict(PATH, 100, "stream") == ("pass", 0.0)


def test_flap_window_drops_everything():
    sim = Simulator()
    plan = FaultPlan(sim, FaultSpec(flaps=(LinkFlap(start=10.0, duration=1.0),)))

    def job():
        assert plan.verdict(PATH, 1, "stream")[0] == "pass"
        yield sim.timeout(10.5)  # inside the window
        assert plan.verdict(PATH, 1, "stream")[0] == "drop"
        assert plan.verdict(PATH, 1, "ctrl")[0] == "drop"
        yield sim.timeout(1.0)  # past it
        assert plan.verdict(PATH, 1, "stream")[0] == "pass"
        return True

    assert sim.run_until_complete(sim.spawn(job()))
    assert plan.stats["flap_drops"] == 2


def test_periodic_flaps_expand():
    spec = FaultSpec(flap_period=5.0, flap_duration=0.5, flap_count=3,
                     flaps=(LinkFlap(start=1.0, duration=0.1),))
    flaps = spec.all_flaps()
    assert [f.start for f in flaps] == [1.0, 5.0, 10.0, 15.0]


def test_corrupt_segment_is_discarded_and_redelivered_after_rto():
    from repro.net import Host, Network

    sim = Simulator()
    net = Network(sim)
    Host(sim, net, "a")
    Host(sim, net, "b")
    net.connect("a", "b", latency=0.001)
    plan = FaultPlan(sim, FaultSpec(corrupt_rate=0.5, rto_base=0.2)).install(net)

    class _Draws:
        seq = iter([0.1, 0.9])  # first copy corrupted, the redelivery passes

        def random(self):
            return next(self.seq)

    plan._rng = _Draws()
    arrived = []
    net.deliver("a", "b", 100, lambda: arrived.append(sim.now), kind="stream")
    sim.run()
    assert len(arrived) == 1 and arrived[0] > 0.2  # checksum failure == loss
    assert plan.stats["corrupted"] == 1
    assert plan.stats["retransmits"] == 1


def test_rto_doubles_and_caps():
    plan = FaultPlan(Simulator(), FaultSpec(rto_base=0.2, rto_max=2.0))
    assert plan.rto(0) == pytest.approx(0.2)
    assert plan.rto(1) == pytest.approx(0.4)
    assert plan.rto(10) == pytest.approx(2.0)


def test_rates_must_sum_below_one():
    with pytest.raises(ValueError):
        FaultPlan(Simulator(), FaultSpec(drop_rate=0.6, delay_rate=0.5))


def test_resolve_preset():
    assert resolve_fault_preset(None) is None
    spec = FaultSpec(drop_rate=0.01)
    assert resolve_fault_preset(spec) is spec
    assert resolve_fault_preset("lossy-wan") is FAULT_PRESETS["lossy-wan"]
    with pytest.raises(KeyError):
        resolve_fault_preset("no-such-preset")


# -- whole-workload determinism ----------------------------------------------


def _small_iozone(fault_seed):
    return run_iozone(
        "nfs-v3", rtt=0.04, file_size=256 * 1024,
        setup_kwargs={"cache_bytes": 128 * 1024},
        faults="lossy-wan", fault_seed=fault_seed,
    )


def test_same_fault_seed_is_bit_identical():
    r1 = _small_iozone("seed-A")
    r2 = _small_iozone("seed-A")
    assert r1.total == r2.total  # exact float equality, not approx
    assert r1.phases == r2.phases
    assert r1.stats["faults"] == r2.stats["faults"]
    assert r1.stats["faults"]["dropped"] > 0  # the adversary showed up


def test_different_fault_seed_changes_the_schedule():
    r1 = _small_iozone("seed-A")
    r2 = _small_iozone("seed-B")
    assert (r1.stats["faults"] != r2.stats["faults"]
            or r1.total != r2.total)


def test_faults_off_matches_clean_run():
    clean = run_iozone("nfs-v3", rtt=0.04, file_size=256 * 1024,
                       setup_kwargs={"cache_bytes": 128 * 1024})
    off = run_iozone("nfs-v3", rtt=0.04, file_size=256 * 1024,
                     setup_kwargs={"cache_bytes": 128 * 1024}, faults=None)
    assert clean.total == off.total
    assert "faults" not in off.stats


# -- crash / restart ---------------------------------------------------------


def test_nfs_server_crash_restart_rides_through():
    tb = Testbed.build()
    mount = setup_nfs_v3(tb)
    cl = mount.client
    spec = FaultSpec(crashes=(CrashEvent(at=0.5, target="server", down_for=0.3),))
    plan = FaultPlan(tb.sim, spec).install(tb.net)
    plan.schedule(tb.daemons)

    def job():
        yield from cl.write_file("/a.bin", b"before the crash")
        yield tb.sim.timeout(1.0)  # the crash + restart happen in here
        yield from cl.write_file("/b.bin", b"after the restart")
        data = yield from cl.read_file("/a.bin")
        return data

    assert tb.run(job()) == b"before the crash"
    assert plan.stats["crashes"] == 1
    assert bytes(tb.fs.resolve("/b.bin", ROOT).data) == b"after the restart"


def _server_proxy_crash_restart_rides_through(setup):
    tb = Testbed.build(rtt=0.02)
    mount = setup(tb)
    cl = mount.client
    sp = mount.server_proxy

    def job():
        yield from cl.write_file("/a.bin", b"pre-crash")
        sp.crash()
        yield tb.sim.timeout(0.5)
        sp.restart()
        yield from cl.write_file("/b.bin", b"post-restart")
        data = yield from cl.read_file("/a.bin")
        return data

    assert tb.run(job()) == b"pre-crash"
    assert mount.client_proxy.stats.get("upstream_retries", 0) >= 1
    assert bytes(tb.fs.resolve("/b.bin", ROOT).data) == b"post-restart"


def test_server_proxy_crash_restart_rides_through():
    _server_proxy_crash_restart_rides_through(setup_sgfs)


def test_sfs_server_daemon_crash_restart_rides_through():
    """The SFS server daemon is a server proxy with another accept step:
    ``crash()`` must sever its sessions too (it once kept a session loop
    of its own that the crash bookkeeping never saw)."""
    _server_proxy_crash_restart_rides_through(setup_sfs)


def test_proxy_restart_preset_is_not_a_no_op_on_sfs():
    """``--faults proxy-restart`` on ``sfs`` from the harness: the
    session is severed and re-established, which costs time.  PostMark
    ends by removing its root directory, which only succeeds if every
    create and delete before it was applied exactly once."""
    cfg = PostMarkConfig(directories=5, files=60, transactions=400)
    clean = run_postmark("sfs", rtt=0.02, config=cfg)
    r = run_postmark("sfs", rtt=0.02, config=cfg, faults="proxy-restart")
    assert r.stats["faults"]["crashes"] == 1
    assert r.stats["proxy.client"]["upstream_retries"] > 0
    assert r.stats["proxy.server"]["sessions"] == 2
    assert clean.stats["proxy.server"]["sessions"] == 1
    assert r.total > clean.total


class _Untouched:
    """A workload that records whether it ever started."""

    started = False

    def run(self, mount):
        self.started = True
        yield from ()


@pytest.mark.parametrize("setup, target", [
    ("nfs-v3", "server-proxy"),  # the proxy-restart preset's target
    ("sgfs-aes", "backend3"),
    ("sgfs-aes", "client-proxy:client"),  # registered, but it cannot crash
])
def test_a_crash_aimed_at_no_target_is_refused(setup, target):
    """A crash naming a target the run does not have raises before the
    workload starts, instead of running clean with no crash."""
    spec = FaultSpec(crashes=(CrashEvent(at=0.5, target=target, down_for=0.3),))
    faults = "proxy-restart" if target == "server-proxy" else spec
    workload = _Untouched()
    with pytest.raises(ValueError, match=target):
        run_workload(setup, lambda: workload, faults=faults)
    assert not workload.started


def test_a_fleet_crash_aimed_at_no_target_is_refused():
    spec = FaultSpec(crashes=(CrashEvent(at=0.5, target="backend3", down_for=0.3),))
    with pytest.raises(ValueError, match="backend3"):
        run_fleet("sgfs-aes", _Untouched, clients=2, servers=2, faults=spec)


def test_dirty_writeback_survives_server_proxy_restart():
    """The tentpole client-hardening claim: blocks sitting dirty in the
    client proxy's write-back cache outlive a server-proxy restart and
    land upstream once it returns."""
    tb = Testbed.build(rtt=0.02)
    mount = setup_sgfs(tb, disk_cache=True)
    cl = mount.client
    sp = mount.server_proxy
    payload = b"dirty block data " * 64

    def job():
        yield from cl.write_file("/d.bin", payload)  # parked dirty in the proxy
        sp.crash()
        yield tb.sim.timeout(0.5)
        sp.restart()
        yield from mount.finish()  # write-back must reconnect and flush
        return True

    assert tb.run(job())
    assert bytes(tb.fs.resolve("/d.bin", ROOT).data) == payload
    assert mount.client_proxy.stats.get("writeback_errors", 0) == 0
