"""Failure injection: adversarial networks, crashes, and hard mounts.

The paper's deployment story (§5) assumes long-lived sessions on shared
grid resources; a reproduction that only works on a perfect network
would be toothless.  These tests abort live connections at awkward
moments and require either full recovery (hard-mount reconnect) or a
clean, surfaced failure (soft mount) — and then turn the whole network
hostile with seeded packet-level faults (repro.faults) and require
workloads to complete with intact data and no spurious errors.
"""

import pytest

from repro.core import Testbed, setup_nfs_v3
from repro.core.setups import setup_sgfs
from repro.faults import FAULT_PRESETS, FaultPlan, FaultSpec
from repro.harness import run_fleet, run_workload
from repro.nfs.client import NfsClientError
from repro.rpc.errors import RpcError, RpcTransportError
from repro.sim import ProcessDied
from repro.vfs.fs import Credentials

ROOT = Credentials(0, 0)


def test_hard_mount_survives_connection_abort():
    tb = Testbed.build(telemetry=True)
    mount = setup_nfs_v3(tb)
    cl = mount.client

    def job():
        yield from cl.write_file("/pre.bin", b"before the cut")
        # sever the live connection abruptly
        cl.rpc.transport.sock.abort()
        yield tb.sim.timeout(0.01)
        # operations keep working through the reconnect
        yield from cl.write_file("/post.bin", b"after the cut")
        data = yield from cl.read_file("/pre.bin")
        return data

    assert tb.run(job()) == b"before the cut"
    assert tb.obs.snapshot()["nfs.client"]["retransmissions"] >= 1
    assert bytes(tb.fs.resolve("/post.bin", ROOT).data) == b"after the cut"


def test_hard_mount_survives_repeated_aborts():
    tb = Testbed.build()
    mount = setup_nfs_v3(tb)
    cl = mount.client

    def job():
        for i in range(4):
            cl.rpc.transport.sock.abort()
            yield from cl.write_file(f"/f{i}.bin", bytes([i]) * 100)
        return True

    assert tb.run(job())
    for i in range(4):
        assert bytes(tb.fs.resolve(f"/f{i}.bin", ROOT).data) == bytes([i]) * 100


def test_soft_mount_surfaces_transport_error():
    tb = Testbed.build()
    mount = setup_nfs_v3(tb)
    cl = mount.client
    cl.reconnect = None  # soft mount

    def job():
        yield from cl.write_file("/ok.bin", b"fine")
        cl.rpc.transport.sock.abort()
        yield tb.sim.timeout(0.01)
        cl.attrs.clear()  # force the stat onto the (dead) wire
        with pytest.raises(NfsClientError) as excinfo:
            yield from cl.stat("/ok.bin")
        # the failed procedure is named, not a leaked RpcTransportError
        assert "GETATTR" in str(excinfo.value)
        return True

    assert tb.run(job())


def test_retransmission_gives_up_after_max_attempts():
    tb = Testbed.build()
    mount = setup_nfs_v3(tb)
    cl = mount.client
    cl.retrans_max = 2

    def never_reconnect():
        raise RpcTransportError("network is gone")
        yield  # pragma: no cover

    # a reconnect that itself keeps failing
    attempts = []

    def failing_reconnect():
        attempts.append(1)
        raise RpcTransportError("still down")
        yield  # pragma: no cover

    cl.reconnect = failing_reconnect

    def job():
        cl.rpc.transport.sock.abort()
        yield tb.sim.timeout(0.01)
        with pytest.raises(RpcTransportError):
            yield from cl.stat("/whatever")
        return True

    assert tb.run(job())
    assert len(attempts) >= 1


def test_retransmission_backs_off():
    tb = Testbed.build()
    mount = setup_nfs_v3(tb)
    cl = mount.client
    cl.retrans_backoff = 2.0

    def job():
        yield from cl.write_file("/x.bin", b"x")
        t0 = tb.sim.now
        cl.rpc.transport.sock.abort()
        yield  # let the abort propagate
        cl.attrs.clear()
        yield from cl.stat("/x.bin")
        return tb.sim.now - t0

    elapsed = tb.run(job())
    assert elapsed >= 2.0  # first retry waited backoff * 1


def test_server_restart_equivalent_listener_rebind():
    """Close the server's listener (crash), rebind it (restart): a hard
    mount rides through the outage."""
    tb = Testbed.build()
    mount = setup_nfs_v3(tb)
    cl = mount.client

    def job():
        yield from cl.write_file("/durable.bin", b"written before crash")
        # "crash": the nfsd stops accepting and the connection resets
        listener = tb.server._ports.get(2049)
        listener.close()
        cl.rpc.transport.sock.abort()
        yield tb.sim.timeout(0.5)
        # "restart": rebind and serve again (state is in the VFS)
        tb.nfs_rpc_server.serve_listener(tb.server.listen(2049))
        data = yield from cl.read_file("/durable.bin")
        return data

    assert tb.run(job()) == b"written before crash"


# -- adversarial networks -----------------------------------------------------


def _adversarial_files_job(tb, cl, count=8):
    payloads = {
        f"/f{i}.bin": bytes([65 + i]) * (900 + 137 * i) for i in range(count)
    }

    def job():
        for path, data in payloads.items():
            yield from cl.write_file(path, data)
        out = {}
        for path in payloads:
            out[path] = yield from cl.read_file(path)
        return out

    assert tb.run(job()) == payloads


@pytest.mark.parametrize("preset", ["lossy-wan", "dup-wan", "jittery-wan"])
def test_nfs_data_intact_under_adversarial_network(preset):
    tb = Testbed.build(rtt=0.08)
    mount = setup_nfs_v3(tb)
    cl = mount.client
    spec = FAULT_PRESETS[preset]
    plan = FaultPlan(tb.sim, spec, seed=f"adv-{preset}").install(tb.net)
    cl.timeo = spec.client_timeo
    _adversarial_files_job(tb, cl)
    assert plan.stats["packets"] > 0


def test_sgfs_data_intact_under_packet_loss():
    tb = Testbed.build(rtt=0.08)
    mount = setup_sgfs(tb)
    cl = mount.client
    spec = FAULT_PRESETS["lossy-wan"]
    plan = FaultPlan(tb.sim, spec, seed="sgfs-loss").install(tb.net)
    cl.timeo = spec.client_timeo
    mount.client_proxy.upstream_timeo = spec.proxy_timeo
    _adversarial_files_job(tb, cl)
    assert plan.stats["dropped"] > 0


def test_heavy_loss_recovers_via_retransmission():
    """15% drop: every recovery mechanism fires, data stays exact."""
    tb = Testbed.build(rtt=0.08)
    mount = setup_nfs_v3(tb)
    cl = mount.client
    spec = FaultSpec(drop_rate=0.15, client_timeo=0.7, rto_base=1.0,
                     rto_max=4.0)
    plan = FaultPlan(tb.sim, spec, seed="heavy").install(tb.net)
    cl.timeo = spec.client_timeo
    _adversarial_files_job(tb, cl, count=4)
    assert plan.stats["dropped"] > 0
    assert plan.stats["retransmits"] > 0


def test_evicted_dirty_block_redirtied_during_writeback_not_lost():
    """Regression: eviction must clear a victim's dirty mark *before*
    _block_put yields to the write-back.  The old order wiped the mark
    after the yield, so a writer re-dirtying the block mid-flight lost
    its data."""
    tb = Testbed.build(rtt=0.08)
    mount = setup_sgfs(tb, disk_cache=True)
    cp = mount.client_proxy
    cl = mount.client
    dirty = cp._blocks.dirty
    flushed = []

    def job():
        yield from cl.write_file("/t.bin", b"A" * 100)  # dirty block (fid, 0)
        fid = next(iter(dirty))
        assert 0 in dirty[fid]
        orig_wb = cp._writeback_window

        def racing_wb(items):
            # a writer re-dirties the very block being evicted, mid-flight
            for fileid, block, _data in items:
                dirty.setdefault(fileid, set()).add(block)
            flushed.extend((f, b) for f, b, _data in items)
            yield from orig_wb(items)

        cp._writeback_window = racing_wb
        cp.cache.capacity_bytes = 1  # next insert evicts the dirty block
        yield from cp._block_put(fid + 777, 0, b"B" * 100, dirty=False)
        cp._writeback_window = orig_wb
        return fid

    fid = tb.run(job())
    assert flushed == [(fid, 0)]  # the hook saw the eviction write-back
    # the mid-flight re-dirty survives the eviction
    assert 0 in dirty.get(fid, set())


# -- an unobserved process death fails the run ---------------------------------


class _Stray:
    """A workload that spawns a helper which raises; ``observe`` says how
    (or whether) anyone ever looks at the helper again."""

    def __init__(self, observe=None):
        self.observe = observe

    def run(self, mount):
        sim = mount.tb.sim

        def helper():
            yield sim.timeout(0.001)
            raise ValueError("a bug in a helper")

        proc = sim.spawn(helper(), name="stray-helper")
        yield from mount.client.write_file("/f", b"the workload itself is fine")
        if self.observe == "join":
            with pytest.raises(ValueError):
                yield proc
        elif self.observe == "result":
            with pytest.raises(ProcessDied):
                proc.result()


@pytest.mark.parametrize("run", [
    lambda factory: run_workload("sgfs-sha", factory),
    lambda factory: run_fleet("sgfs-sha", factory, clients=2),
], ids=["run_workload", "run_fleet"])
def test_a_process_that_dies_unobserved_fails_the_run(run):
    """Nothing joins the helper, so its exception used to vanish and the
    run to report success.  Both harness loops end in the one ``collect``
    step, which refuses to produce a result over an unobserved death."""
    with pytest.raises(ProcessDied, match="stray-helper") as caught:
        run(_Stray)
    assert isinstance(caught.value.__cause__, ValueError)
    # a death somebody looked at is that somebody's business
    run(lambda: _Stray(observe="join"))
    run(lambda: _Stray(observe="result"))
