"""Multiple concurrent sessions (paper Figure 2) and per-procedure RPC latency."""

import pytest

from repro.core.setups import (
    CA_DN,
    FILE_ACCOUNT,
    JOB_ACCOUNT,
    SERVER_DN,
    _kernel_client,
)
from repro.core.topology import NFS_PORT, Testbed
from repro.crypto.drbg import Drbg
from repro.grid import GridRouter
from repro.gsi import CertificateAuthority, DistinguishedName, Gridmap
from repro.nfs.client import NfsClientError
from repro.proxy.accounts import Account
from repro.proxy.session_config import ProxyCacheConfig
from repro.proxy.client_proxy import SgfsClientProxy
from repro.proxy.server_proxy import SgfsServerProxy
from repro.proxy.upstream import UpstreamSession
from repro.rpc.auth import AuthSys
from repro.rpc.transport import StreamTransport
from repro.tls import SecurityConfig
from repro.tls.channel import client_handshake
from repro.vfs.fs import Credentials

ALICE_DN = DistinguishedName.parse("/C=US/O=UFL/CN=Alice")
BOB_DN = DistinguishedName.parse("/C=US/O=UFL/CN=Bob")


def build_two_sessions():
    """Two users, two sessions, two server proxies on one file server."""
    tb = Testbed.build()
    sim = tb.sim
    rng = Drbg("two-sessions")
    ca = CertificateAuthority(CA_DN, rng=rng.fork("ca"), key_bits=768)
    anchors = [ca.certificate]
    host_id = ca.issue_identity(SERVER_DN, rng=rng.fork("host"), key_bits=768)
    tb.server_accounts.add(Account("alice", 950, 950))
    tb.server_accounts.add(Account("bob", 951, 951))
    # each user owns a directory inside the export
    root_cred = Credentials(tb.fs.root.uid, tb.fs.root.gid)
    for name, uid in (("alice", 950), ("bob", 951)):
        d = tb.fs.mkdir(1, name, root_cred)
        tb.fs.setattr(d.fileid, Credentials(0, 0), uid=uid, gid=uid)

    mounts = {}
    for i, (dn, account) in enumerate(((ALICE_DN, "alice"), (BOB_DN, "bob"))):
        user = ca.issue_identity(dn, rng=rng.fork(f"user{i}"), key_bits=768)
        gridmap = Gridmap()
        gridmap.add(dn, account)
        server_cfg = SecurityConfig.for_session(
            host_id, anchors, "rc4-128-sha1", rng=rng.fork(f"scfg{i}")
        )
        client_cfg = SecurityConfig.for_session(
            user, anchors, "rc4-128-sha1", rng=rng.fork(f"ccfg{i}")
        )
        sproxy = SgfsServerProxy(
            sim, tb.server, 4700 + i, NFS_PORT,
            accounts=tb.server_accounts, gridmap=gridmap, fs=tb.fs,
            security=server_cfg,
        )
        sproxy.start()

        def upstream_factory(port=4700 + i, cfg=client_cfg):
            sock = yield from tb.client.connect("server", port)
            channel = yield from client_handshake(sim, sock, cfg)
            return channel

        cproxy = SgfsClientProxy(
            sim, tb.client, 4800 + i,
            GridRouter(sim, [UpstreamSession(sim, upstream_factory)]),
            cache=ProxyCacheConfig(enabled=False),
        )

        def build(cproxy=cproxy, port=4800 + i):
            yield from cproxy.start()
            client = yield from _kernel_client(
                tb, tb.client.name, port,
                AuthSys(uid=JOB_ACCOUNT.uid, gid=JOB_ACCOUNT.gid), None,
            )
            return client

        mounts[account] = (tb.run(build()), sproxy)
    return tb, mounts


def test_two_sessions_isolated_identities():
    tb, mounts = build_two_sessions()
    alice, _sp_a = mounts["alice"]
    bob, _sp_b = mounts["bob"]

    def job():
        yield from alice.write_file("/alice/mine.txt", b"alice data")
        yield from bob.write_file("/bob/mine.txt", b"bob data")
        # each user's files land under their own uid
        return True

    assert tb.run(job())
    a = tb.fs.resolve("/alice/mine.txt", Credentials(0, 0))
    b = tb.fs.resolve("/bob/mine.txt", Credentials(0, 0))
    assert a.uid == 950 and b.uid == 951


def test_session_gridmap_confines_each_user():
    tb, mounts = build_two_sessions()
    alice, _ = mounts["alice"]
    bob, _ = mounts["bob"]

    def job():
        yield from alice.write_file("/alice/private.txt", b"secret", )
        # bob's session maps him to uid 951: UNIX modes deny the write
        with pytest.raises(NfsClientError, match="ACCES"):
            yield from bob.write_file("/alice/intruder.txt", b"nope")
        return True

    assert tb.run(job())


def test_sessions_run_concurrently():
    tb, mounts = build_two_sessions()
    alice, _ = mounts["alice"]
    bob, _ = mounts["bob"]
    sim = tb.sim
    done = []

    def alice_job():
        for i in range(10):
            yield from alice.write_file(f"/alice/a{i}", b"x" * 4000)
        done.append(("alice", sim.now))

    def bob_job():
        for i in range(10):
            yield from bob.write_file(f"/bob/b{i}", b"y" * 4000)
        done.append(("bob", sim.now))

    pa = sim.spawn(alice_job())
    pb = sim.spawn(bob_job())
    sim.run_until_complete(pa)
    sim.run_until_complete(pb)
    t_alice = dict(done)["alice"]
    t_bob = dict(done)["bob"]
    # concurrent, not serialized: both finish within ~2x of each other
    assert max(t_alice, t_bob) < 1.9 * min(t_alice, t_bob)


# -- per-procedure latency (rpc.client latency{proc=N} histograms) -------------


def _rpc_client_stats(tb):
    """The kernel client is nfs-v3's only RpcClient, so ``rpc.client``
    is exactly its per-procedure view."""
    return tb.obs.snapshot()["rpc.client"]


def test_tracer_records_and_summarizes():
    from repro.core import setup_nfs_v3
    from repro.nfs.protocol import Proc

    tb = Testbed.build(telemetry=True)
    mount = setup_nfs_v3(tb)

    def job():
        yield from mount.client.mkdir("/t")
        f = yield from mount.client.write_file("/t/f", b"z" * 70000)
        mount.client.pages.drop_file(f.fileid)  # force the read back over RPC
        yield from mount.client.read_file("/t/f")
        yield from mount.client.drain()

    tb.run(job())
    stats = _rpc_client_stats(tb)
    for proc in (Proc.MKDIR, Proc.CREATE, Proc.WRITE, Proc.READ, Proc.COMMIT):
        assert stats[f"latency{{proc={int(proc)}}}"]["count"] >= 1
    write = stats[f"latency{{proc={int(Proc.WRITE)}}}"]
    assert write["count"] >= 3
    assert write["mean"] > 0
    assert write["min"] <= write["p50"] <= write["p95"] <= write["max"]
    # writes + reads, both directions
    sent = stats["bytes_out{account=kernel-nfs}"]
    received = stats["bytes_in{account=kernel-nfs}"]
    assert sent + received > 140000
    # the same observations, by procedure name, on the NFS client's series
    by_name = tb.obs.snapshot()["nfs.client"]
    assert by_name["latency{proc=WRITE}"]["count"] == write["count"]


def test_tracer_latencies_reflect_rtt():
    from repro.core import setup_nfs_v3
    from repro.nfs.protocol import Proc

    tb = Testbed.build(rtt=0.050, telemetry=True)
    mount = setup_nfs_v3(tb)

    def job():
        yield from mount.client.mkdir("/far")

    tb.run(job())
    mkdir = _rpc_client_stats(tb)[f"latency{{proc={int(Proc.MKDIR)}}}"]
    assert mkdir["count"] == 1 and mkdir["min"] > 0.050
