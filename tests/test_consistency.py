"""Cache-consistency overlays for shared data (the paper's [46] pointer).

Two sessions (one writer, one reader) mount the same exported
filesystem through independent client proxies with disk caching.  Under
"session" consistency the reader may serve stale data for the whole
session (the paper's single-user assumption); under "poll" consistency
staleness is bounded by the TTL.
"""

import pytest

from repro.core.setups import (
    CA_DN,
    FILE_ACCOUNT,
    JOB_ACCOUNT,
    SERVER_DN,
    USER_DN,
    _kernel_client,
    _session_gridmap,
    paper_seat,
)
from repro.core.topology import NFS_PORT, Testbed
from repro.crypto.drbg import Drbg
from repro.grid import GridRouter
from repro.gsi import CertificateAuthority
from repro.proxy.session_config import ProxyCacheConfig
from repro.proxy.client_proxy import SgfsClientProxy
from repro.proxy.server_proxy import SgfsServerProxy
from repro.proxy.upstream import UpstreamSession
from repro.rpc.auth import AuthSys
from repro.tls import SecurityConfig
from repro.tls.channel import client_handshake


def build_shared(consistency: str, ttl: float = 2.0):
    """Two sessions for the same user/filesystem, separate proxies."""
    tb = Testbed.build(rtt=0.005)
    sim = tb.sim
    rng = Drbg(f"shared-{consistency}")
    ca = CertificateAuthority(CA_DN, rng=rng.fork("ca"), key_bits=768)
    anchors = [ca.certificate]
    user = ca.issue_identity(USER_DN, rng=rng.fork("user"), key_bits=768)
    host_id = ca.issue_identity(SERVER_DN, rng=rng.fork("host"), key_bits=768)

    mounts = []
    for i in range(2):
        server_cfg = SecurityConfig.for_session(
            host_id, anchors, "null-sha1", rng=rng.fork(f"s{i}")
        )
        client_cfg = SecurityConfig.for_session(
            user, anchors, "null-sha1", rng=rng.fork(f"c{i}")
        )
        sproxy = SgfsServerProxy(
            sim, tb.server, 4600 + i, NFS_PORT,
            accounts=tb.server_accounts, gridmap=_session_gridmap(tb, [paper_seat(tb)]), fs=tb.fs,
            security=server_cfg,
        )
        sproxy.start()

        def upstream_factory(port=4600 + i, cfg=client_cfg):
            sock = yield from tb.client.connect("server", port)
            return (yield from client_handshake(sim, sock, cfg))

        cproxy = SgfsClientProxy(
            sim, tb.client, 4900 + i,
            GridRouter(sim, [UpstreamSession(sim, upstream_factory)]),
            cache=ProxyCacheConfig(
                enabled=True, consistency=consistency, consistency_ttl=ttl,
            ),
        )

        def build(cproxy=cproxy, port=4900 + i):
            yield from cproxy.start()
            return (yield from _kernel_client(
                tb, tb.client.name, port,
                AuthSys(uid=JOB_ACCOUNT.uid, gid=JOB_ACCOUNT.gid), None,
            ))

        client = tb.run(build())
        # bound the kernel's own caching so the proxy layer is what we test
        client.attrs.ac_reg_min = client.attrs.ac_reg_max = 0.1
        mounts.append((client, cproxy))
    return tb, mounts


def write_then_flush(tb, writer_client, writer_proxy, path, data):
    def go():
        yield from writer_client.write_file(path, data)
        yield from writer_proxy.writeback()

    tb.run(go())


def read_via(tb, client, path, drop_kernel_cache=True):
    def go():
        if drop_kernel_cache:
            client.pages.drop_file(tb.fs.resolve(path).fileid)
            client.attrs.clear()
        return (yield from client.read_file(path))

    return tb.run(go())


def test_session_consistency_serves_stale_data():
    tb, mounts = build_shared("session")
    (writer, wproxy), (reader, rproxy) = mounts
    write_then_flush(tb, writer, wproxy, "/shared.txt", b"version-1")
    assert read_via(tb, reader, "/shared.txt") == b"version-1"
    write_then_flush(tb, writer, wproxy, "/shared.txt", b"version-2")
    # far beyond any TTL — the session cache never revalidates
    tb.sim.run(until=tb.sim.now + 60.0)
    assert read_via(tb, reader, "/shared.txt") == b"version-1"  # stale!


def test_poll_consistency_bounds_staleness():
    tb, mounts = build_shared("poll", ttl=2.0)
    (writer, wproxy), (reader, rproxy) = mounts
    write_then_flush(tb, writer, wproxy, "/shared.txt", b"version-1")
    assert read_via(tb, reader, "/shared.txt") == b"version-1"
    write_then_flush(tb, writer, wproxy, "/shared.txt", b"version-2")
    # within the TTL the reader may still be stale
    stale = read_via(tb, reader, "/shared.txt")
    assert stale in (b"version-1", b"version-2")
    # beyond the TTL it must see the new version
    tb.sim.run(until=tb.sim.now + 2.5)
    assert read_via(tb, reader, "/shared.txt") == b"version-2"


def test_poll_consistency_cheap_when_unchanged():
    tb, mounts = build_shared("poll", ttl=1.0)
    (writer, wproxy), (reader, rproxy) = mounts
    write_then_flush(tb, writer, wproxy, "/static.txt", b"immutable")
    read_via(tb, reader, "/static.txt")
    misses_before = rproxy.stats["data_misses"]
    tb.sim.run(until=tb.sim.now + 1.5)
    assert read_via(tb, reader, "/static.txt") == b"immutable"
    # a revalidation GETATTR happened, but the data was NOT refetched
    assert rproxy.stats["revalidations"] >= 1
    assert rproxy.stats["revalidation_drops"] == 0
    assert rproxy.stats["data_misses"] == misses_before
    assert rproxy.stats["data_hits"] >= 1


def test_poll_keeps_own_dirty_files_authoritative():
    tb, mounts = build_shared("poll", ttl=0.5)
    (writer, wproxy), _ = mounts

    def go():
        f = yield from writer.write_file("/mine.txt", b"locally dirty")
        yield tb.sim.timeout(1.0)  # TTL expires while dirty
        writer.pages.drop_file(f.fileid)
        writer.attrs.clear()
        return (yield from writer.read_file("/mine.txt"))

    # the server copy is empty (not yet written back); the session must
    # keep serving its own dirty data
    assert tb.run(go()) == b"locally dirty"


def test_bad_consistency_mode_rejected():
    with pytest.raises(ValueError, match="consistency"):
        ProxyCacheConfig(consistency="psychic")
