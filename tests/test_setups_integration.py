"""All eight setups end to end, plus cross-cutting integration checks."""

import pytest

from repro.core import SETUP_BUILDERS, Testbed
from repro.core.setups import FILE_ACCOUNT
from repro.vfs.fs import Credentials

ROOT = Credentials(0, 0)

WORKLOAD_PAYLOAD = b"integration payload " * 500  # ~10 KB


def small_workload(tb, mount):
    def job():
        cl = mount.client
        yield from cl.mkdir("/it")
        yield from cl.write_file("/it/file.bin", WORKLOAD_PAYLOAD)
        data = yield from cl.read_file("/it/file.bin")
        assert data == WORKLOAD_PAYLOAD
        entries = yield from cl.readdir("/it")
        assert [e.name for e in entries] == ["file.bin"]
        attr = yield from cl.stat("/it/file.bin")
        assert attr.size == len(WORKLOAD_PAYLOAD)
        yield from cl.rename("/it/file.bin", "/it/renamed.bin")
        yield from cl.unlink("/it/renamed.bin")
        yield from cl.rmdir("/it")

    tb.run(job())
    tb.run(mount.finish())


@pytest.mark.parametrize("name", sorted(SETUP_BUILDERS))
def test_every_setup_serves_the_same_semantics(name):
    tb = Testbed.build()
    mount = SETUP_BUILDERS[name](tb)
    small_workload(tb, mount)


@pytest.mark.parametrize("name", ["nfs-v3", "sgfs", "sfs", "gfs-ssh"])
def test_every_setup_works_over_wan(name):
    tb = Testbed.build(rtt=0.020)
    kwargs = {"disk_cache": True} if name == "sgfs" else {}
    mount = SETUP_BUILDERS[name](tb, **kwargs)
    small_workload(tb, mount)


def test_file_contents_identical_across_setups():
    """The same workload leaves byte-identical server state everywhere."""
    states = {}
    for name in ("nfs-v3", "gfs", "sgfs", "sfs"):
        tb = Testbed.build()
        mount = SETUP_BUILDERS[name](tb)

        def job(mount=mount):
            yield from mount.client.write_file("/same.bin", WORKLOAD_PAYLOAD)

        tb.run(job())
        tb.run(mount.finish())
        states[name] = bytes(tb.fs.resolve("/same.bin", ROOT).data)
    assert len(set(states.values())) == 1
    assert states["nfs-v3"] == WORKLOAD_PAYLOAD


def test_ownership_identical_across_proxied_setups():
    for name in ("gfs", "sgfs", "sfs"):
        tb = Testbed.build()
        mount = SETUP_BUILDERS[name](tb)

        def job(mount=mount):
            yield from mount.client.write_file("/owner.bin", b"x")

        tb.run(job())
        assert tb.fs.resolve("/owner.bin", ROOT).uid == FILE_ACCOUNT.uid, name


def test_rtt_reconfiguration_mid_simulation():
    tb = Testbed.build(rtt=0.0)
    mount = SETUP_BUILDERS["nfs-v3"](tb)

    def job():
        cl = mount.client
        t0 = tb.sim.now
        yield from cl.write_file("/a", b"x")
        lan_time = tb.sim.now - t0
        tb.set_rtt(0.100)
        cl.attrs.clear()
        cl.names.clear()
        t1 = tb.sim.now
        yield from cl.write_file("/b", b"x")
        wan_time = tb.sim.now - t1
        return lan_time, wan_time

    lan_time, wan_time = tb.run(job())
    assert wan_time > lan_time + 0.100


def test_measured_rtt_matches_configuration():
    tb = Testbed.build(rtt=0.040)
    assert tb.measured_rtt == pytest.approx(0.040 + 0.0003, rel=0.01)


def test_secure_setups_carry_no_plaintext_on_wire():
    """End-to-end privacy for sgfs with real (bit-exact) ciphers."""
    tb = Testbed.build()
    mount = SETUP_BUILDERS["sgfs"](tb, fast_ciphers=False)
    secret = b"WIRETAP-CANARY-0123456789" * 8
    captured = bytearray()
    upstream_sock = mount.client_proxy._upstream.sock
    original = upstream_sock.send
    upstream_sock.send = lambda data: (captured.extend(data), original(data))[1]

    def job():
        yield from mount.client.write_file("/secret.bin", secret)

    tb.run(job())
    tb.run(mount.finish())
    assert len(captured) > len(secret)
    assert secret[:20] not in bytes(captured)
    # and the server did receive the true plaintext after write-back
    assert bytes(tb.fs.resolve("/secret.bin", ROOT).data) == secret


def test_plain_gfs_leaks_plaintext_on_wire():
    """The contrast the paper draws: basic GFS has no channel privacy."""
    tb = Testbed.build()
    mount = SETUP_BUILDERS["gfs"](tb)
    secret = b"WIRETAP-CANARY-0123456789" * 8
    captured = bytearray()
    upstream_sock = mount.client_proxy._upstream.sock
    original = upstream_sock.send
    upstream_sock.send = lambda data: (captured.extend(data), original(data))[1]

    def job():
        yield from mount.client.write_file("/secret.bin", secret)

    tb.run(job())
    assert secret[:20] in bytes(captured)


# -- one server loop: every backend is the same kind of thing ------------------


def test_every_backend_has_its_own_server_and_only_home_speaks_v4():
    from repro.core.setups import _kernel_client
    from repro.core.topology import NFS_PORT
    from repro.nfs.v4 import NFS_V4
    from repro.rpc.auth import AuthSys
    from repro.rpc.errors import RpcProgMismatch

    tb = Testbed.build(servers=3)
    assert [b.name for b in tb.backends] == ["server", "s1", "s2"]
    for part in ("host", "fs", "disk", "nfs_program", "rpc_server"):
        assert len({id(getattr(b, part)) for b in tb.backends}) == 3, part
    # the historical names are views of backend 0, not copies
    home = tb.backends[0]
    assert tb.server is home.host and tb.fs is home.fs
    assert tb.server_disk is home.disk and tb.nfs_program is home.nfs_program
    assert tb.nfs_rpc_server is home.rpc_server

    cred = AuthSys(uid=FILE_ACCOUNT.uid, gid=FILE_ACCOUNT.gid, machinename="client")

    def v4_write(backend):
        cl = yield from _kernel_client(
            tb, backend.name, NFS_PORT, cred, None, vers=NFS_V4,
            root_fh=backend.nfs_program.root_handle(),
        )
        yield from cl.write_file("/v4.txt", b"compound")

    tb.run(v4_write(home))
    assert bytes(home.fs.resolve("/v4.txt", ROOT).data) == b"compound"
    for backend in tb.backends[1:]:
        with pytest.raises(RpcProgMismatch):
            tb.run(v4_write(backend))


def test_home_server_crash_and_restart_are_backend_zero():
    from repro.core.topology import NFS_PORT
    from repro.net.errors import NetError

    tb = Testbed.build(servers=2)
    mount = SETUP_BUILDERS["nfs-v3"](tb)
    tb.run(mount.client.write_file("/before.txt", b"1"))
    (nfsd,) = tb.daemons["server"]
    assert nfsd is tb.backends[0].rpc_server
    assert tb.daemons["backend1"] == [tb.backends[1].rpc_server]
    for _ in range(2):
        nfsd.crash()
        with pytest.raises(NetError):  # nothing listens while it is down
            tb.run(tb.client.connect("server", NFS_PORT))
        nfsd.restart()
        nfsd.restart()  # idempotent: the port is bound once
        # the hard-mounted client reconnects to the restarted server
        tb.run(mount.client.write_file("/after.txt", b"2"))
    assert bytes(tb.fs.resolve("/after.txt", ROOT).data) == b"2"


def test_two_hand_built_seats_share_one_server_proxy():
    """The public session parts, composed by hand for two users on one
    testbed: one gridmap, one server proxy, each seat mapped to its own
    account — what ``run_fleet`` does for N."""
    from repro.core.setups import (
        Seat, SessionPki, admit, client_proxy, mount_through_proxy, proxy_dial,
        serve_proxy,
    )
    from repro.core.topology import CLIENT_PROXY_PORT, SERVER_PROXY_PORT
    from repro.gsi import DistinguishedName, Gridmap
    from repro.gsi.gridmap import UnmappedPolicy
    from repro.nfs.protocol import FileHandle
    from repro.proxy.accounts import Account

    tb = Testbed.build()
    pki = SessionPki(tb, "two-seats", "null-sha1")
    gridmap = Gridmap(unmapped=UnmappedPolicy.DENY)
    seats = []
    for i, user in enumerate(("alice", "bob")):
        account = Account(user, 7000 + i, 7000 + i)
        home = tb.fs.mkdir(tb.fs.root.fileid, user, ROOT)
        tb.fs.setattr(home.fileid, ROOT, uid=account.uid, gid=account.gid)
        seat = Seat(
            tb.add_client(f"pc-{user}"),
            DistinguishedName.parse(f"/O=Lab/CN={user}"), account,
            {0: FileHandle(tb.fs.fsid, home.fileid, home.generation)},
            suffix=f"-{user}",
        )
        admit(tb, gridmap, seat)
        seats.append(seat)
    server_proxy = serve_proxy(tb.server, SERVER_PROXY_PORT, tb.fs, tb.server_disk,
                               tb.server_accounts, gridmap, tb.cal, pki.server_config())

    def session(seat):
        dial = proxy_dial(seat.host, SERVER_PROXY_PORT, pki.client_config(seat))
        proxy = client_proxy(seat.host, CLIENT_PROXY_PORT, ["server"], dial, tb.cal)
        yield from proxy.start()
        client = yield from mount_through_proxy(tb, seat)
        yield from client.write_file("/mine.txt", seat.name.encode())

    for seat in seats:
        tb.run(session(seat))
    for seat in seats:
        node = tb.fs.resolve(f"/{seat.account.name}/mine.txt", ROOT)
        assert (node.uid, node.gid) == (seat.account.uid, seat.account.gid)
        assert bytes(node.data) == seat.name.encode()
    assert server_proxy.stats.granted > 0 and server_proxy.stats.denied == 0
    assert len(server_proxy.authz) == 2  # two identities, one proxy
