"""At-rest protection end to end: the §7 future work, live on the data path.

``setup_sgfs(at_rest=True)`` seals every block before it reaches the
server (which therefore stores only ciphertext), opens and verifies
blocks on the way back, and surfaces server-side tampering as an I/O
error to the application.
"""

import pytest

from repro.core import Testbed, setup_sgfs
from repro.nfs.client import NfsClientError
from repro.vfs.fs import Credentials, Status

ROOT = Credentials(0, 0)
SECRET = b"AT-REST-CANARY-7f3a" * 400  # ~7.6 KB, compressible marker


def at_rest_mount(rtt=0.010):
    tb = Testbed.build(rtt=rtt)
    mount = setup_sgfs(tb, disk_cache=True, at_rest=True)
    return tb, mount


def test_server_stores_only_ciphertext():
    tb, mount = at_rest_mount()

    def job():
        yield from mount.client.write_file("/vault.bin", SECRET)

    tb.run(job())
    tb.run(mount.finish())  # write-back ships sealed blocks
    stored = bytes(tb.fs.resolve("/vault.bin", ROOT).data)
    assert len(stored) == len(SECRET)  # length-preserving
    assert SECRET[:19] not in stored
    assert mount.client_proxy.stats["blocks_sealed"] > 0


def test_read_back_decrypts_transparently():
    tb, mount = at_rest_mount()

    def job():
        cl = mount.client
        yield from cl.write_file("/vault.bin", SECRET)
        return "wrote"

    tb.run(job())
    tb.run(mount.finish())
    # drop every client-side copy so reads come back from the server
    fileid = tb.fs.resolve("/vault.bin", ROOT).fileid
    mount.client.pages.drop_file(fileid)
    mount.client_proxy._blocks.drop_file(fileid)

    def job2():
        return (yield from mount.client.read_file("/vault.bin"))

    assert tb.run(job2()) == SECRET
    assert mount.client_proxy.stats["blocks_opened"] > 0


def test_tampering_on_server_detected_as_io_error():
    tb, mount = at_rest_mount()

    def job():
        yield from mount.client.write_file("/vault.bin", SECRET)

    tb.run(job())
    tb.run(mount.finish())
    # a malicious administrator flips a byte in the stored ciphertext
    node = tb.fs.resolve("/vault.bin", ROOT)
    node.data[100] ^= 0x5A
    fileid = tb.fs.resolve("/vault.bin", ROOT).fileid
    mount.client.pages.drop_file(fileid)
    mount.client_proxy._blocks.drop_file(fileid)

    def job2():
        with pytest.raises(NfsClientError) as e:
            yield from mount.client.read_file("/vault.bin")
        return e.value.status

    assert tb.run(job2()) == Status.IO


def test_at_rest_requires_write_back_cache():
    from repro.crypto.drbg import Drbg
    from repro.grid import GridRouter
    from repro.proxy.client_proxy import ProxyCacheConfig, SgfsClientProxy
    from repro.proxy.cryptofs import BlockCryptor
    from repro.proxy.upstream import UpstreamSession
    from repro.sim import Simulator
    from repro.net import Host, Network

    sim = Simulator()
    net = Network(sim)
    host = Host(sim, net, "h")
    with pytest.raises(ValueError, match="write-back"):
        SgfsClientProxy(
            sim, host, 1234, GridRouter(sim, [UpstreamSession(sim, lambda: None)]),
            cache=ProxyCacheConfig(enabled=False),
            cryptor=BlockCryptor(Drbg("k").randbytes(32)),
        )


def test_deleted_files_forget_their_macs():
    tb, mount = at_rest_mount()

    def job():
        cl = mount.client
        yield from cl.write_file("/gone.bin", SECRET)
        fileid = (yield from cl.stat("/gone.bin")).fileid
        yield from cl.unlink("/gone.bin")
        return fileid

    fileid = tb.run(job())
    cryptor = mount.extras["cryptor"]
    assert all(fid != fileid for fid, _b in cryptor.mac_store)


def test_normal_sgfs_unaffected():
    """Without at_rest the server stores plaintext (the paper's v1)."""
    tb = Testbed.build(rtt=0.010)
    mount = setup_sgfs(tb, disk_cache=True, at_rest=False)

    def job():
        yield from mount.client.write_file("/plain.bin", SECRET)

    tb.run(job())
    tb.run(mount.finish())
    assert SECRET[:19] in bytes(tb.fs.resolve("/plain.bin", ROOT).data)
