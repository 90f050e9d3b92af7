"""Live proxy reconfiguration: the §4.2 reload signal, under load."""

import pytest

from repro.core import Testbed, setup_sgfs
from repro.harness import run_fleet
from repro.proxy.session_config import ProxyCacheConfig
from repro.vfs.fs import Credentials

ROOT = Credentials(0, 0)


def test_reload_disabling_cache_flushes_dirty_data():
    tb = Testbed.build(rtt=0.010)
    mount = setup_sgfs(tb, disk_cache=True)
    proxy = mount.client_proxy

    def job():
        yield from mount.client.write_file("/held.bin", b"h" * 65536)
        assert proxy.dirty_bytes == 65536
        # operator disables caching on the live session
        yield from proxy.reload_config(cache=ProxyCacheConfig(enabled=False))
        assert proxy.dirty_bytes == 0
        # and the data reached the server during the reload
        return bytes(tb.fs.resolve("/held.bin", ROOT).data)

    assert tb.run(job()) == b"h" * 65536


def test_reload_rekey_under_live_io():
    tb = Testbed.build()
    mount = setup_sgfs(tb, suite="aes-256-cbc-sha1", fast_ciphers=False)
    proxy = mount.client_proxy

    def job():
        cl = mount.client
        yield from cl.write_file("/a.bin", b"before")
        yield from proxy.reload_config(rekey=True)
        yield from cl.write_file("/b.bin", b"after")
        a = yield from cl.read_file("/a.bin")
        b = yield from cl.read_file("/b.bin")
        return a, b, proxy._upstream.renegotiations

    a, b, renegs = tb.run(job())
    assert (a, b) == (b"before", b"after")
    assert renegs == 1


class _Rekeying:
    """Writes a file, rekeys its live session, then writes another and
    reads both back."""

    def run(self, mount):
        cl = mount.client
        yield from cl.write_file("/a.bin", b"before")
        yield from mount.client_proxy.reload_config(rekey=True)
        yield from cl.write_file("/b.bin", b"after")
        assert (yield from cl.read_file("/a.bin")) == b"before"
        assert (yield from cl.read_file("/b.bin")) == b"after"


@pytest.mark.parametrize("servers, streams", [(1, 4), (2, 1)],
                         ids=["4-stream", "2x1-grid"])
def test_reload_rekeys_every_channel_of_every_leg(servers, streams):
    r = run_fleet("sgfs-sha", _Rekeying, clients=1, servers=servers,
                  streams=streams)
    renegs = r.stats["tls"]["renegotiations{suite=null-sha1}"]
    assert renegs == servers * streams


def test_reload_gate_blocks_new_calls_until_done():
    tb = Testbed.build(rtt=0.010)
    mount = setup_sgfs(tb, disk_cache=True)
    proxy = mount.client_proxy
    sim = tb.sim

    def job():
        yield from mount.client.write_file("/big.bin", b"g" * (64 * 32768))
        # start a reload (big write-back) and immediately issue an op
        reload_proc = sim.spawn(
            proxy.reload_config(cache=ProxyCacheConfig(enabled=False))
        )
        t0 = sim.now
        mount.client.attrs.clear()
        yield from mount.client.stat("/big.bin")
        stat_done = sim.now
        yield reload_proc
        # the stat had to wait for the gate: it finished after the
        # write-back started making progress, not instantly
        return stat_done - t0

    waited = tb.run(job())
    assert waited > 0.010  # at least one WAN round trip of write-back
