"""Client-side proxy disk cache: hits, write-back, discard semantics."""

import pytest

from repro.core import Testbed, setup_sgfs
from repro.core.topology import SERVER_PROXY_PORT
from repro.nfs.protocol import Proc
from repro.vfs.fs import Credentials

ROOT = Credentials(0, 0)


def cached_mount(rtt=0.040):
    tb = Testbed.build(rtt=rtt)
    mount = setup_sgfs(tb, disk_cache=True)
    return tb, mount


def test_writes_absorbed_locally():
    tb, mount = cached_mount()

    def job():
        yield from mount.client.write_file("/w.bin", b"d" * 65536)

    tb.run(job())
    stats = mount.client_proxy.stats
    assert stats["writes_absorbed"] > 0
    # the file exists on the server (CREATE forwarded) but carries no
    # data yet — write-back has not run
    node = tb.fs.resolve("/w.bin", ROOT)
    assert node.size == 0
    assert mount.client_proxy.dirty_bytes == 65536


def test_writeback_delivers_data_to_server():
    tb, mount = cached_mount()

    def job():
        yield from mount.client.write_file("/w.bin", b"e" * 65536)

    tb.run(job())
    wb_seconds, blocks, nbytes = tb.run(mount.finish())
    assert blocks == 2 and nbytes == 65536
    assert wb_seconds > 0
    node = tb.fs.resolve("/w.bin", ROOT)
    assert bytes(node.data) == b"e" * 65536


def test_writeback_keeps_dirty_blocks_of_files_it_has_no_handle_for():
    """A dirty block of a file whose handle the session never saw cannot
    be written: teardown flushes the rest, sends nothing for it, and
    leaves its dirty mark for a later session to act on."""
    tb, mount = cached_mount()
    proxy = mount.client_proxy
    unseen = 10_000_000  # no fileid the server has handed out

    def job():
        yield from mount.client.write_file("/w.bin", b"e" * 65536)
        yield from proxy._blocks.put(unseen, 3, b"u" * 100, dirty=True)

    tb.run(job())
    _wb, blocks, nbytes = tb.run(mount.finish())
    assert (blocks, nbytes) == (2, 65536)  # the seen file's blocks only
    assert proxy.stats["writeback_errors"] == 0
    assert tb.nfs_program.ops[Proc.WRITE] == 2  # nothing went out for it
    assert proxy._blocks.dirty == {unseen: {3}}
    assert proxy.dirty_bytes == 100


def test_read_after_local_write_hits_cache():
    tb, mount = cached_mount()

    def job():
        cl = mount.client
        yield from cl.write_file("/f.bin", b"f" * 65536)
        cl.pages.clear()  # defeat the kernel page cache
        data = yield from cl.read_file("/f.bin")
        return data

    assert tb.run(job()) == b"f" * 65536
    assert mount.client_proxy.stats["data_hits"] > 0
    # reads never crossed the WAN: server still has the empty file
    assert tb.fs.resolve("/f.bin", ROOT).size == 0


def test_removed_file_never_written_back():
    """The Seismic temporaries effect: deleted dirty data is discarded."""
    tb, mount = cached_mount()

    def job():
        cl = mount.client
        yield from cl.write_file("/temp.bin", b"t" * 65536)
        yield from cl.unlink("/temp.bin")

    tb.run(job())
    assert mount.client_proxy.dirty_bytes == 0
    _wb, blocks, nbytes = tb.run(mount.finish())
    assert (blocks, nbytes) == (0, 0)


def test_commit_answered_locally_under_write_back():
    tb, mount = cached_mount()
    forwarded_before = None

    def job():
        nonlocal forwarded_before
        cl = mount.client
        f = yield from cl.open("/c.bin", create=True)
        yield from cl.write(f, 0, b"c" * 32768)
        forwarded_before = mount.client_proxy.stats["forwarded"]
        yield from cl.fsync(f)  # WRITE flush + COMMIT — all absorbed
        yield from cl.close(f)

    tb.run(job())
    assert mount.client_proxy.stats["forwarded"] == forwarded_before


def test_metadata_cache_avoids_wan_round_trips():
    tb, mount = cached_mount()

    def job():
        cl = mount.client
        yield from cl.write_file("/m.bin", b"m")
        # defeat kernel caches so GETATTRs reach the proxy
        forwarded_before = mount.client_proxy.stats["forwarded"]
        for _ in range(5):
            cl.attrs.clear()
            yield from cl.stat("/m.bin")
        return mount.client_proxy.stats["forwarded"] - forwarded_before

    assert tb.run(job()) == 0
    assert mount.client_proxy.stats["attr_hits"] >= 5


def test_cache_disabled_forwards_everything():
    tb = Testbed.build()
    mount = setup_sgfs(tb, disk_cache=False)

    def job():
        cl = mount.client
        yield from cl.write_file("/n.bin", b"n" * 32768)
        data = yield from cl.read_file("/n.bin")
        return data

    assert tb.run(job()) == b"n" * 32768
    assert mount.client_proxy.stats["local_replies"] == 0
    # with no write-back, the data reached the server immediately
    assert tb.fs.resolve("/n.bin", ROOT).size == 32768


def test_setattr_truncate_drops_cached_blocks():
    tb, mount = cached_mount()

    def job():
        cl = mount.client
        yield from cl.write_file("/t.bin", b"t" * 32768)
        f = yield from cl.open("/t.bin", truncate=True)
        yield from cl.close(f)
        return mount.client_proxy.dirty_bytes

    assert tb.run(job()) == 0


def test_disk_cache_charges_disk_time():
    tb, mount = cached_mount()

    def job():
        cl = mount.client
        yield from cl.write_file("/d.bin", b"d" * 32768)
        yield from cl.read_file("/d.bin")  # prime ACCESS caches (1 WAN trip)
        cl.pages.clear()
        t0 = tb.sim.now
        yield from cl.read_file("/d.bin")
        return tb.sim.now - t0

    elapsed = tb.run(job())
    # a warm cache hit costs disk time (>1ms) but far less than the 40ms RTT
    assert 0.001 < elapsed < 0.040


def test_rename_invalidates_proxy_lookup_cache():
    tb, mount = cached_mount()

    def job():
        cl = mount.client
        yield from cl.write_file("/old.bin", b"o" * 100)
        yield from cl.rename("/old.bin", "/new.bin")
        cl.names.clear()
        cl.attrs.clear()
        data = yield from cl.read_file("/new.bin")
        exists = yield from cl.exists("/old.bin")
        return data, exists

    data, exists = tb.run(job())
    assert data == b"o" * 100 and not exists
