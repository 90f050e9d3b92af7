"""Client-side proxy disk cache: hits, write-back, discard semantics."""

import pytest

from repro.core import Testbed, setup_sgfs
from repro.core.topology import SERVER_PROXY_PORT
from repro.nfs import protocol as pr
from repro.nfs.protocol import Proc
from repro.proxy.client_proxy import WRITE_VERF
from repro.rpc.messages import CallMessage, ReplyMessage
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
        yield from proxy._blocks.write(unseen, 3, b"u" * 100)

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
        f = yield from cl.write_file("/f.bin", b"f" * 65536)
        cl.pages.drop_file(f.fileid)  # defeat the kernel page cache
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


_PAYLOAD = bytes(range(256)) * 256  # 64 KiB: two blocks


@pytest.mark.parametrize("size", [40000, 100000])
def test_setattr_size_keeps_the_absorbed_writes_below_it(size):
    """SETATTR(size > 0) cuts the cached file at the new size; the
    absorbed writes below it still reach the server, and the server's
    size stands (shrunk, or grown with a hole)."""
    tb, mount = cached_mount()

    def job():
        yield from mount.client.write_file("/s.bin", _PAYLOAD)
        yield from mount.client.setattr("/s.bin", pr.Sattr3(size=size))

    tb.run(job())
    _wb, blocks, nbytes = tb.run(mount.finish())
    kept = min(size, len(_PAYLOAD))
    assert (blocks, nbytes) == (2, kept)
    node = tb.fs.resolve("/s.bin", ROOT)
    assert bytes(node.data) == _PAYLOAD[:kept] + bytes(size - kept)
    assert node.size == size
    assert mount.client_proxy.stats["writeback_errors"] == 0


def test_rename_over_a_cached_file_drops_the_replaced_files_blocks():
    """The replaced target's dirty blocks go with it, as on REMOVE: no
    WRITE is sent to its dead handle."""
    tb, mount = cached_mount()

    def job():
        yield from mount.client.write_file("/a.bin", _PAYLOAD)
        yield from mount.client.write_file("/b.bin", b"b" * len(_PAYLOAD))
        yield from mount.client.rename("/a.bin", "/b.bin")

    tb.run(job())
    _wb, blocks, _nbytes = tb.run(mount.finish())
    assert blocks == 2
    assert mount.client_proxy.stats["writeback_errors"] == 0
    assert bytes(tb.fs.resolve("/b.bin", ROOT).data) == _PAYLOAD


def test_unlinking_one_of_two_hard_links_keeps_the_files_data():
    """REMOVE drops a file's blocks only when its cached attrs say the
    name was the last link (LINK refreshes them)."""
    tb, mount = cached_mount()

    def job():
        yield from mount.client.write_file("/a.bin", _PAYLOAD)
        yield from mount.client.link("/a.bin", "/keep.bin")
        yield from mount.client.unlink("/a.bin")

    tb.run(job())
    _wb, blocks, _nbytes = tb.run(mount.finish())
    assert blocks == 2
    assert bytes(tb.fs.resolve("/keep.bin", ROOT).data) == _PAYLOAD


def test_disk_cache_charges_disk_time():
    tb, mount = cached_mount()

    def job():
        cl = mount.client
        f = yield from cl.write_file("/d.bin", b"d" * 32768)
        yield from cl.read_file("/d.bin")  # prime ACCESS caches (1 WAN trip)
        cl.pages.drop_file(f.fileid)
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


# -- write-behind hazards ------------------------------------------------------
# A multi-stream leg writes eviction victims back in the background, so a
# victim's WRITE is still on the wire when the next call arrives.  These
# drive the proxy directly with NFS calls: four 32 KB blocks of cache and
# a warm leg (40 ms round trips, 5 ms per block: an 8-block window, so an
# eviction drains to half the cache and its victims ride several
# channels at once).

BS = 32768


def _block(i):
    return bytes([i + 1]) * BS


def write_behind_mount(streams=4):
    tb = Testbed.build(rtt=0.040)
    mount = setup_sgfs(tb, disk_cache=True, streams=streams, cache_capacity=4 * BS)
    leg = mount.client_proxy._up.legs[0]
    leg.srtt_small, leg.srtt_bulk = 0.040, 0.045
    return tb, mount, mount.client_proxy


def _nfs(proxy, proc, args):
    """Process generator: one NFS call answered by the proxy; returns
    its result bytes."""
    call = CallMessage(1, pr.NFS_PROGRAM, pr.NFS_V3, int(proc),
                       cred=proxy._session_cred, args=args)
    reply = ReplyMessage.decode((yield from proxy._execute(call)))
    return reply.results


def _evict_first_three(mount, proxy):
    """Process generator: create /v.bin and write blocks 0-5 through the
    proxy; the fifth insert evicts blocks 0-2, whose WRITEs are then in
    flight.  Returns the file handle."""
    f = yield from mount.client.open("/v.bin", create=True)
    for b in range(6):
        yield from _nfs(proxy, Proc.WRITE,
                        pr.pack_write_args(f.fh, b * BS, _block(b), pr.UNSTABLE))
    states = [proxy._blocks.state(f.fileid, b) for b in range(4)]
    assert states == ["writing"] * 3 + ["dirty"]
    assert (f.fileid, 0) not in proxy._blocks
    return f.fh


def _server_bytes(tb):
    return bytes(tb.fs.resolve("/v.bin", ROOT).data)


def test_victim_is_read_back_while_its_write_is_in_flight():
    tb, mount, proxy = write_behind_mount()

    def job():
        fh = yield from _evict_first_three(mount, proxy)
        forwarded = proxy.stats["forwarded"]
        res = yield from _nfs(proxy, Proc.READ, pr.pack_read_args(fh, 0, BS))
        assert proxy._blocks.state(fh.fileid, 0) == "writing"  # still on the wire
        assert proxy.stats["forwarded"] == forwarded  # answered locally
        return pr.unpack_read_res(res)[2]

    assert tb.run(job()) == _block(0)
    tb.run(mount.finish())
    assert _server_bytes(tb) == b"".join(_block(b) for b in range(6))
    assert proxy.stats["writeback_errors"] == 0


def test_unaligned_write_over_an_in_flight_victim_keeps_its_prefix():
    tb, mount, proxy = write_behind_mount()
    patch = b"\xee" * 50

    def job():
        fh = yield from _evict_first_three(mount, proxy)
        yield from _nfs(proxy, Proc.WRITE,
                        pr.pack_write_args(fh, 100, patch, pr.UNSTABLE))

    tb.run(job())
    tb.run(mount.finish())
    first = _block(0)[:100] + patch + _block(0)[150:]
    assert _server_bytes(tb) == first + b"".join(_block(b) for b in range(1, 6))
    assert proxy.stats["writeback_errors"] == 0


def test_block_re_evicted_mid_write_waits_and_ends_with_the_newer_bytes():
    tb, mount, proxy = write_behind_mount()
    newer = b"\x77" * BS

    def job():
        fh = yield from _evict_first_three(mount, proxy)
        (older,) = proxy._blocks.background(writes=True)
        yield from _nfs(proxy, Proc.WRITE,
                        pr.pack_write_args(fh, 0, newer, pr.UNSTABLE))
        for b in (4, 5):  # LRU order is now 3, 0, 4, 5
            yield from _nfs(proxy, Proc.WRITE,
                            pr.pack_write_args(fh, b * BS, _block(b), pr.UNSTABLE))
        assert older.alive
        # evicts 3, 0, 4: block 0's second write waits for its first
        yield from _nfs(proxy, Proc.WRITE,
                        pr.pack_write_args(fh, 6 * BS, _block(6), pr.UNSTABLE))
        assert not older.alive
        assert len(proxy._blocks.background(writes=True)) == 1
        assert proxy._blocks.state(fh.fileid, 0) == "writing"
        assert (yield from proxy._blocks.read(fh.fileid, 0)) == newer

    tb.run(job())
    tb.run(mount.finish())
    assert _server_bytes(tb) == newer + b"".join(_block(b) for b in range(1, 7))
    assert proxy.stats["writeback_errors"] == 0


def test_remove_right_after_an_eviction_waits_for_its_writes():
    tb, mount, proxy = write_behind_mount()

    def job():
        fh = yield from _evict_first_three(mount, proxy)
        yield from mount.client.unlink("/v.bin")
        assert not proxy._blocks.background(writes=True)
        assert {proxy._blocks.state(fh.fileid, b) for b in range(6)} == {"absent"}

    tb.run(job())
    tb.run(mount.finish())
    assert proxy.stats["writeback_errors"] == 0
    assert proxy.stats["writeback_blocks"] == 3


def test_victim_superseded_while_waiting_is_never_written_after_the_newer():
    """An eviction can wait for a write-behind slot while a newer
    eviction of the same block goes out (a call served meanwhile — or
    read-ahead — evicts in the background): the older bytes are dropped,
    not written last."""
    tb, mount, proxy = write_behind_mount()
    leg = proxy._up.legs[0]
    burst = leg.burst

    def first_eviction_lands_last(calls):
        if pr.unpack_write_args(calls[0].args)[1] == 0:
            yield tb.sim.timeout(1.0)
        return (yield from burst(calls))

    leg.burst = first_eviction_lands_last
    older, newer = b"\x01" * BS, b"\x02" * BS
    blocks = [_block(b) for b in range(13)]
    blocks[7] = newer

    def write(fh, b, data):
        return _nfs(proxy, Proc.WRITE,
                    pr.pack_write_args(fh, b * BS, data, pr.UNSTABLE))

    def job():
        fh = yield from _evict_first_three(mount, proxy)  # cached: 3 4 5
        yield from write(fh, 6, blocks[6])
        yield from write(fh, 7, older)  # evicts 3 4 5: a second burst
        for b in (8, 9):
            yield from write(fh, b, blocks[b])
        # two bursts in flight: this eviction of 6 7 8 waits for the oldest
        waiting = tb.sim.spawn(write(fh, 10, blocks[10]))
        yield tb.sim.timeout(0.5)  # the second burst has landed
        assert proxy._blocks.state(fh.fileid, 7) == "writing"
        yield from write(fh, 7, newer)
        assert proxy._blocks.state(fh.fileid, 7) == "writing-and-dirty"
        for b in (11, 12):  # evicts 9 10 7: block 7's newer bytes go out
            yield from write(fh, b, blocks[b])
        yield waiting

    tb.run(job())
    tb.run(mount.finish())
    assert _server_bytes(tb) == b"".join(blocks)
    assert proxy.stats["writeback_errors"] == 0


def test_unaligned_read_sees_the_writes_absorbed_before_it():
    """Only the server answers a READ that is not one whole block, so the
    file's absorbed writes are written back first."""
    tb, mount = cached_mount()
    proxy = mount.client_proxy

    def job():
        f = yield from mount.client.open("/u.bin", create=True)
        yield from _nfs(proxy, Proc.WRITE, pr.pack_write_args(f.fh, 0, _block(0), pr.UNSTABLE))
        res = yield from _nfs(proxy, Proc.READ, pr.pack_read_args(f.fh, 100, 1000))
        return pr.unpack_read_res(res)

    status, _attr, got, eof = tb.run(job())
    assert (status, got, eof) == (pr.NfsStatus.OK, _block(0)[100:1100], False)
    assert proxy.stats["writeback_blocks"] == 1


def test_a_hole_below_the_absorbed_writes_reads_as_zeros():
    """The server holds nothing of a file written past its end until
    write-back; a block below the session's size that it returns short
    is zeros up to that size."""
    tb, mount = cached_mount()
    proxy = mount.client_proxy

    def job():
        f = yield from mount.client.open("/h.bin", create=True)
        yield from _nfs(proxy, Proc.WRITE,
                        pr.pack_write_args(f.fh, 2 * BS, _block(2), pr.UNSTABLE))
        res = yield from _nfs(proxy, Proc.READ, pr.pack_read_args(f.fh, BS, BS))
        return f.fileid, pr.unpack_read_res(res)

    fileid, (status, attr, got, eof) = tb.run(job())
    assert (status, got, eof, attr.size) == (pr.NfsStatus.OK, bytes(BS), False, 3 * BS)
    assert proxy._blocks.state(fileid, 1) == "clean"
    tb.run(mount.finish())
    assert bytes(tb.fs.resolve("/h.bin", ROOT).data) == bytes(2 * BS) + _block(2)


def test_a_cached_block_written_short_reads_as_zeros_up_to_the_size():
    """The same hole, over a block cached short: a write past it grew the
    file, so the READ of the block is whole, not short and not at EOF."""
    tb, mount = cached_mount()
    proxy = mount.client_proxy

    def job():
        f = yield from mount.client.open("/s.bin", create=True)
        for offset in (0, 3 * BS):
            yield from _nfs(proxy, Proc.WRITE,
                            pr.pack_write_args(f.fh, offset, b"x" * 100, pr.UNSTABLE))
        res = yield from _nfs(proxy, Proc.READ, pr.pack_read_args(f.fh, 0, BS))
        return pr.unpack_read_res(res)

    status, _attr, got, eof = tb.run(job())
    assert (status, got, eof) == (pr.NfsStatus.OK, b"x" * 100 + bytes(BS - 100), False)


# -- the cache disk's write contract ------------------------------------------
# NFSv3's UNSTABLE/COMMIT contract, at the proxy's cache disk: an UNSTABLE
# WRITE is answered from memory with its disk write queued behind the
# reply; a FILE_SYNC WRITE and a COMMIT are answered once the file's
# absorbed blocks are on the disk.


def _write(proxy, fh, block, stable):
    """Process generator: one whole-block WRITE through the proxy; returns
    (status, count, committed, verf)."""
    res = yield from _nfs(proxy, Proc.WRITE,
                          pr.pack_write_args(fh, block * BS, _block(block), stable))
    status, _attr, count, committed, verf = pr.unpack_write_res(res)
    return status, count, committed, verf


def test_an_unstable_write_is_answered_before_its_cache_disk_write():
    tb, mount = cached_mount()
    proxy = mount.client_proxy

    def job():
        f = yield from mount.client.open("/u.bin", create=True)
        t0 = tb.sim.now
        reply = yield from _write(proxy, f.fh, 0, pr.UNSTABLE)
        return reply, tb.sim.now - t0, proxy._blocks.unsynced(f.fileid)

    reply, elapsed, pending = tb.run(job())
    assert reply == (pr.NfsStatus.OK, BS, pr.UNSTABLE, WRITE_VERF)
    assert pending and elapsed == 0.0
    tb.run(proxy.writeback())
    assert not proxy._blocks.unsynced() and proxy._blocks.disk.bytes_written == BS


def test_a_file_sync_write_is_answered_once_its_block_is_on_the_cache_disk():
    tb, mount = cached_mount()
    proxy = mount.client_proxy
    disk = proxy._blocks.disk

    def job():
        f = yield from mount.client.open("/s.bin", create=True)
        yield from _write(proxy, f.fh, 0, pr.UNSTABLE)
        t0 = tb.sim.now
        reply = yield from _write(proxy, f.fh, 1, pr.FILE_SYNC)
        return reply, tb.sim.now - t0, proxy._blocks.unsynced(f.fileid)

    reply, elapsed, pending = tb.run(job())
    assert reply == (pr.NfsStatus.OK, BS, pr.FILE_SYNC, WRITE_VERF)
    assert not pending and disk.bytes_written == 2 * BS
    assert elapsed >= 2 * BS / disk.write_bandwidth  # both blocks, in order


def test_a_commit_is_answered_once_no_block_of_its_file_waits_for_the_cache_disk():
    tb, mount = cached_mount()
    proxy = mount.client_proxy

    def job():
        f = yield from mount.client.open("/c.bin", create=True)
        forwarded = proxy.stats["forwarded"]
        for b in range(4):
            yield from _write(proxy, f.fh, b, pr.UNSTABLE)
        pending = proxy._blocks.unsynced(f.fileid)
        res = yield from _nfs(proxy, Proc.COMMIT, pr.pack_commit_args(f.fh))
        assert proxy.stats["forwarded"] == forwarded  # nothing crossed the WAN
        return pending, pr.unpack_commit_res(res), proxy._blocks.unsynced(f.fileid)

    before, (status, _attr, verf), after = tb.run(job())
    assert before and not after
    assert (status, verf) == (pr.NfsStatus.OK, WRITE_VERF)
    assert proxy._blocks.disk.bytes_written == 4 * BS


@pytest.mark.parametrize("writeback", [True, False])
def test_a_session_torn_down_with_cache_disk_writes_pending_ends_empty(writeback):
    """The disk's writer outlives neither ``writeback()`` nor the
    session; what it writes is every absorbed byte."""
    tb, mount = cached_mount()
    proxy = mount.client_proxy

    def job():
        f = yield from mount.client.open("/t.bin", create=True)
        for b in range(6):
            yield from _write(proxy, f.fh, b, pr.UNSTABLE)
        assert proxy._blocks.unsynced(f.fileid)
        if writeback:
            yield from proxy.writeback()
            assert not proxy._blocks.unsynced()

    tb.run(job())
    tb.close()  # stops the proxy, drains, and raises unless nothing is left
    assert proxy._blocks.disk.bytes_written == 6 * BS
    assert proxy.stats["writeback_bytes"] == (6 * BS if writeback else 0)
