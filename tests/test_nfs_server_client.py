"""NFS server + caching client end to end over the simulated network."""

import pytest

from repro.net import Host, Network
from repro.nfs import NfsClient, NfsClientError, NfsServerProgram, NFS_PROGRAM, NFS_V3
from repro.nfs import protocol as pr
from repro.nfs.protocol import FileHandle, NfsStatus, Proc, Sattr3
from repro.rpc import RpcClient, RpcServer, StreamTransport
from repro.rpc.auth import AuthSys
from repro.rpc.messages import CallMessage
from repro.sim import Simulator
from repro.vfs import DiskModel, Status, VirtualFS
from repro.vfs.fs import Credentials
from tests import _reference_codec as ref


def build(cache_bytes=1 << 20, read_ahead=2, uid=1000):
    sim = Simulator()
    net = Network(sim)
    c = Host(sim, net, "c")
    s = Host(sim, net, "s")
    net.connect("c", "s", latency=0.0005)
    fs = VirtualFS(clock=lambda: sim.now, root_uid=1000, root_gid=1000)
    prog = NfsServerProgram(sim, fs, DiskModel(sim))
    server = RpcServer(sim, cpu=s.cpu)
    server.register(prog)
    server.serve_listener(s.listen(2049))

    def connect():
        sock = yield from c.connect("s", 2049)
        rpc = RpcClient(sim, StreamTransport(sock), NFS_PROGRAM, NFS_V3, cpu=c.cpu)
        return NfsClient(
            sim, rpc, prog.root_handle(), AuthSys(uid=uid, gid=uid),
            block_size=4096, cache_bytes=cache_bytes,
            read_ahead_blocks=read_ahead,
        )

    client = sim.run_until_complete(sim.spawn(connect()))
    return sim, fs, prog, client


def run(sim, gen):
    return sim.run_until_complete(sim.spawn(gen))


def test_full_file_lifecycle():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.mkdir("/dir")
        yield from cl.write_file("/dir/f.bin", b"payload" * 100)
        data = yield from cl.read_file("/dir/f.bin")
        assert data == b"payload" * 100
        attr = yield from cl.stat("/dir/f.bin")
        assert attr.size == 700
        yield from cl.rename("/dir/f.bin", "/dir/g.bin")
        yield from cl.unlink("/dir/g.bin")
        yield from cl.rmdir("/dir")
        assert not (yield from cl.exists("/dir"))
        yield from cl.drain()

    run(sim, main())


def test_multi_block_write_and_read():
    sim, fs, prog, cl = build()
    payload = bytes(range(256)) * 64  # 16 KB = 4 blocks at 4 KB

    def main():
        yield from cl.write_file("/big", payload)
        yield from cl.drain()
        data = yield from cl.read_file("/big")
        assert data == payload
        # the data really reached the server's VFS
        node = fs.resolve("/big")
        assert bytes(node.data) == payload

    run(sim, main())


def test_partial_overwrite_read_modify_write():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/f", b"A" * 10000)
        f = yield from cl.open("/f")
        yield from cl.write(f, 5000, b"B" * 100)
        yield from cl.close(f)
        data = yield from cl.read_file("/f")
        assert data == b"A" * 5000 + b"B" * 100 + b"A" * 4900

    run(sim, main())


def test_enoent_and_eexist_errors():
    sim, fs, prog, cl = build()

    def main():
        with pytest.raises(NfsClientError) as e:
            yield from cl.read_file("/missing")
        assert e.value.status == Status.NOENT
        yield from cl.mkdir("/d")
        with pytest.raises(NfsClientError) as e:
            yield from cl.mkdir("/d")
        assert e.value.status == Status.EXIST
        with pytest.raises(NfsClientError) as e:
            yield from cl.create("/d/x/y")
        assert e.value.status == Status.NOENT

    run(sim, main())


def test_permission_error_surfaces():
    sim, fs, prog, cl = build(uid=4242)  # not the export owner

    def main():
        with pytest.raises(NfsClientError) as e:
            yield from cl.mkdir("/notmine")
        assert e.value.status == Status.ACCES

    run(sim, main())


def test_readdir_listing_and_caching():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.mkdir("/d")
        for i in range(10):
            yield from cl.write_file(f"/d/f{i:02d}", b"x")
        entries = yield from cl.readdir("/d")
        names = sorted(e.name for e in entries)
        assert names == [f"f{i:02d}" for i in range(10)]
        before = cl.rpc.calls_sent
        yield from cl.readdir("/d")  # served from the listing cache
        assert cl.rpc.calls_sent == before
        # mutation invalidates it
        yield from cl.unlink("/d/f00")
        entries = yield from cl.readdir("/d")
        assert len(entries) == 9

    run(sim, main())


def test_readdir_paginates_large_directory():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.mkdir("/big")
        for i in range(300):
            yield from cl.write_file(f"/big/file-{i:03d}", b"")
        entries = yield from cl.readdir("/big")
        assert len(entries) == 300

    run(sim, main())


def test_attribute_cache_avoids_getattr_storm():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/f", b"data")
        yield from cl.stat("/f")
        getattrs_before = prog.ops[Proc.GETATTR] + prog.ops[Proc.LOOKUP]
        for _ in range(25):
            yield from cl.stat("/f")
        return prog.ops[Proc.GETATTR] + prog.ops[Proc.LOOKUP] - getattrs_before

    assert run(sim, main()) == 0


def test_attribute_cache_expires():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/f", b"data")
        yield from cl.stat("/f")
        before = prog.ops[Proc.GETATTR]
        yield sim.timeout(120.0)  # beyond acregmax
        yield from cl.stat("/f")
        return prog.ops[Proc.GETATTR] - before

    assert run(sim, main()) >= 1


def test_page_cache_hit_avoids_read_rpc():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/f", b"z" * 8192)
        f = yield from cl.open("/f")
        yield from cl.read(f, 0, 8192)
        reads_before = prog.ops[Proc.READ]
        yield from cl.read(f, 0, 8192)  # same blocks, cache-hot
        yield from cl.close(f)
        return prog.ops[Proc.READ] - reads_before

    assert run(sim, main()) == 0


def test_lru_eviction_under_small_cache():
    sim, fs, prog, cl = build(cache_bytes=8192, read_ahead=0)  # 2 pages only

    def main():
        payload = bytes(range(256)) * 64  # 16 KB
        yield from cl.write_file("/f", payload)
        yield from cl.drain()
        data = yield from cl.read_file("/f")
        assert data == payload
        return cl.pages.counts.evictions

    assert run(sim, main()) > 0


def test_sequential_read_triggers_read_ahead():
    sim, fs, prog, cl = build(read_ahead=3)

    def main():
        payload = b"r" * (4096 * 8)
        f = yield from cl.write_file("/f", payload)
        yield from cl.drain()
        cl.pages.drop_file(f.fileid)
        f = yield from cl.open("/f")
        yield from cl.read(f, 0, 4096)
        yield from cl.drain()  # let read-ahead land
        # blocks 1..3 should be resident without explicit reads
        return [(f.fileid, b) in cl.pages for b in (1, 2, 3)]

    assert run(sim, main()) == [True, True, True]


def test_concurrent_same_block_fetch_coalesces():
    sim, fs, prog, cl = build(read_ahead=0)

    def main():
        f = yield from cl.write_file("/f", b"x" * 4096)
        yield from cl.drain()
        cl.pages.drop_file(f.fileid)
        f = yield from cl.open("/f")
        reads_before = prog.ops[Proc.READ]
        from repro.sim.process import all_of

        procs = [sim.spawn(cl.read(f, 0, 4096)) for _ in range(5)]
        results = yield all_of(sim, procs)
        assert all(r == b"x" * 4096 for r in results)
        return prog.ops[Proc.READ] - reads_before

    assert run(sim, main()) == 1


def test_write_behind_batches_then_commits():
    sim, fs, prog, cl = build()

    def main():
        f = yield from cl.open("/f", create=True)
        for i in range(8):
            yield from cl.write(f, i * 4096, b"w" * 4096)
        commits_before = prog.ops[Proc.COMMIT]
        yield from cl.close(f)
        assert prog.ops[Proc.COMMIT] - commits_before == 1
        # durable after close
        node = fs.resolve("/f")
        assert node.size == 8 * 4096

    run(sim, main())


def test_setattr_size_keeps_the_dirty_bytes_below_it():
    """SETATTR(size) over a dirty block cuts or extends it, never drops
    it: it is the only copy of the write."""
    sim, fs, prog, cl = build()

    def main():
        f = yield from cl.open("/f", create=True)
        yield from cl.write(f, 0, b"A" * 100)
        yield from cl.setattr("/f", Sattr3(size=200))
        yield from cl.close(f)
        data = yield from cl.read_file("/f")
        assert data == b"A" * 100 + bytes(100)
        node = fs.resolve("/f")
        assert fs.read(node.fileid, 0, 300, Credentials(1000, 1000))[0] == data
        assert cl.pages.dirty_bytes == 0

    run(sim, main())


def test_setattr_size_is_not_undone_by_an_eviction_while_it_is_sent():
    """A dirty block past the new size is gone before the SETATTR goes
    out: an insert of another file in that round trip cannot evict it
    to a WRITE that lands after the SETATTR and regrows the file."""
    sim, fs, prog, cl = build(cache_bytes=8192, read_ahead=0)
    a, b = (run(sim, cl.open(f"/{name}", create=True)) for name in "ab")
    run(sim, cl.write(a, 0, b"A" * 4096))
    call, inserts = cl._call, []

    def call_and_insert(proc, args):
        if proc == Proc.SETATTR:
            # two blocks of /b fill the cache while the SETATTR is on the
            # wire: /a's dirty block, if still cached, is their victim
            inserts.append(sim.spawn(cl.write(b, 0, b"B" * 8192)))
        return (yield from call(proc, args))

    cl._call = call_and_insert
    run(sim, cl.setattr("/a", Sattr3(size=0)))
    cl._call = call
    sim.run_until_complete(inserts[0])
    for f in (a, b):
        run(sim, cl.close(f))
    run(sim, cl.drain())
    assert fs.resolve("/a").size == 0
    assert run(sim, cl.read_file("/a")) == b""


def test_an_evicted_dirty_block_reads_back_while_its_write_is_in_flight():
    """A READ right after a dirty block's eviction gets the written
    bytes, not the server's older ones, and nothing stale stays cached."""
    sim, fs, prog, cl = build(cache_bytes=8192, read_ahead=0)

    def main():
        yield from cl.write_file("/f", bytes(3 * 4096))
        f = yield from cl.open("/f")
        for block, byte in enumerate(b"XYZ"):  # the third evicts block 0
            yield from cl.write(f, block * 4096, bytes([byte]) * 4096)
        assert (yield from cl.read(f, 0, 4096)) == b"X" * 4096
        yield from cl.close(f)
        f = yield from cl.open("/f")
        assert (yield from cl.read(f, 0, 4096)) == b"X" * 4096
        yield from cl.close(f)

    run(sim, main())


def test_a_short_block_reads_zeros_up_to_the_files_size():
    """A block cut by SETATTR, or one the server lacks under local writes
    past it, reads as zeros up to the size the writes gave the file."""
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/f", b"x" * 8192)
        yield from cl.setattr("/f", Sattr3(size=1000))
        f = yield from cl.open("/f")
        yield from cl.write(f, 4096, b"y")  # block 0 stays cut at 1000 bytes
        yield from cl.write(f, 3 * 4096, b"z")  # block 2: a hole, nowhere
        assert (yield from cl.read(f, 0, 4096)) == b"x" * 1000 + bytes(3096)
        assert (yield from cl.read(f, 2 * 4096, 4096)) == bytes(4096)
        yield from cl.close(f)

    run(sim, main())


def test_close_to_open_revalidation_sees_external_change():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/f", b"version-one")
        data = yield from cl.read_file("/f")
        assert data == b"version-one"
        # another client (out of band) rewrites the file
        yield sim.timeout(1.0)
        node = fs.resolve("/f")
        from repro.vfs.fs import Credentials

        fs.setattr(node.fileid, Credentials(1000, 1000), size=0)
        fs.write(node.fileid, 0, b"version-TWO", Credentials(1000, 1000))
        # reopening must revalidate and fetch fresh data
        data = yield from cl.read_file("/f")
        assert data == b"version-TWO"

    run(sim, main())


def test_truncate_via_open():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/f", b"long content here")
        f = yield from cl.open("/f", truncate=True)
        assert f.size == 0
        yield from cl.close(f)
        attr = yield from cl.stat("/f")
        assert attr.size == 0

    run(sim, main())


def test_setattr_chmod():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/f", b"x")
        yield from cl.setattr("/f", Sattr3(mode=0o600))
        attr = yield from cl.stat("/f")
        assert attr.mode == 0o600

    run(sim, main())


def test_symlink_via_client():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/target", b"t")
        yield from cl.symlink("/ln", "target")
        assert (yield from cl.readlink("/ln")) == "target"
        with pytest.raises(NfsClientError):
            yield from cl.readlink("/target")

    run(sim, main())


def test_hard_link_via_client():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/orig", b"shared-bytes")
        yield from cl.link("/orig", "/alias")
        data = yield from cl.read_file("/alias")
        assert data == b"shared-bytes"
        attr = yield from cl.stat("/alias")
        assert attr.nlink == 2

    run(sim, main())


def test_access_results_cached():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/f", b"x")
        yield from cl.access("/f", 0x1)
        before = prog.ops[Proc.ACCESS]
        yield from cl.access("/f", 0x2)
        return prog.ops[Proc.ACCESS] - before

    assert run(sim, main()) == 0


def test_stale_handle_after_out_of_band_remove():
    sim, fs, prog, cl = build()

    def main():
        yield from cl.write_file("/f", b"x")
        f = yield from cl.open("/f")
        node = fs.resolve("/f")
        from repro.vfs.fs import Credentials

        fs.remove(1, "f", Credentials(1000, 1000))
        cl.pages.drop_file(f.fileid)
        with pytest.raises(NfsClientError) as e:
            yield from cl.read(f, 0, 4096)
        assert e.value.status == Status.STALE

    run(sim, main())


def test_nfsv4_flavor_serves_same_semantics():
    sim = Simulator()
    net = Network(sim)
    c = Host(sim, net, "c")
    s = Host(sim, net, "s")
    net.connect("c", "s", latency=0.0005)
    fs = VirtualFS(clock=lambda: sim.now, root_uid=1000, root_gid=1000)
    from repro.nfs.v4 import NFS_V4, NfsV4ServerProgram

    prog = NfsV4ServerProgram(sim, fs, DiskModel(sim))
    server = RpcServer(sim, cpu=s.cpu)
    server.register(prog)
    server.serve_listener(s.listen(2049))

    def main():
        sock = yield from c.connect("s", 2049)
        rpc = RpcClient(sim, StreamTransport(sock), NFS_PROGRAM, NFS_V4, cpu=c.cpu)
        cl = NfsClient(sim, rpc, prog.root_handle(), AuthSys(uid=1000, gid=1000))
        yield from cl.write_file("/v4file", b"compound")
        return (yield from cl.read_file("/v4file"))

    assert sim.run_until_complete(sim.spawn(main())) == b"compound"


@pytest.mark.parametrize("proc, unpack, expected", [
    (Proc.FSSTAT, pr.unpack_fsstat_res,
     lambda fs: (fs.capacity_bytes, fs.capacity_bytes - fs.used_bytes(), 1_000_000)),
    (Proc.FSINFO, pr.unpack_fsinfo_res, lambda fs: (32768, 32768)),
    (Proc.PATHCONF, pr.unpack_pathconf_res,
     lambda fs: (32, 255, True, False, False, True)),
], ids=["fsstat", "fsinfo", "pathconf"])
def test_fs_information_procedures_on_live_and_stale_handles(proc, unpack, expected):
    """FSSTAT, FSINFO and PATHCONF through nfsd: a live handle is
    answered OK with the export's values; the handle of a removed file
    STALE, encoded byte for byte as the reference codec's error result."""
    sim = Simulator()
    fs = VirtualFS(clock=lambda: sim.now, root_uid=1000, root_gid=1000)
    prog = NfsServerProgram(sim, fs, DiskModel(sim))
    owner = Credentials(1000, 1000)
    node = fs.create(fs.root.fileid, "f", owner)
    fs.write(node.fileid, 0, b"x" * 5000, owner)
    fh = FileHandle(fs.fsid, node.fileid, node.generation)
    call = CallMessage(1, NFS_PROGRAM, NFS_V3, int(proc),
                       AuthSys(uid=1000, gid=1000).to_opaque())

    def ask():
        return (yield from prog.handle(int(proc), pr.pack_getattr_args(fh), call, None))

    live = unpack(run(sim, ask()))
    assert live[0] == NfsStatus.OK
    assert live[-len(expected(fs)):] == expected(fs)
    fs.remove(fs.root.fileid, "f", owner)
    assert run(sim, ask()) == ref.error_result(proc, NfsStatus.STALE)
