"""Multi-stream WAN transfer engine: determinism, exactly-once, speedup.

``streams > 1`` gives each upstream leg parallel proxy-to-proxy
channels, RTT-sized read-ahead/write-behind windows, and compound RPC
envelopes; ``streams=1`` runs the same code at one channel and a window
of one block (its exact virtual times are pinned by the ``S1_CACHE``
goldens in ``test_golden_runtimes.py``).  These tests pin:

- the compound envelope codec,
- window sizing (1 on a single-stream leg, RTT-sized otherwise),
- same-seed bit-identity for streams in {1, 2, 4} on both a
  single-server mount and a 2-backend grid fleet,
- exactly-once server-side application when sub-channel traffic is
  dropped mid-READ / mid-WRITE (retry ladder + duplicate request cache),
- the WAN throughput win the engine exists for,
- that background read-ahead and write-behind end with the session, and
  a failed read-ahead leaves its blocks to the demand READ.
"""

import pytest

from repro.core import Testbed
from repro.core.setups import setup_sgfs
from repro.faults import FAULT_PRESETS, FaultPlan
from repro.harness import run_fleet
from repro.harness.runner import run_iozone
from repro.proxy.upstream import MAX_WINDOW, UpstreamSession
from repro.rpc.compound import MAX_MEMBERS, pack_members, unpack_members
from repro.sim import Simulator
from repro.vfs.fs import Credentials
from repro.workloads.iozone import IOzoneReadReread

ROOT = Credentials(0, 0)
KB = 1024
MB = 1024 * KB
BS = 32 * KB  # proxy cache block size (cal.block_size)
FS = 64 * KB


def _iozone():
    return IOzoneReadReread(file_size=FS)


def _fp(result):
    """Full single-run fingerprint: virtual times and every metric."""
    return (
        result.total,
        result.phases,
        result.writeback_seconds,
        result.writeback_bytes,
        result.stats,
    )


def _fleet_fp(result):
    return (
        result.makespan,
        [(c.name, c.start, c.end, sorted(c.phases.items()))
         for c in result.per_client],
        result.stats,
    )


def _seed_server_file(tb, name: str, payload: bytes):
    """Materialize a file in the exported VFS out of band, as the
    experiment setup scripts do — so reads must cross the wire."""
    cred = Credentials(tb.fs.root.uid, tb.fs.root.gid)
    node = tb.fs.create(tb.fs.root.fileid, name, cred)
    tb.fs.write(node.fileid, 0, payload, cred)
    tb.nfs_program.preload(node.fileid)
    return node


def _pattern(n: int) -> bytes:
    chunk = bytes(range(256)) * 16
    return (chunk * (n // len(chunk) + 1))[:n]


def _drc_settled(server_proxy) -> bool:
    """No in-progress or parked entries left behind in the server-side
    duplicate request cache — every retransmission was resolved."""
    return all(
        e.reply is not None and not e.waiters
        for e in server_proxy._drc._entries.values()
    )


# -- compound envelope codec -------------------------------------------------


def test_compound_members_roundtrip():
    records = [b"alpha", b"", b"x" * 1000, b"\x00\x01\x02"]
    assert unpack_members(pack_members(records)) == records
    assert unpack_members(pack_members([])) == []


def test_compound_member_cap():
    with pytest.raises(ValueError):
        pack_members([b"x"] * (MAX_MEMBERS + 1))
    # a corrupted count field must not allocate unbounded memory
    from repro.xdr import Packer

    p = Packer()
    p.pack_uint(MAX_MEMBERS + 1)
    with pytest.raises(ValueError):
        unpack_members(p.get_bytes())


# -- RTT estimator / window sizing -------------------------------------------


def test_window_is_one_until_both_estimators_sampled():
    up = UpstreamSession(Simulator(), None, streams=2)
    assert up.window() == 1
    up._observe_rtt(bulk=False, sample=0.080)
    assert up.window() == 1
    up._observe_rtt(bulk=True, sample=0.085)
    # 0.080 / (0.085 - 0.080) = 16 in-flight blocks cover the RTT
    assert up.window() == 16
    # the same estimates on a single-stream leg: the paper's proxy moves
    # one block per round trip, whatever the RTT
    s1 = UpstreamSession(Simulator(), None)
    s1.srtt_small, s1.srtt_bulk = up.srtt_small, up.srtt_bulk
    assert s1.window() == 1


def test_window_floor_when_bulk_equals_small():
    up = UpstreamSession(Simulator(), None, streams=2)
    up._observe_rtt(bulk=False, sample=0.080)
    up._observe_rtt(bulk=True, sample=0.080)  # no measurable transfer cost
    assert up.window() == MAX_WINDOW  # floored divisor -> capped


# -- satellite: writeback_errors is pre-seeded -------------------------------


def test_clean_run_reports_zero_writeback_errors():
    r = run_iozone("sgfs-aes", rtt=0.0, file_size=FS,
                   setup_kwargs={"disk_cache": True})
    # the key must exist (pre-seeded at init), not appear lazily on the
    # first error
    assert r.stats["proxy.client"]["writeback_errors"] == 0


# -- same-seed bit-identity across stream counts -----------------------------


@pytest.mark.parametrize("streams", [1, 2, 4])
def test_same_seed_bit_identical_single_server(streams):
    kw = dict(rtt=0.04, file_size=FS,
              setup_kwargs={"disk_cache": True, "streams": streams})
    assert _fp(run_iozone("sgfs-aes", **kw)) == _fp(run_iozone("sgfs-aes", **kw))


@pytest.mark.parametrize("streams", [1, 2, 4])
def test_same_seed_bit_identical_grid_fleet(streams):
    kw = dict(clients=2, rtt=0.04, servers=2, streams=streams)
    a = run_fleet("sgfs-aes", _iozone, **kw)
    b = run_fleet("sgfs-aes", _iozone, **kw)
    assert _fleet_fp(a) == _fleet_fp(b)


# -- exactly-once under sub-channel loss -------------------------------------


def test_drop_mid_read_exact_content_and_settled_drc():
    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4)
    payload = _pattern(8 * BS)
    _seed_server_file(tb, "r.bin", payload)
    # faults start after the mount so the handshakes are clean; every
    # drop hits session traffic, including engine read-ahead bursts
    plan = FaultPlan(tb.sim, FAULT_PRESETS["lossy-wan"],
                     seed="mid-read").install(tb.net)
    cl = mount.client

    def job():
        return (yield from cl.read_file("/r.bin"))

    assert tb.run(job()) == payload
    assert plan.stats["dropped"] > 0  # the adversary actually bit
    assert mount.client_proxy.stats["writeback_errors"] == 0
    assert _drc_settled(mount.server_proxy)


@pytest.mark.parametrize("blocking", [True, False])
def test_every_cached_read_counted_exactly_once(blocking):
    """A READ that lands on a block another reader's window already has
    in flight (only possible when the proxy serves calls concurrently)
    is a miss that coalesces — not a miss *and* a hit."""
    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4, blocking=blocking)
    payload = _pattern(16 * BS)
    _seed_server_file(tb, "r.bin", payload)
    cl = mount.client

    def job():
        return (yield from cl.read_file("/r.bin"))

    assert tb.run(job()) == payload
    stats = mount.client_proxy.stats
    assert stats["data_hits"] + stats["data_misses"] == len(payload) // BS
    if not blocking:
        assert stats["data_misses"] > 2  # some READs did coalesce


def test_drop_mid_write_exactly_once_server_side():
    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4)
    plan = FaultPlan(tb.sim, FAULT_PRESETS["lossy-wan"],
                     seed="mid-write").install(tb.net)
    cl = mount.client
    payload = _pattern(8 * BS)

    def job():
        yield from cl.write_file("/w.bin", payload)
        yield from mount.finish()  # flush the write-behind cache
        return True

    assert tb.run(job())
    assert bytes(tb.fs.resolve("/w.bin", ROOT).data) == payload
    stats = mount.client_proxy.stats
    # every dirty block flushed exactly once — a sub-channel dying
    # mid-WRITE must not double-count the retried block
    assert stats["writeback_blocks"] == len(payload) // BS
    assert stats["writeback_errors"] == 0
    assert plan.stats["dropped"] > 0
    assert _drc_settled(mount.server_proxy)


def test_drop_mid_read_same_seed_bit_identical():
    def run():
        return run_iozone(
            "sgfs-aes", rtt=0.04, file_size=256 * KB,
            setup_kwargs={"disk_cache": True, "streams": 4},
            faults="lossy-wan", fault_seed="ms-determinism",
        )

    a, b = run(), run()
    assert _fp(a) == _fp(b)
    assert a.stats["faults"]["dropped"] > 0


# -- two-phase write-back: durable when the burst lands ----------------------


@pytest.mark.parametrize("servers", [1, 2])
def test_landed_write_back_leaves_nothing_uncommitted(monkeypatch, servers):
    """A 4-stream cached IOzone write/read, on one server (the file four
    times the cache, so write-behind runs) and as a 2-server grid fleet:
    whenever no write-back is in flight, and at teardown, no nfsd holds
    UNSTABLE data a COMMIT has not covered.  The single mount writes in
    two phases; the grid's per-call legs write only FILE_SYNC."""
    from repro.harness import run_workload
    from repro.nfs import protocol as pr
    from repro.nfs.server import NfsServerProgram
    from repro.proxy.client_proxy import SgfsClientProxy
    from repro.workloads.iozone import IOzoneWriteRead

    nfsds, stables, checks = set(), [], []
    in_flight = [0]
    op_write, window = NfsServerProgram._op_write, SgfsClientProxy._writeback_window

    def uncommitted():
        return any(any(nfsd._dirty.values()) for nfsd in nfsds)

    def recording_write(self, args, cred):
        nfsds.add(self)
        stables.append(pr.unpack_write_args(args)[2])
        return (yield from op_write(self, args, cred))

    def checked_window(self, items):
        in_flight[0] += 1
        try:
            yield from window(self, items)
        finally:
            in_flight[0] -= 1
        if not in_flight[0]:
            checks.append(uncommitted())

    monkeypatch.setattr(NfsServerProgram, "_op_write", recording_write)
    monkeypatch.setattr(SgfsClientProxy, "_writeback_window", checked_window)
    if servers == 1:
        run_workload("sgfs-aes", lambda: IOzoneWriteRead(file_size=64 * BS),
                     rtt=0.04, setup_kwargs={"disk_cache": True, "streams": 4,
                                             "cache_capacity": 16 * BS})
        assert pr.UNSTABLE in stables
    else:
        run_fleet("sgfs-aes", lambda: IOzoneWriteRead(file_size=16 * BS),
                  clients=2, rtt=0.04, servers=2, streams=4,
                  setup_kwargs={"disk_cache": True})
        assert stables and pr.UNSTABLE not in stables
    assert checks and not any(checks)
    assert not uncommitted()


# -- the engine actually pays its way ----------------------------------------


def test_wan_read_throughput_gain():
    kw = dict(rtt=0.080, file_size=4 * MB)
    s1 = run_iozone("sgfs-aes", setup_kwargs={"disk_cache": True}, **kw)
    s4 = run_iozone("sgfs-aes",
                    setup_kwargs={"disk_cache": True, "streams": 4}, **kw)
    # RTT-sized windows across 4 sub-channels: at least 4x on the
    # serial one-block-per-RTT read phase
    assert s4.phases["read"] * 4 < s1.phases["read"]


def test_compound_batches_fire_on_windowed_flush():
    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4)
    cl = mount.client
    payload = _pattern(16 * BS)

    def job():
        yield from cl.write_file("/c.bin", payload)
        yield from mount.finish()
        return True

    assert tb.run(job())
    stats = mount.client_proxy.stats
    assert stats["writeback_blocks"] == 16
    assert stats["compound_envelopes"] >= 1
    assert stats["compound_members"] >= 2
    assert bytes(tb.fs.resolve("/c.bin", ROOT).data) == payload


# -- read-ahead and write-behind run in the background, and end ---------------


def test_no_read_ahead_or_write_behind_outlives_the_session():
    """A cached 4-stream run through a cache a quarter of the file: both
    background kinds run, and after teardown none is alive and no
    process died unobserved."""
    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4, cache_capacity=8 * BS)
    spawned = []
    spawn = tb.sim.spawn

    def recording_spawn(generator, name=""):
        spawned.append(spawn(generator, name=name))
        return spawned[-1]

    tb.sim.spawn = recording_spawn
    payload = _pattern(32 * BS)
    cl = mount.client

    def job():
        yield from cl.write_file("/q.bin", payload)
        cl.pages.clear()
        data = yield from cl.read_file("/q.bin")
        yield from mount.finish()
        return data

    assert tb.run(job()) == payload
    background = [p for p in spawned
                  if p.name in ("cproxy-readahead", "cproxy-writebehind")]
    assert {p.name for p in background} == {"cproxy-readahead", "cproxy-writebehind"}
    assert not any(p.alive for p in background)
    assert tb.sim.unobserved_deaths() == []
    proxy = mount.client_proxy
    blocks = proxy._blocks
    assert not blocks.background() and not blocks.background(writes=True)
    fileid = tb.fs.resolve("/q.bin", ROOT).fileid
    assert {blocks.state(fileid, b) for b in range(32)} <= {"absent", "clean"}
    assert proxy.stats["writeback_errors"] == 0


@pytest.mark.parametrize("failures", [1, None])
def test_failed_prefetch_leaves_its_blocks_to_the_demand_read(failures):
    """A read-ahead burst that fails caches nothing: the READ that
    reaches those blocks fetches them itself — and, when that fetch
    fails too, the error reaches the READ's caller."""
    from repro.nfs import protocol as pr
    from repro.rpc.errors import RpcTransportError
    from repro.rpc.messages import CallMessage, ReplyMessage

    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4)
    payload = _pattern(16 * BS)
    _seed_server_file(tb, "r.bin", payload)
    proxy = mount.client_proxy
    leg = proxy._up.legs[0]
    burst, left = leg.burst, [failures]

    def failing_burst(calls):
        # bursts for the second half of the file fail (``failures`` times)
        if pr.unpack_read_args(calls[0].args)[1] >= 8 * BS and left[0] != 0:
            left[0] = None if left[0] is None else left[0] - 1
            yield tb.sim.timeout(0.05)
            raise RpcTransportError("upstream lost")
        return (yield from burst(calls))

    leg.burst = failing_burst

    def read(fh, b):
        call = CallMessage(1, pr.NFS_PROGRAM, pr.NFS_V3, int(pr.Proc.READ),
                           cred=proxy._session_cred,
                           args=pr.pack_read_args(fh, b * BS, BS))
        reply = ReplyMessage.decode((yield from proxy._execute(call)))
        return pr.unpack_read_res(reply.results)[2]

    def job():
        fh, _attr = yield from mount.client.resolve("/r.bin")
        leg.srtt_small, leg.srtt_bulk = 0.040, 0.050  # a 4-block window
        got = []
        for b in range(16):
            got.append((yield from read(fh, b)))
            if b == 7:
                # the window [8, 12) was read ahead, and failed
                assert not any((fh.fileid, k) in proxy._blocks for k in range(8, 12))
        return b"".join(got)

    if failures is None:
        with pytest.raises(RpcTransportError):
            tb.run(job())
    else:
        assert tb.run(job()) == payload
    assert tb.sim.unobserved_deaths() == []


def _read_block(proxy, fh, b):
    """Process generator: one whole-block READ answered by the proxy."""
    from repro.nfs import protocol as pr
    from repro.rpc.messages import CallMessage, ReplyMessage

    call = CallMessage(1, pr.NFS_PROGRAM, pr.NFS_V3, int(pr.Proc.READ),
                       cred=proxy._session_cred,
                       args=pr.pack_read_args(fh, b * BS, BS))
    reply = ReplyMessage.decode((yield from proxy._execute(call)))
    return pr.unpack_read_res(reply.results)[2]


def _write_block(proxy, fh, b, data):
    """Process generator: one whole-block WRITE answered by the proxy."""
    from repro.nfs import protocol as pr
    from repro.rpc.messages import CallMessage

    call = CallMessage(1, pr.NFS_PROGRAM, pr.NFS_V3, int(pr.Proc.WRITE),
                       cred=proxy._session_cred,
                       args=pr.pack_write_args(fh, b * BS, data, pr.UNSTABLE))
    yield from proxy._execute(call)


def test_write_in_the_instant_read_ahead_starts_is_not_overwritten():
    """The READ that spawns a read-ahead burst claims its blocks before
    the burst runs: a WRITE to one of them in the same instant waits for
    the fetch and lands on top of it, instead of being replaced by the
    server's older bytes when the fetch lands."""
    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4)
    payload = _pattern(16 * BS)
    _seed_server_file(tb, "a.bin", payload)
    proxy = mount.client_proxy
    leg = proxy._up.legs[0]
    newer = b"\x5a" * BS

    def job():
        fh, _attr = yield from mount.client.resolve("/a.bin")
        leg.srtt_small, leg.srtt_bulk = 0.040, 0.050  # a 4-block window
        # fetches blocks 0-3 and spawns read-ahead of 4-7 and 8-11 ...
        yield from _read_block(proxy, fh, 0)
        # ... which has not run yet when this WRITE arrives
        assert proxy._blocks.state(fh.fileid, 5) == "fetching"
        yield from _write_block(proxy, fh, 5, newer)
        got = yield from _read_block(proxy, fh, 5)
        yield from mount.finish()
        return got

    assert tb.run(job()) == newer
    expected = payload[:5 * BS] + newer + payload[6 * BS:]
    assert bytes(tb.fs.resolve("/a.bin", ROOT).data) == expected
    assert proxy.stats["writeback_errors"] == 0
    assert tb.sim.unobserved_deaths() == []


def test_concurrent_unaligned_writes_to_one_block_both_survive():
    """Two 10-byte WRITEs into one cached block, served at once by a
    non-blocking proxy: each merges over the block's bytes as they stand
    after its cache-disk read, so the second keeps the first's bytes."""
    from repro.nfs import protocol as pr
    from repro.rpc.messages import CallMessage

    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4, blocking=False)
    proxy = mount.client_proxy

    def write(fh, offset, data):
        call = CallMessage(1, pr.NFS_PROGRAM, pr.NFS_V3, int(pr.Proc.WRITE),
                           cred=proxy._session_cred,
                           args=pr.pack_write_args(fh, offset, data, pr.UNSTABLE))
        yield from proxy._execute(call)

    def job():
        f = yield from mount.client.open("/u.bin", create=True)
        yield from write(f.fh, 0, b"A" * BS)
        both = [tb.sim.spawn(write(f.fh, 10, b"B" * 10)),
                tb.sim.spawn(write(f.fh, 100, b"C" * 10))]
        for proc in both:
            yield proc
        got = yield from _read_block(proxy, f.fh, 0)
        yield from mount.finish()
        return got

    expected = bytearray(b"A" * BS)
    expected[10:20], expected[100:110] = b"B" * 10, b"C" * 10
    assert tb.run(job()) == expected
    assert bytes(tb.fs.resolve("/u.bin", ROOT).data) == expected


def test_read_ahead_never_swallows_a_failed_write_behind():
    """Write-behind fails for good while a read-ahead burst evicts: the
    eviction joins the failed burst, and its error reaches teardown
    instead of ending with the read-ahead process."""
    from repro.nfs import protocol as pr
    from repro.rpc.errors import RpcTransportError

    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4, cache_capacity=4 * BS)
    _seed_server_file(tb, "r.bin", _pattern(16 * BS))
    proxy = mount.client_proxy
    leg = proxy._up.legs[0]
    burst = leg.burst

    def writes_fail(calls):
        if calls[0].proc == int(pr.Proc.WRITE):
            yield tb.sim.timeout(0.05)
            raise RpcTransportError("upstream lost")
        return (yield from burst(calls))

    leg.burst = writes_fail

    def job():
        rfh, _attr = yield from mount.client.resolve("/r.bin")
        w = yield from mount.client.open("/w.bin", create=True)
        leg.srtt_small, leg.srtt_bulk = 0.040, 0.050  # a 4-block window
        for b in range(5):
            # the fifth block evicts blocks 0-2: their burst fails
            yield from _write_block(proxy, w.fh, b, bytes([b + 1]) * BS)
        yield from _write_block(proxy, w.fh, 0, b"\x09" * BS)
        yield tb.sim.timeout(0.1)
        (failed,) = proxy._blocks.background(writes=True)
        assert failed.completion.failed
        # r's block 0 is cached (LRU: w3 w4 w0 r0): a hit, then read-ahead
        # of r's blocks 1-12, whose first insert evicts w3 w4 w0 — and
        # block 0 must wait for the failed burst that carried its write
        yield from proxy._blocks.fill(rfh.fileid, 0, _pattern(BS))
        yield from _read_block(proxy, rfh, 0)
        yield tb.sim.timeout(1.0)
        assert not proxy._blocks.background(writes=True)  # the read-ahead joined it
        yield from mount.finish()

    with pytest.raises(RpcTransportError):
        tb.run(job())
    assert tb.sim.unobserved_deaths() == []
