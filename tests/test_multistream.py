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
from repro.harness import Scenario, run
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


@pytest.mark.parametrize("streams", [4, 1])
def test_a_lone_write_behind_is_measured_against_the_calls_that_flush(streams):
    """A write pass's first bulk sample is a lone FILE_SYNC WRITE, and
    nfsd flushes before it answers, as it does for a CREATE; burst
    members (UNSTABLE, one COMMIT a share) do not.  Measured against the
    small mutations, that sample seeds a 4-stream 80 ms leg's pipe past
    16 blocks (16 when it was measured against every small call).  A
    single-stream leg sends the WRITE bare, FILE_SYNC, at a window of one."""
    from repro.nfs import protocol as pr

    tb = Testbed.build(rtt=0.080)
    mount = setup_sgfs(tb, disk_cache=True, streams=streams, cache_capacity=4 * BS)
    proxy = mount.client_proxy
    leg = proxy._up.legs[0]
    burst, first = leg.burst, []

    def noting(calls):
        replies = yield from burst(calls)
        if not first:
            first.append((len(calls), pr.unpack_write_args(calls[0].args)[2],
                          proxy.stats["compound_envelopes"], leg.window()))
        return replies

    leg.burst = noting

    def job():
        yield from mount.client.write_file("/w.bin", _pattern(16 * BS))
        yield from mount.finish()

    tb.run(job())
    lone, stable, envelopes, window = first[0]
    assert (lone, stable, envelopes) == (1, pr.FILE_SYNC, 0)
    assert window > 16 if streams > 1 else window == 1


def test_a_demand_miss_sends_the_read_ahead_span_with_it():
    """The first READ of a file misses; its demand burst and the
    read-ahead span behind it leave in the same instant, so when the
    demand burst leaves, the span's blocks past its window are already
    in flight — not a round trip later, after the demand lands.  The
    span, demand window included, is the one a READ keeps ahead."""
    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4)
    payload = _pattern(32 * BS)
    fileid = _seed_server_file(tb, "d.bin", payload).fileid
    proxy = mount.client_proxy
    window, depth = 4, 2
    proxy._pipeline = lambda read=False: (window, depth)
    leg = proxy._up.legs[0]
    burst, seen = leg.burst, []

    def noting(calls):
        if not seen:
            seen.append([proxy._blocks.state(fileid, b) for b in range(32)])
        return (yield from burst(calls))

    leg.burst = noting
    assert tb.run(mount.client.read_file("/d.bin")) == payload
    span = (depth + 1) * window
    assert seen[0][window:span] == ["fetching"] * (span - window)
    assert seen[0][span:] == ["absent"] * (32 - span)


def test_a_write_behind_window_leaves_as_one_burst():
    """The window of victims ``slot`` admits leaves as one burst, even
    when the pipe shrinks between the eviction and the send: each
    ``cproxy-writebehind`` process calls ``leg.burst`` once, with every
    block it was admitted with, and no writer waiting in ``slot`` joins a
    burst that left after its wait began (a window re-sized in the
    process went out as 4 + 4, its tail a round trip later)."""
    from repro.nfs import protocol as pr

    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4, cache_capacity=16 * BS)
    proxy, sim = mount.client_proxy, tb.sim
    pipeline = [(8, 2)]
    proxy._pipeline = lambda read=False: pipeline[0]
    blocks, leg = proxy._blocks, proxy._up.legs[0]
    write, track, slot, join = blocks.write, blocks.track, blocks.slot, blocks.join
    burst = leg.burst
    admitted, sent, waits, slotted = {}, {}, [], []

    def writing(fileid, block, data):
        pipeline[0] = (8, 2)  # each eviction admits a window of 8 ...
        return (yield from write(fileid, block, data))

    def tracking(proc, keys, writes):
        if writes:
            admitted[proc] = frozenset(keys)
            pipeline[0] = (4, 2)  # ... and the pipe shrinks before it leaves
        track(proc, keys, writes)

    def noting(calls):
        keys = set()
        for call in calls:
            fh, offset = pr.unpack_write_args(call.args)[:2]
            keys.add((fh.fileid, offset // BS))
        proc = next((p for p in reversed(admitted) if keys <= admitted[p]), None)
        if proc is not None:
            sent.setdefault(proc, []).append((sim.now, keys))
        return (yield from burst(calls))

    def slotting(victims, depth):
        slotted.append(sim.now)
        try:
            return (yield from slot(victims, depth))
        finally:
            slotted.pop()

    def joining(proc):
        if slotted:
            waits.append((slotted[-1], proc))
        yield from join(proc)

    blocks.write, blocks.track, blocks.slot, blocks.join = writing, tracking, slotting, joining
    leg.burst = noting
    payload = _pattern(64 * BS)

    def job():
        yield from mount.client.write_file("/w.bin", payload)
        yield from mount.finish()

    tb.run(job())
    assert len(admitted) > 2 and waits
    assert {p: [keys for _t, keys in out] for p, out in sent.items()} == \
        {p: [keys] for p, keys in admitted.items()}
    assert all(t <= began for began, p in waits for t, _keys in sent[p])
    assert bytes(tb.fs.resolve("/w.bin", ROOT).data) == payload


def _logged_bursts(mount):
    """Wrap the mount's home leg's ``burst``: returns the list it fills
    with one ``(blocks, bursts landed before it, bursts in flight
    beside it, the proxy's write sizing)`` per burst, in issue order."""
    proxy = mount.client_proxy
    leg = proxy._up.legs[0]
    burst, log, landed = leg.burst, [], [0]

    def noting(calls):
        log.append((len(calls), landed[0], leg._bursting, proxy._pipeline()))
        try:
            return (yield from burst(calls))
        finally:
            landed[0] += 1

    leg.burst = noting
    return log


def test_write_behind_reaches_its_cache_bound_sizing_in_seven_landed_bursts():
    """12 MiB written through a 4 MiB cache at 80 ms: write-behind starts
    with two lone WRITEs, the first bulk sample, and bursts of the
    sizing a cache of 128 blocks gives the widest pipe, (16, 6), from
    the seventh burst landed after that sample on.  Startup keeps three
    pipes in flight while the rate grows (bursts of 18, five deep, at
    the first measured pipe of 29); keeping two took nine landed bursts
    (29 two deep, then 21 four deep)."""
    tb = Testbed.build(rtt=0.08)
    mount = setup_sgfs(tb, disk_cache=True, streams=4, cache_capacity=4 * MB)
    log = _logged_bursts(mount)
    payload = _pattern(12 * MB)

    def job():
        yield from mount.client.write_file("/w.bin", payload)
        yield from mount.finish()

    tb.run(job())
    assert [n for n, *_ in log[:2]] == [1, 1]
    assert log[2][3] == (18, 5)
    steady = next(landed for _n, landed, _beside, sizing in log if sizing == (16, 6))
    assert steady - 1 <= 7
    assert all(sizing == (16, 6) for _n, landed, _b, sizing in log if landed >= steady)
    assert bytes(tb.fs.resolve("/w.bin", ROOT).data) == payload


@pytest.mark.parametrize("streams", [4, 1])
def test_teardown_writes_back_in_windows_read_off_the_disk_in_runs(streams):
    """2 MiB written into a cache that holds it, then teardown: a 4-stream
    leg writes it back through write-behind's windows, more than one
    burst in flight, each window read off the cache disk in one access.
    A single-stream leg writes back as the paper's proxy does: one block
    per burst, one burst in flight, one disk access per block."""
    tb = Testbed.build(rtt=0.08)
    mount = setup_sgfs(tb, disk_cache=True, streams=streams)
    disk = mount.client_proxy._blocks.disk
    log = _logged_bursts(mount)
    payload = _pattern(2 * MB)
    nblocks = len(payload) // BS

    def job():
        yield from mount.client.write_file("/t.bin", payload)
        reads = disk.reads
        del log[:]
        yield from mount.finish()
        return disk.reads - reads

    reads = tb.run(job())
    stats = mount.client_proxy.stats
    assert stats["writeback_blocks"] == nblocks and stats["writeback_errors"] == 0
    assert sum(n for n, *_ in log) == nblocks
    if streams == 1:
        assert log == [(1, landed, 0, (1, 1)) for landed in range(nblocks)]
        assert reads == nblocks
    else:
        assert max(beside for _n, _l, beside, _s in log) >= 2
        assert reads == len(log) < nblocks
    assert bytes(tb.fs.resolve("/t.bin", ROOT).data) == payload


@pytest.mark.parametrize("streams", [2, 8])
def test_a_read_pass_demand_misses_only_its_first_block(monkeypatch, streams):
    """16 MiB through a 6 MiB cache at 80 ms: the read-ahead cursor
    passes blocks the write left cached, and some are evicted before the
    reader gets there.  Each eviction below the cursor pulls it back, so
    read-ahead claims them again and each read pass demand-misses only
    its first block (the first pass's reader missed block 383 itself at
    8 streams when the pipe started at one block, and block 405 at 2
    streams when the cursor stayed where it was)."""
    from repro.proxy.client_proxy import SgfsClientProxy
    from repro.workloads.iozone import IOzoneWriteRead

    read_window, demanded = SgfsClientProxy._read_window, []

    def noting(self, call, fh, block, count):
        demanded.append(block)
        return (yield from read_window(self, call, fh, block, count))

    monkeypatch.setattr(SgfsClientProxy, "_read_window", noting)
    r = run(Scenario("sgfs-aes", rtt=0.08, disk_cache=True, streams=streams,
                     cache_capacity=6 * MB),
            lambda: IOzoneWriteRead(file_size=16 * MB))
    assert demanded == [0, 0]  # the read pass's, then the reread's
    assert r.stats["proxy.client"]["prefetch_evicted_unread"] == 0


# -- satellite: writeback_errors is pre-seeded -------------------------------


def test_clean_run_reports_zero_writeback_errors():
    r = run(Scenario("sgfs-aes", disk_cache=True), _iozone)
    # the key must exist (pre-seeded at init), not appear lazily on the
    # first error
    assert r.stats["proxy.client"]["writeback_errors"] == 0


# -- same-seed bit-identity across stream counts -----------------------------


@pytest.mark.parametrize("streams", [1, 2, 4])
def test_same_seed_bit_identical_single_server(streams):
    s = Scenario("sgfs-aes", rtt=0.04, disk_cache=True, streams=streams)
    assert _fp(run(s, _iozone)) == _fp(run(s, _iozone))


@pytest.mark.parametrize("streams", [1, 2, 4])
def test_same_seed_bit_identical_grid_fleet(streams):
    s = Scenario("sgfs-aes", clients=2, rtt=0.04, servers=2, streams=streams)
    a, b = run(s, _iozone), run(s, _iozone)
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
    mount = setup_sgfs(tb, disk_cache=True, streams=4)
    mount.client_proxy.blocking = mount.server_proxy.blocking = blocking
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
    def once():
        return run(Scenario("sgfs-aes", rtt=0.04, disk_cache=True, streams=4,
                            faults="lossy-wan", fault_seed="ms-determinism"),
                   lambda: IOzoneReadReread(file_size=256 * KB))

    a, b = once(), once()
    assert _fp(a) == _fp(b)
    assert a.stats["faults"]["dropped"] > 0


# -- two-phase write-back: durable when the burst lands ----------------------


@pytest.mark.parametrize("servers", [1, 2])
def test_landed_write_back_leaves_nothing_uncommitted(monkeypatch, servers):
    """A 4-stream cached IOzone write/read, on one server (the file four
    times the cache, so write-behind runs) and as a 2-server grid fleet:
    whenever no write-back is in flight, and at teardown, no nfsd holds
    UNSTABLE data a COMMIT has not covered.  Both write in two phases:
    the grid's burst rides each leg's engine."""
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
        run(Scenario("sgfs-aes", rtt=0.04, disk_cache=True, streams=4,
                     cache_capacity=16 * BS),
            lambda: IOzoneWriteRead(file_size=64 * BS))
    else:
        run(Scenario("sgfs-aes", clients=2, rtt=0.04, servers=2, streams=4,
                     disk_cache=True),
            lambda: IOzoneWriteRead(file_size=16 * BS))
    assert pr.UNSTABLE in stables
    assert checks and not any(checks)
    assert not uncommitted()


# -- the streams sweep ---------------------------------------------------------
# A 16 MiB IOzone write/read through a 6 MiB proxy cache, streams 1, 2,
# 4 and 8.  When the write-behind window was sized by delivered rate
# alone, an 8-stream leg at 20 ms wrote at half the 4-stream speed: the
# window stuck below the channel count, each channel's share was one
# FILE_SYNC WRITE, and the slow sync writes kept the rate estimate down.


@pytest.mark.parametrize("rtt", [0.02, 0.08], ids=["20ms", "80ms"])
def test_more_streams_never_write_slower(rtt):
    """Neither writes nor reads slow down as streams rise, and no block
    read ahead is evicted unread."""
    from repro.workloads.iozone import IOzoneWriteRead

    size = 16 * MB
    rows = []
    for streams in (1, 2, 4, 8):
        r = run(Scenario("sgfs-aes", rtt=rtt, disk_cache=True, streams=streams,
                         cache_capacity=6 * MB),
                lambda: IOzoneWriteRead(file_size=size))
        assert r.stats["proxy.client"]["prefetch_evicted_unread"] == 0
        rows.append((streams, size / r.phases["write"], size / r.phases["read"]))
    for (_s, write, read), (_t, wider_write, wider_read) in zip(rows, rows[1:]):
        assert wider_write >= write, rows
        assert wider_read >= read, rows


@pytest.mark.parametrize("streams", [1, 4])
def test_the_cache_disk_reads_a_cached_file_in_runs_of_a_read_window(streams):
    """Rereading a file the write left in the proxy's cache costs one
    cache-disk access per read window of blocks, plus the attributes'
    one: a block per access on a single-stream leg, as the paper's
    proxy.  The bytes off the disk are the same either way."""
    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=streams)
    cl = mount.client
    disk = mount.client_proxy._blocks.disk
    payload = _pattern(16 * BS)

    def job():
        f = yield from cl.write_file("/r.bin", payload)
        yield from mount.finish()
        cl.pages.drop_file(f.fileid)  # the reread reaches the proxy
        reads, nbytes = disk.reads, disk.bytes_read
        got = yield from cl.read_file("/r.bin")
        return got, disk.reads - reads, disk.bytes_read - nbytes

    got, reads, nbytes = tb.run(job())
    window = mount.client_proxy._pipeline(read=True)[0]
    assert got == payload
    assert window == 1 if streams == 1 else window > 1
    assert reads == -(-16 // window) + 1
    assert 16 * BS < nbytes <= 16 * BS + 256


# -- the engine actually pays its way ----------------------------------------


def test_wan_read_throughput_gain():
    iozone = lambda: IOzoneReadReread(file_size=4 * MB)
    s1 = run(Scenario("sgfs-aes", rtt=0.080, disk_cache=True), iozone)
    s4 = run(Scenario("sgfs-aes", rtt=0.080, disk_cache=True, streams=4), iozone)
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
        f = yield from cl.write_file("/q.bin", payload)
        cl.pages.drop_file(f.fileid)
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
        # a 4-block pipe: 8-block bursts, two blocks a channel
        leg.srtt_small, leg.srtt_bulk = 0.040, 0.050
        # fetches blocks 0-7 and spawns read-ahead of 8-15 ...
        yield from _read_block(proxy, fh, 0)
        # ... which has not run yet when this WRITE arrives
        assert proxy._blocks.state(fh.fileid, 9) == "fetching"
        yield from _write_block(proxy, fh, 9, newer)
        got = yield from _read_block(proxy, fh, 9)
        yield from mount.finish()
        return got

    assert tb.run(job()) == newer
    expected = payload[:9 * BS] + newer + payload[10 * BS:]
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
    mount = setup_sgfs(tb, disk_cache=True, streams=4)
    proxy = mount.client_proxy
    proxy.blocking = mount.server_proxy.blocking = False

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


def test_read_ahead_goes_out_at_half_a_window_and_stays_in_its_span():
    """Read-ahead issues the span's unclaimed tail once half a window of
    it is free, instead of waiting for a whole window while the reader
    closes in on the bursts in flight; no READ at ``block`` claims a
    block at or past ``block + 1 + (depth + 1) * window``."""
    tb = Testbed.build(rtt=0.04)
    mount = setup_sgfs(tb, disk_cache=True, streams=4)
    nblocks, window, depth = 32, 4, 2
    payload = _pattern(nblocks * BS)
    _seed_server_file(tb, "h.bin", payload)
    proxy = mount.client_proxy
    proxy._pipeline = lambda read=False: (window, depth)
    blocks = proxy._blocks
    claim, reading, claimed = blocks.claim, [0], []

    def claim_noting(fileid, wanted):
        got = claim(fileid, wanted)
        claimed.extend((reading[0], b) for b in got)
        return got

    blocks.claim = claim_noting

    def job():
        fh, _attr = yield from mount.client.resolve("/h.bin")
        got = []
        for b in range(nblocks):
            reading[0] = b
            got.append((yield from _read_block(proxy, fh, b)))
            span_end = b + 1 + (depth + 1) * window
            if b == 0:
                # the demand window 0-3, then whole windows up to the one
                # block left: less than half a window stays unclaimed
                assert blocks.ahead[fh.fileid] == span_end - 1
            if b == 1:
                # two blocks free are half a window: they go out
                assert blocks.ahead[fh.fileid] == span_end
                assert blocks.state(fh.fileid, span_end - 1) != "absent"
        yield from mount.finish()
        return b"".join(got)

    assert tb.run(job()) == payload
    assert sorted(b for _r, b in claimed) == list(range(nblocks))  # each once
    assert all(b < r + 1 + (depth + 1) * window for r, b in claimed)
    assert tb.sim.unobserved_deaths() == []
