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
- the WAN throughput win the engine exists for.
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
