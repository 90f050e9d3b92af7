"""Sharded data plane: placement math, metadata epochs, striped fleets,
replicated crash failover."""

import itertools

import pytest

from repro.core.topology import Testbed
from repro.faults import CrashEvent, FaultSpec
from repro.grid import GridLayout, GridMetadataService, GridRouter
from repro.harness import Scenario, run
from repro.net.errors import ConnectionRefused
from repro.nfs.protocol import Sattr3
from repro.sim.core import Simulator
from repro.tls import HandshakeError
from repro.workloads.churn import SessionChurn
from repro.workloads.iozone import IOzoneWriteRead
from repro.workloads.mab import ModifiedAndrewBenchmark
from repro.workloads.postmark import PostMark, PostMarkConfig

FS = 256 * 1024
GRID_KW = dict(grid_block_size=32 * 1024, cache_bytes=64 * 1024)


def _wr():
    return IOzoneWriteRead(file_size=FS)


def _fingerprint(result):
    return (
        result.makespan,
        [(c.name, c.start, c.end, sorted(c.phases.items()), c.bytes_moved)
         for c in result.per_client],
        result.stats,
    )


# -- placement math ------------------------------------------------------------


def test_layout_validation():
    with pytest.raises(ValueError):
        GridLayout(width=0)
    with pytest.raises(ValueError):
        GridLayout(width=2, replicas=3)
    with pytest.raises(ValueError):
        GridLayout(width=2, replicas=0)
    with pytest.raises(ValueError):
        GridLayout(width=2, block_size=0)


def test_layout_owners_round_robin_and_failover_order():
    lay = GridLayout(width=4, replicas=2, block_size=1024)
    assert lay.primary(fileid=7, block=0) == 3
    assert lay.primary(fileid=7, block=1) == 0
    # primary first, then the next backends mod width
    assert lay.owners(fileid=7, block=0) == [3, 0]
    assert lay.owners(fileid=7, block=2) == [1, 2]
    # placement never depends on anything but (fileid, block, width, replicas)
    assert lay.owners(7, 2) == GridLayout(4, 2, 4096).owners(7, 2)


def test_layout_spans_split_at_block_boundaries():
    lay = GridLayout(width=2, block_size=100)
    # inside one block
    assert lay.spans(10, 50) == [(0, 10, 50)]
    # exactly one block
    assert lay.spans(100, 100) == [(1, 100, 100)]
    # straddling a boundary: offsets stay absolute
    assert lay.spans(90, 30) == [(0, 90, 10), (1, 100, 20)]
    # many blocks, ascending order, lengths sum to count
    spans = lay.spans(45, 333)
    assert [b for b, _o, _l in spans] == [0, 1, 2, 3]
    assert sum(l for _b, _o, l in spans) == 333
    assert spans[0] == (0, 45, 55)
    assert spans[-1] == (3, 300, 78)
    # empty range
    assert lay.spans(40, 0) == []


# -- metadata service ----------------------------------------------------------


def test_metadata_epoch_semantics():
    svc = GridMetadataService(width=3, replicas=2, block_size=4096)
    v = svc.get_layout(42)
    assert (v.epoch, v.striped) == (1, False)
    v = svc.register(42)
    assert (v.epoch, v.striped) == (1, True)
    # registration is idempotent and does not bump the epoch
    assert svc.register(42).epoch == 1
    assert svc.stats["registrations"] == 1
    assert svc.get_layout(42).striped is True

    # a dead backend bumps the epoch exactly once
    v = svc.mark_dead(1)
    assert v.epoch == 2 and v.dead == (1,)
    assert svc.mark_dead(1).epoch == 2  # idempotent
    assert svc.mark_dead(99).epoch == 2  # out of range: ignored
    assert svc.stats["epoch_bumps"] == 1

    v = svc.forget(42)
    assert v.striped is False and v.epoch == 2
    assert svc.get_layout(42).striped is False


# -- striped fleets ------------------------------------------------------------


def test_striped_fleet_completes_and_reports_grid_stats():
    r = run(Scenario("sgfs-sha", clients=2, servers=2, **GRID_KW), _wr)
    assert all(c.bytes_moved == 3 * FS for c in r.per_client)
    g = r.stats["grid"]
    assert g["striped_reads"] > 0 and g["striped_writes"] > 0
    assert g["spans_read"] > 0 and g["spans_written"] > 0
    # healthy run: no failover, no data loss, no degraded replication
    assert g["read_failovers"] == 0
    assert g["hole_spans"] == 0
    assert g["degraded_writes"] == 0
    assert r.stats["grid.meta"]["registrations"] == 2


def test_striped_fleet_bit_identical_same_seed():
    kw = dict(clients=2, servers=2, **GRID_KW)
    a = run(Scenario("sgfs-sha", **kw), _wr)
    b = run(Scenario("sgfs-sha", **kw), _wr)
    assert _fingerprint(a) == _fingerprint(b)


def test_single_server_run_has_no_grid_plane():
    # servers=1 is a width-1 router: no metadata service, no grid stats
    # -- and identical results to the default.
    legacy = run(Scenario("sgfs-sha", clients=2, cache_bytes=GRID_KW["cache_bytes"]),
                 _wr)
    one = run(Scenario("sgfs-sha", clients=2, servers=1, **GRID_KW), _wr)
    assert "grid" not in one.stats and "grid.meta" not in one.stats
    assert _fingerprint(one) == _fingerprint(legacy)


def test_striping_spreads_load_across_backends():
    r = run(Scenario("sgfs-aes", clients=4, servers=2, **GRID_KW), _wr)
    rpc = r.stats["rpc.server"]
    calls = {s: rpc.get(f"calls{{server={s}}}", 0) for s in ("nfsd", "nfsd-s1")}
    assert calls["nfsd-s1"] > 0, f"backend s1 served nothing: {rpc}"


def test_grid_validation():
    with pytest.raises(ValueError):
        run(Scenario("sgfs-sha", clients=2, servers=0), _wr)
    with pytest.raises(ValueError):
        run(Scenario("sgfs-sha", clients=2, servers=2, replicas=3), _wr)
    with pytest.raises(ValueError):
        # the grid data plane needs the proxy stack
        run(Scenario("nfs-v3", clients=2, servers=2), _wr)


# -- replication and crash failover --------------------------------------------

CRASH = FaultSpec(
    crashes=(CrashEvent(at=0.05, target="backend1", down_for=10.0),),
)


def test_replicated_fleet_survives_backend_crash():
    r = run(Scenario("sgfs-sha", clients=2, servers=3, replicas=2, faults=CRASH,
                     fault_seed="grid-ci", **GRID_KW), _wr)
    # every client still moved every byte, verified by the workload's
    # read-back pattern checks
    assert all(c.bytes_moved == 3 * FS for c in r.per_client)
    g = r.stats["grid"]
    # the crash was noticed: reads failed over to replicas, writes went
    # degraded while one owner was down, and the metadata service was told
    assert g["read_failovers"] > 0
    assert g["degraded_writes"] > 0
    assert g["dead_marks"] > 0
    # replication worked: no span was ever unrecoverable
    assert g["hole_spans"] == 0
    assert r.stats["grid.meta"]["epoch_bumps"] == 1


def _raising_once(monkeypatch, backend: int, op: str) -> None:
    """Make every testbed built from here on give backend ``backend``'s
    nfsd an ``op`` handler that raises on its first call — answered
    SYSTEM_ERR by the RPC dispatcher — and works after that."""
    build = Testbed.build

    def build_then_break(*args, **kwargs):
        tb = build(*args, **kwargs)
        program = tb.backends[backend].nfs_program
        handler, calls = getattr(program, op), itertools.count()

        def once(args, cred):
            if next(calls) == 0:
                raise RuntimeError(f"{op} fault injected")
            return (yield from handler(args, cred))

        setattr(program, op, once)
        return tb

    monkeypatch.setattr(Testbed, "build", build_then_break)


@pytest.mark.parametrize("op, failovers, degraded", [
    ("_op_read", 1, 0),    # the span is read from the next owner
    ("_op_write", 0, 1),   # the span lands on its other replica only
    ("_op_lookup", 0, 0),  # an unanswered twin lookup: the twin is created
    ("_op_create", 0, 1),  # no twin on backend 1 for this write: degraded
], ids=["read", "write", "lookup", "create"])
def test_backend_error_reply_fails_over_without_killing_a_worker(
        monkeypatch, op, failovers, degraded):
    """A reply that is not an accepted SUCCESS is read like any failed
    one: the router's workers never raise it (a ProcessDied here), and a
    backend that answered is not marked dead."""
    _raising_once(monkeypatch, 1, op)
    r = run(Scenario("sgfs-sha", clients=1, servers=3, replicas=2, **GRID_KW), _wr)
    assert r.per_client[0].bytes_moved == 3 * FS  # read back and checked
    g = r.stats["grid"]
    assert (g["read_failovers"], g["degraded_writes"]) == (failovers, degraded)
    assert g["dead_marks"] == 0 and g["hole_spans"] == 0


def test_cached_grid_writes_back_through_a_backend_crash():
    """The disk cache's bursts ride each leg's engine, in two-phase
    envelopes, across the crash of backend 1 mid-write (at 40 ms RTT,
    through a cache a quarter of the file, so write-behind and
    re-fetches reach the backends): the read-back is exact, the writes
    that missed backend 1 are degraded, none fails, and a same-seed
    rerun is bit-identical.  The cache holds 16 blocks, so a read
    window may span 4 (a 4-block cache caps it at 1: no envelopes)."""
    crash = FaultSpec(crashes=(CrashEvent(at=0.45, target="backend1", down_for=10.0),))
    kw = dict(clients=2, servers=3, replicas=2, streams=4, rtt=0.04, faults=crash,
              fault_seed="grid-ci", grid_block_size=32 * 1024,
              cache_bytes=64 * 1024, disk_cache=True, cache_capacity=2 * FS)
    workload = lambda: IOzoneWriteRead(file_size=8 * FS)
    r = run(Scenario("sgfs-sha", **kw), workload)
    assert all(c.bytes_moved == 24 * FS for c in r.per_client)  # read back, checked
    g, pc = r.stats["grid"], r.stats["proxy.client"]
    assert g["degraded_writes"] > 0 and g["dead_marks"] > 0
    assert pc["writeback_errors"] == 0 and pc["compound_envelopes"] > 0
    assert _fingerprint(run(Scenario("sgfs-sha", **kw), workload)) == _fingerprint(r)


@pytest.mark.parametrize("servers, replicas", [(3, 2), (1, 1)], ids=["3x2", "1x1"])
def test_wan_read_ahead_stays_inside_a_small_cache(servers, replicas):
    """Two 4-stream clients read a 1 MiB file through a 256 KiB cache at
    40 ms.  Read-ahead that ran further ahead than the cache holds had
    its blocks evicted unread and fetched again (619 calls forwarded on
    3x2).  Now the read-ahead span fits the cache: every block is
    fetched about once, and no more than one burst is wasted."""
    cache = 8 * 32 * 1024
    r = run(Scenario("sgfs-sha", clients=2, servers=servers, replicas=replicas,
                     streams=4, rtt=0.04, grid_block_size=32 * 1024,
                     cache_bytes=64 * 1024, disk_cache=True, cache_capacity=cache),
            lambda: IOzoneWriteRead(file_size=4 * FS))
    assert all(c.bytes_moved == 12 * FS for c in r.per_client)  # read back, checked
    pc = r.stats["proxy.client"]
    # an 8-block cache holds four 2-block bursts: two in flight, the
    # reader's window and the eviction hysteresis
    assert pc["forwarded"] <= pc["data_hits"] + pc["data_misses"] + 4
    assert pc["prefetch_evicted_unread"] <= 2
    assert pc["writeback_errors"] == 0


def test_replicated_crash_fleet_bit_identical_same_seed():
    kw = dict(
        clients=2, servers=3, replicas=2,
        faults=CRASH, fault_seed="grid-ci", **GRID_KW,
    )
    a = run(Scenario("sgfs-sha", **kw), _wr)
    b = run(Scenario("sgfs-sha", **kw), _wr)
    assert _fingerprint(a) == _fingerprint(b)


# -- namespace traffic through the router ---------------------------------------
# Every fleet above runs IOzoneWriteRead, which never makes a directory,
# removes, renames or truncates: these run the router's MKDIR / REMOVE /
# RENAME / SETATTR handling and its burst path.  MKDIR, RMDIR and RENAME
# change home only; ``mirrored_ops`` counts the stripe-object REMOVEs and
# truncates sent to the other backends.


def _pm():
    return PostMark(PostMarkConfig(files=20, transactions=80, directories=3))


class _RenameTruncate:
    """Write a striped file, move it to another directory, cut it short;
    read it back whole after each step."""

    def run(self, mount):
        cl = mount.client
        yield from cl.mkdir("/a")
        yield from cl.mkdir("/b")
        data = bytes(range(256)) * 800
        yield from cl.write_file("/a/f", data)
        yield from cl.rename("/a/f", "/b/g")
        assert (yield from cl.read_file("/b/g")) == data
        yield from cl.setattr("/b/g", Sattr3(size=70000))
        assert (yield from cl.read_file("/b/g")) == data[:70000]


@pytest.mark.parametrize("kw, mirrored, degraded, bumps", [
    (dict(servers=2), 116, 0, 0),
    (dict(servers=3, replicas=2), 232, 0, 0),
    # the mounts, legs dialed at once, end before the crash at 0.05 s
    (dict(servers=3, replicas=2, faults=CRASH, fault_seed="grid-ci"), 116, 117, 1),
], ids=["2x1", "3x2", "3x2-crash"])
def test_postmark_fleet_mirrors_namespace_ops(kw, mirrored, degraded, bumps):
    kw = dict(clients=2, **kw, **GRID_KW)
    r = run(Scenario("sgfs-sha", **kw), _pm)
    assert all("deletion" in c.phases for c in r.per_client)
    g, meta = r.stats["grid"], r.stats["grid.meta"]
    assert g["hole_spans"] == 0
    assert g["mirrored_ops"] == mirrored
    assert g["degraded_writes"] == degraded
    assert meta["epoch_bumps"] == bumps
    # every file PostMark made it also deleted: nothing stays registered
    assert meta["registrations"] == meta["forgets"] == 116
    assert _fingerprint(run(Scenario("sgfs-sha", **kw), _pm)) == _fingerprint(r)


def test_mab_fleet_keeps_its_source_tree_at_home():
    r = run(Scenario("sgfs-sha", clients=1, servers=2, **GRID_KW),
            lambda: ModifiedAndrewBenchmark())
    assert "compile" in r.per_client[0].phases
    g, meta = r.stats["grid"], r.stats["grid.meta"]
    assert g["hole_spans"] == 0
    # its 13 source directories and the build tree are made at home only
    assert g["mirrored_ops"] == 0
    assert (meta["registrations"], meta["forgets"]) == (655, 0)


@pytest.mark.parametrize("kw, mirrored", [
    (dict(servers=2), 2),
    (dict(servers=3, replicas=2), 4),
], ids=["2x1", "3x2"])
def test_rename_stays_at_home_and_truncate_reaches_every_backend(kw, mirrored):
    kw = dict(clients=2, **kw, **GRID_KW)
    r = run(Scenario("sgfs-sha", **kw), _RenameTruncate)
    g = r.stats["grid"]
    # MKDIR and RENAME change home only; per client, 1 SETATTR on every
    # other backend
    assert g["mirrored_ops"] == mirrored
    assert g["hole_spans"] == 0 and g["dead_marks"] == 0
    again = run(Scenario("sgfs-sha", **kw), _RenameTruncate)
    assert _fingerprint(again) == _fingerprint(r)


class _RenameOver:
    """Write ``/t`` whole, write only the last of three blocks of ``/s``,
    rename ``/s`` over ``/t``: ``/t`` must read back as ``/s``, whose
    first two blocks are a hole."""

    def run(self, mount):
        cl = mount.client
        block = GRID_KW["grid_block_size"]
        yield from cl.write_file("/t", b"T" * (3 * block))
        fh = yield from cl.open("/s", create=True)
        yield from cl.write(fh, 2 * block, b"S" * block)
        yield from cl.close(fh)
        yield from cl.rename("/s", "/t")
        assert (yield from cl.read_file("/t")) == \
            b"\x00" * (2 * block) + b"S" * block


@pytest.mark.parametrize("kw", [
    dict(servers=2), dict(servers=3, replicas=2),
], ids=["2x1", "3x2"])
def test_rename_over_a_striped_file_drops_its_objects(kw):
    r = run(Scenario("sgfs-sha", clients=1, **kw, **GRID_KW), _RenameOver)
    meta = r.stats["grid.meta"]
    assert (meta["registrations"], meta["forgets"]) == (2, 1)


def test_write_behind_bursts_through_the_router():
    kw = dict(clients=2, servers=2, streams=4, grid_block_size=32 * 1024,
              disk_cache=True)
    r = run(Scenario("sgfs-sha", **kw), _wr)
    assert all(c.bytes_moved == 3 * FS for c in r.per_client)
    # the disk cache absorbs every write and flushes them as bursts the
    # router stripes: 8 blocks per client, all landed
    assert r.stats["proxy.client"]["writeback_blocks"] == 16
    assert r.stats["proxy.client"]["writeback_errors"] == 0
    g = r.stats["grid"]
    assert (g["striped_writes"], g["hole_spans"], g["mirrored_ops"]) == (16, 0, 0)
    assert _fingerprint(run(Scenario("sgfs-sha", **kw), _wr)) == _fingerprint(r)


@pytest.mark.parametrize("setup", ["sgfs-sha", "gfs"])
def test_cached_grid_bursts_ride_each_legs_engine(setup):
    """Two 4-stream clients over 2 backends x 2 replicas at 40 ms, through
    the disk cache: the bursts go out as compound envelopes, every block
    is written back and read back exact, and a same-seed rerun is
    bit-identical — over TLS and over gfs's plain channel alike, since
    both are assembled by the same session code."""
    kw = dict(clients=2, servers=2, replicas=2, streams=4, rtt=0.04,
              disk_cache=True)
    r = run(Scenario(setup, **kw), _wr)
    assert all(c.bytes_moved == 3 * FS for c in r.per_client)  # read back, checked
    pc = r.stats["proxy.client"]
    assert r.stats["grid"]["hole_spans"] == 0
    assert pc["writeback_errors"] == 0 and pc["compound_envelopes"] > 0
    assert _fingerprint(run(Scenario(setup, **kw), _wr)) == _fingerprint(r)


# -- mounting: every leg dialed at once ------------------------------------------

SUITE = "aes-256-cbc-sha1"


def _handshakes(r, kind, role="server"):
    return r.stats["tls"].get(f"{kind}{{role={role},suite={SUITE}}}", 0)


def test_concurrent_leg_dials_keep_one_full_handshake_per_server():
    """Each client pays one full handshake per backend and resumes the
    other three channels of each leg, with every leg dialed at once;
    and one client's four channel-0 handshakes overlap in virtual time."""
    r = run(Scenario("sgfs-aes", clients=3, servers=4, replicas=2, streams=4,
                     **GRID_KW), _wr, tracing=True)
    assert _handshakes(r, "full_handshakes") == 12
    assert _handshakes(r, "resumptions") == 36
    tracer = r.tracer
    names = tracer.track_names()
    legs = {}
    for s in tracer.spans:
        if s.name == "tls.handshake" and s.args["role"] == "client" \
                and names[s.tid].startswith("c0:"):
            legs.setdefault(s.tid, []).append(s)
    assert len(legs) == 4 and all(len(spans) == 4 for spans in legs.values())
    first = [min(spans, key=lambda s: s.start) for spans in legs.values()]
    assert max(s.start for s in first) < min(s.end for s in first)


class _Leg:
    """A leg whose dial takes ``delay`` virtual seconds, then fails with
    ``error`` (when given) or succeeds."""

    def __init__(self, sim, delay, error=None):
        self.sim, self.delay, self.error = sim, delay, error

    def connect(self):
        yield self.sim.timeout(self.delay)
        if self.error is not None:
            raise self.error
        return self


class _Meta:
    dialed = False

    def connect(self):
        self.dialed = True
        return
        yield


def test_failed_leg_dial_raises_lowest_index_after_every_sibling():
    """Legs 1 and 2 fail (2 first); leg 3 is the slowest.  The mount
    raises leg 1's failure, as the serial dial did, once leg 3 is done,
    never dials the metadata service and leaves no dial process alive."""
    sim = Simulator()
    spawned = []
    spawn = sim.spawn

    def recording_spawn(generator, name=""):
        spawned.append(spawn(generator, name=name))
        return spawned[-1]

    sim.spawn = recording_spawn
    legs = [_Leg(sim, 0.003), _Leg(sim, 0.002, ConnectionRefused("leg 1")),
            _Leg(sim, 0.001, HandshakeError("leg 2")), _Leg(sim, 0.005)]
    meta = _Meta()
    router = GridRouter(sim, legs, meta, {})
    seen = {}

    def mount():
        try:
            yield from router.connect()
        except ConnectionRefused as exc:
            seen["error"], seen["at"] = str(exc), sim.now
            seen["alive"] = [p.name for p in spawned if p.alive]

    spawn(mount(), name="mount")
    sim.run()
    assert [p.name for p in spawned] == [f"grid-fan:dial{b}" for b in range(4)]
    assert seen == {"error": "leg 1", "at": 0.005, "alive": []}
    assert not meta.dialed
    assert sim.unobserved_deaths() == []


def test_leg_down_at_mount_raises_what_the_serial_dial_raised():
    down = FaultSpec(crashes=tuple(
        CrashEvent(at=0.0, target=f"backend{b}", down_for=100.0) for b in (1, 3)))
    with pytest.raises(ConnectionRefused, match="^s1:4444 refused"):
        run(Scenario("sgfs-sha", clients=1, servers=4, faults=down, **GRID_KW), _wr)


def test_reconnecting_grid_legs_resume_at_their_own_servers():
    """Each leg's redial offers the ticket its own server issued: one
    full handshake per (client, backend), every cycle after resumes."""
    r = run(Scenario("sgfs-aes", clients=2, servers=3, session_tickets=True,
                     reconnect_interval=1.5),
            lambda: SessionChurn(duration=4, period=0.5, io_size=4096))
    assert (_handshakes(r, "full_handshakes"), _handshakes(r, "resumptions")) == (6, 12)
