"""UpstreamSession on its own: channels, reconnect gate, retry ladder.

No Testbed, network or TLS — a scripted transport stands in for the
connection to the server-side proxy, so each test states exactly which
connection died when and reads back exactly what was sent on which.
"""

import pytest

from repro.nfs import protocol as pr
from repro.proxy.upstream import MAX_WINDOW, UpstreamSession
from repro.rpc.compound import COMPOUND_PROGRAM, pack_members, unpack_members
from repro.rpc.messages import CallMessage, ReplyMessage
from repro.rpc.transport import HandshakeError
from repro.sim import Simulator

DIAL_SECONDS = 1.0
REFUSED = "refused"


class ScriptedTransport:
    """One fake connection.  ``answers`` decides whether the far end
    replies, ``far`` (a :class:`FarNfs`, else every call is answered
    ``b"ok"``) what it replies, ``rtt`` after how long (at once when 0);
    :meth:`die` makes the reader see the peer close, and :meth:`close`
    makes it see EOF, as a socket's own reader does."""

    def __init__(self, sim, answers=True, far=None, rtt=0.0):
        self.sim = sim
        self.answers = answers
        self.far = far
        self.rtt = rtt
        self.sent = []
        self.closed = False
        self._inbox = []
        self._waiter = None

    def charge(self, nbytes, op="seal"):
        return ()  # a plain connection: sealing costs nothing

    def send_record(self, record):
        self.sent.append(record)
        if self.answers and self.rtt:
            self.sim.spawn(self._late(_reply_to(record, self.far)))
        elif self.answers:
            self._deliver(_reply_to(record, self.far))

    def _late(self, reply):
        yield self.sim.timeout(self.rtt)
        self._deliver(reply)

    def recv_record(self):
        while not self._inbox:
            self._waiter = self.sim.event(name="fake-recv")
            yield self._waiter
        return self._inbox.pop(0)

    def die(self):
        self._deliver(None)

    def close(self):
        if not self.closed:
            self.closed = True
            self._deliver(None)

    def _deliver(self, item):
        self._inbox.append(item)
        if self._waiter is not None and not self._waiter.triggered:
            self._waiter.succeed(None)


def _reply_to(record: bytes, far=None) -> bytes:
    def results(call):
        return b"ok" if far is None else far.execute(call)

    call = CallMessage.decode(record)
    if call.prog != COMPOUND_PROGRAM:
        return ReplyMessage(xid=call.xid, results=results(call)).encode()
    # members run in list order, as the server proxy runs them
    members = [CallMessage.decode(m) for m in unpack_members(call.args)]
    return ReplyMessage(xid=call.xid, results=pack_members(
        [ReplyMessage(xid=m.xid, results=results(m)).encode() for m in members]
    )).encode()


class FarNfs:
    """A far end that runs WRITE and COMMIT over in-memory files.

    UNSTABLE data is applied at once but stays volatile until a COMMIT;
    each COMMIT answers the next of ``reboots``' verifiers if any is
    left — a reboot in between: the volatile data is lost first — else
    :data:`VERF`, the verifier every WRITE carries.  ``log`` records
    each call run as ``(proc, stable or None, fileid, offset)``."""

    VERF = b"bootone0"

    def __init__(self, reboots=()):
        self.files = {}
        self.volatile = {}  # fileid -> the bytes before its uncommitted writes
        self.reboots = list(reboots)
        self.log = []

    def execute(self, call) -> bytes:
        if call.proc == int(pr.Proc.WRITE):
            fh, offset, stable, data = pr.unpack_write_args(call.args)
            self.log.append(("WRITE", stable, fh.fileid, offset))
            store = self.files.setdefault(fh.fileid, bytearray())
            if stable == pr.UNSTABLE:
                self.volatile.setdefault(fh.fileid, bytes(store))
            store[len(store):offset] = bytes(max(0, offset - len(store)))
            store[offset:offset + len(data)] = data
            return pr.pack_write_res(pr.NfsStatus.OK, None, len(data), stable, self.VERF)
        fh, _offset, _count = pr.unpack_commit_args(call.args)
        self.log.append(("COMMIT", None, fh.fileid, 0))
        verf = self.VERF
        if self.reboots:
            verf = self.reboots.pop(0)
            for fileid, before in self.volatile.items():
                self.files[fileid] = bytearray(before)
            self.volatile.clear()
        self.volatile.pop(fh.fileid, None)
        return pr.pack_commit_res(pr.NfsStatus.OK, None, verf)


class Dialer:
    """An ``upstream_factory`` that takes DIAL_SECONDS per connection
    and logs (start, end) of every dial; ``script`` lists, per dial,
    whether that connection's far end answers, or ``REFUSED`` for a
    dial whose handshake the server refuses."""

    def __init__(self, sim, script=(), far=None, rtt=0.0):
        self.sim = sim
        self.script = list(script)
        self.far = far
        self.rtt = rtt
        self.dials = []
        self.transports = []

    def __call__(self):
        start = self.sim.now
        yield self.sim.timeout(DIAL_SECONDS)
        answers = self.script.pop(0) if self.script else True
        self.dials.append((start, self.sim.now))
        if answers is REFUSED:
            raise HandshakeError("refused")
        self.transports.append(ScriptedTransport(self.sim, answers, self.far, self.rtt))
        return self.transports[-1]


#: the sessions :func:`_session` opened in the running test
OPENED = []


@pytest.fixture(autouse=True)
def close_sessions():
    """A test's sessions end with it: each channel's pump sees EOF."""
    yield
    while OPENED:
        OPENED.pop().close()


def _session(streams=1, script=(), far=None, rtt=0.0):
    sim = Simulator()
    dialer = Dialer(sim, script, far, rtt)
    up = UpstreamSession(sim, dialer, streams=streams, retry_base=0.25)
    sim.run_until_complete(sim.spawn(up.connect()))
    OPENED.append(up)
    return sim, dialer, up


def _read_call(offset=0):
    fh = pr.FileHandle(fsid=1, fileid=7, generation=0)
    return CallMessage(0x99, pr.NFS_PROGRAM, pr.NFS_V3, int(pr.Proc.READ),
                       args=pr.pack_read_args(fh, offset, 32768))


def _transports(up):
    return [ch.router.transport for ch in up._channels]


@pytest.mark.parametrize("channel", [0, 2])
def test_dead_channel_replaced_once_whatever_its_index(channel):
    sim, dialer, up = _session(streams=3)
    before = _transports(up)
    dead = up._channels[channel].router
    before[channel].die()
    sim.run()  # the pump sees the close and marks the router dead
    assert dead._dead is not None
    # three callers notice at once: one dial, the others wait on its gate
    procs = [sim.spawn(up.ensure(channel, dead)) for _ in range(3)]
    for p in procs:
        sim.run_until_complete(p)
    assert len(dialer.dials) == 3 + 1
    assert sim.now == pytest.approx(3 * DIAL_SECONDS + DIAL_SECONDS)
    after = _transports(up)
    assert after[channel] is dialer.transports[-1]
    assert before[channel].closed
    assert up._channels[channel].reconnecting is None
    for k in range(3):
        if k != channel:
            assert after[k] is before[k] and not before[k].closed
    # a late caller holding the stale router is a no-op
    sim.run_until_complete(sim.spawn(up.ensure(channel, dead)))
    assert len(dialer.dials) == 4


def test_cycle_dials_channels_strictly_in_index_order():
    sim, dialer, up = _session(streams=3)
    old = _transports(up)
    sim.run_until_complete(sim.spawn(up.cycle()))
    new_dials = dialer.dials[3:]
    assert len(new_dials) == 3
    # sequential: dial k+1 starts only when dial k has finished
    for (_s0, e0), (s1, _e1) in zip(new_dials, new_dials[1:]):
        assert s1 >= e0
    # the k-th replacement connection lands on channel k
    assert _transports(up) == dialer.transports[3:]
    assert all(t.closed for t in old)
    assert up._channels[0].reconnecting is None


def test_cycle_stops_at_the_first_failed_dial_and_keeps_the_rest():
    """The server proxy refuses channel 1's replacement: channel 0 has
    already moved to its new connection, channels 1 and 2 keep the
    sessions they had, and channel 2 is not dialed at all."""
    sim, dialer, up = _session(streams=3, script=[True] * 4 + [REFUSED])
    old = _transports(up)
    sim.run_until_complete(sim.spawn(up.cycle()))
    assert len(dialer.dials) == 3 + 2
    assert _transports(up) == [dialer.transports[3], old[1], old[2]]
    assert old[0].closed and not old[1].closed and not old[2].closed
    assert up._channels[0].reconnecting is None
    # the kept channels still carry calls
    replies = sim.run_until_complete(sim.spawn(
        up.burst([_read_call(i * 32768) for i in range(3)])))
    assert all(r is not None for r in replies)
    assert [len(t.sent) for t in _transports(up)] == [1, 1, 1]


def test_cycle_while_cycling_waits_instead_of_dialing():
    sim, dialer, up = _session(streams=2)
    a = sim.spawn(up.cycle())
    b = sim.spawn(up.cycle())
    sim.run_until_complete(a)
    sim.run_until_complete(b)
    assert len(dialer.dials) == 2 + 2


def test_interrupt_during_a_cycle_dial_stops_the_cycler():
    """A fleet interrupts each client's session cycler when its workload
    ends.  An interrupt that lands while the replacement dial is in
    flight must end the cycler there and then — it used to read as a
    failed dial, and the cycler went on cycling a finished session."""
    from types import SimpleNamespace

    from repro.harness.fleet import _session_cycler

    sim, dialer, up = _session()
    proxy = SimpleNamespace(cycle_upstream=up.cycle)
    cycler = sim.spawn(_session_cycler(sim, proxy, interval=5.0))
    mid_dial = sim.now + 5.0 + DIAL_SECONDS / 2
    sim.run(until=mid_dial)
    assert cycler.alive and up._channels[0].reconnecting is not None
    cycler.interrupt("client workload complete")
    sim.run(until=mid_dial)  # no time passes: just the interrupt's delivery
    assert not cycler.alive and not cycler.completion.failed
    assert up._channels[0].reconnecting is None  # the cycle's gate is released
    sim.run(until=60.0)
    assert len(dialer.dials) == 1  # the session's own connect; nothing since


def test_retried_call_keeps_xid_and_record_across_connections():
    # connection 1 swallows the call and then dies; connection 2 answers
    sim, dialer, up = _session(script=[False, True])
    first = dialer.transports[0]
    proc = sim.spawn(up.forward(_read_call()))
    sim.run(until=sim.now + 0.5)
    assert len(first.sent) == 1 and proc.alive
    first.die()
    reply = sim.run_until_complete(proc)
    second = dialer.transports[1]
    assert second.sent == first.sent  # byte-identical, hence same xid
    assert reply.xid == CallMessage.decode(first.sent[0]).xid
    assert up.stats["upstream_retries"] == 1


def test_retried_compound_burst_replays_identical_members():
    sim, dialer, up = _session(script=[False, True])
    first = dialer.transports[0]
    calls = [_read_call(i * 32768) for i in range(3)]
    proc = sim.spawn(up.burst(calls))
    sim.run(until=sim.now + 0.5)
    assert len(first.sent) == 1  # one envelope for the three calls
    first.die()
    replies = sim.run_until_complete(proc)
    second = dialer.transports[1]
    assert second.sent == first.sent
    envelope = CallMessage.decode(first.sent[0])
    assert envelope.prog == COMPOUND_PROGRAM
    members = [CallMessage.decode(m) for m in unpack_members(envelope.args)]
    assert [m.args for m in members] == [c.args for c in calls]
    # replies come back in call order, matched to the member xids
    assert [r.xid for r in replies] == [m.xid for m in members]
    assert len({m.xid for m in members} | {envelope.xid}) == 4


def test_burst_places_call_i_on_channel_i_mod_streams():
    sim, dialer, up = _session(streams=2)
    calls = [_read_call(i * 32768) for i in range(5)]
    replies = sim.run_until_complete(sim.spawn(up.burst(calls)))
    assert len(replies) == 5 and all(r is not None for r in replies)
    shares = []
    for t in dialer.transports:
        (record,) = t.sent
        envelope = CallMessage.decode(record)
        shares.append([CallMessage.decode(m).args
                       for m in unpack_members(envelope.args)])
    assert shares == [[c.args for c in calls[0::2]],
                      [c.args for c in calls[1::2]]]


def test_only_a_burst_of_one_call_feeds_the_bulk_estimator():
    """4 calls over 4 channels ride as four lone shares, each sharing the
    link with its siblings: none of them times one block's service, so
    the bulk estimator keeps its value.  A burst that is one call moves it."""
    sim, dialer, up = _session(streams=4)
    up.srtt_small, up.srtt_bulk = 0.080, 0.085
    sim.run_until_complete(sim.spawn(
        up.burst([_read_call(i * 32768) for i in range(4)])))
    assert [len(t.sent) for t in dialer.transports] == [1, 1, 1, 1]
    assert up.srtt_bulk == 0.085
    sim.run_until_complete(sim.spawn(up.burst([_read_call()])))
    assert up.srtt_bulk < 0.085  # the scripted far end answers at once


# -- the delivered-rate window ------------------------------------------------
# Every record of a paced far end is answered one RTT after it is sent,
# whatever it carries: a burst of n blocks over 4 channels lands one RTT
# later, a delivery rate of n / RTT, so a window of n blocks covers it.

RTT = 0.0625  # a power of two: rates and windows come out exact


def _paced(streams=4):
    far = FarNfs()
    sim, _dialer, up = _session(streams=streams, far=far, rtt=RTT)
    up.srtt_small, up.srtt_bulk = RTT, RTT + RTT / 8  # a one-block estimate of 8
    return sim, up, far


def _burst(sim, up, n, first=0):
    return sim.spawn(up.burst([_write_call(7, first + b, b % 251) for b in range(n)]))


@pytest.mark.parametrize("n, window", [(4, 8), (12, 12), (24, 24), (200, MAX_WINDOW)])
def test_the_window_grows_with_the_delivered_rate_up_to_max_window(n, window):
    """Past the one-block estimate, the window is what the leg delivers
    in a round trip: a 4-block burst leaves the estimate standing, wider
    ones widen the window, never past MAX_WINDOW."""
    sim, up, far = _paced()
    sim.run_until_complete(_burst(sim, up, n))
    assert up.rate == n / RTT
    assert up.window() == window
    assert len(far.files[7]) == n * BS  # the leg delivered every block


def test_the_rate_sample_counts_blocks_of_overlapping_bursts():
    """Two 8-block bursts half a round trip apart: the second's sample
    counts the first's blocks, landed while it was out, as well."""
    sim, up, _far = _paced()
    first = _burst(sim, up, 8)
    sim.run(until=sim.now + RTT / 2)
    second = _burst(sim, up, 8, first=8)
    sim.run_until_complete(first)
    assert up.rate == 8 / RTT
    sim.run_until_complete(second)
    assert up.rate == 16 / RTT and up.window() == 16
    # the max filter: a slower burst later leaves the window as it was
    sim.run_until_complete(_burst(sim, up, 2, first=16))
    assert up.rate == 16 / RTT and up.window() == 16


def test_startup_ends_after_three_samples_that_find_the_rate_flat():
    """A sample at least 1.25 times the rate its burst left at keeps the
    leg in startup; three in a row below that end it, for good."""
    sim, up, _far = _paced()
    assert up.growing  # no sample yet
    for n in (8, 16, 19, 20):  # 16 -> 19 is under a quarter's growth
        sim.run_until_complete(_burst(sim, up, n))
        assert up.growing
    sim.run_until_complete(_burst(sim, up, 24))  # the third flat sample
    assert not up.growing and up.rate == 24 / RTT
    sim.run_until_complete(_burst(sim, up, 48))  # growth no longer counts
    assert not up.growing and up.rate == 48 / RTT


def test_growth_past_the_one_block_estimate_stops_at_max_window():
    """The leg's window is its pipe: what it delivers in a round trip,
    past the one-block estimate, up to MAX_WINDOW; what the cache holds
    is the client proxy's to size (:meth:`SgfsClientProxy._pipeline`)."""
    sim, up, _far = _paced()
    sim.run_until_complete(_burst(sim, up, 24))
    assert up.window() == 24
    up.srtt_bulk = RTT + RTT / 32  # a one-block estimate of 32
    assert up.window() == 32
    up.srtt_bulk = RTT + RTT / 128
    assert up.window() == MAX_WINDOW


@pytest.mark.parametrize("streams, pipe, blocks, burst, depth, read", [
    (1, 40, 128, 1, 1, 1),          # one stream: stop-and-wait
    (4, 1, 128, 1, 2, 1),           # a one-block pipe: bursts of one
    (4, 64, 1 << 17, 64, 2, 64),    # a cache that does not bind: two pipes
    (4, 40, 128, 21, 4, 21),        # 2 x 40 in flight takes four sixths
    (4, 64, 128, 16, 6, 16),        # no room for 2 x 64: 64 and two bursts
    (8, 64, 128, 16, 6, 16),
    (8, 6, 128, 16, 2, 16),         # never a one-block share
    (4, 8, 4, 8, 2, 1),             # too small for two-block shares:
    (4, 3, 8, 8, 2, 2),             # read ahead in a quarter of the cache
])
def test_the_proxy_keeps_twice_the_pipe_in_flight_in_bursts_the_cache_holds(
        streams, pipe, blocks, burst, depth, read):
    from repro.proxy.client_proxy import SgfsClientProxy

    proxy = _sizing(streams, pipe, blocks, growing=False)
    assert SgfsClientProxy._pipeline(proxy) == (burst, depth)
    assert SgfsClientProxy._pipeline(proxy, read=True) == (read, depth)
    if pipe > 1 and streams > 1:
        assert burst >= 2 * streams  # each channel's share is two-phase
        # the read-ahead span and one burst of hysteresis fit the cache
        assert (depth + 1) * read + burst - 1 <= blocks or blocks < 8 * streams
        covered = depth * burst >= min(2 * pipe, pipe + 2 * burst)
        assert covered or blocks // (depth + 3) < 2 * streams


def _sizing(streams, pipe, blocks, growing):
    """What :meth:`SgfsClientProxy._pipeline` reads of a proxy: one leg
    with this pipe, in startup or not, and a cache of ``blocks``."""
    from types import SimpleNamespace

    from repro.proxy.session_config import ProxyCacheConfig

    leg = SimpleNamespace(window=lambda: pipe, growing=growing)
    return SimpleNamespace(
        _streams=streams, _up=SimpleNamespace(legs=[leg]),
        cache=ProxyCacheConfig(capacity_bytes=blocks * BS),
        _sized=((0, 0, False), ((1, 1), (1, 1))))


@pytest.mark.parametrize("streams, pipe, blocks, burst, depth", [
    (4, 29, 128, 18, 5),    # the bench's first measured pipe: 3 x 29 in flight
    (4, 58, 192, 32, 4),    # 3 x 58 > 2 x MAX_WINDOW: the steady sizing's
    (4, 39, 128, 21, 4),    # no room for 3 x 39: the steady sizing
    (4, 1, 128, 1, 2),      # a one-block pipe keeps its bursts of one
    (1, 40, 128, 1, 1),     # one stream: stop-and-wait
])
def test_a_leg_in_startup_keeps_three_pipes_in_flight(streams, pipe, blocks, burst, depth):
    """While the leg's rate grows, write-behind keeps three pipes in
    flight where the cache holds them (and never more than the steady
    rule keeps at MAX_WINDOW); read-ahead is sized as in steady state."""
    from repro.proxy.client_proxy import SgfsClientProxy

    startup = _sizing(streams, pipe, blocks, growing=True)
    steady = _sizing(streams, pipe, blocks, growing=False)
    assert SgfsClientProxy._pipeline(startup) == (burst, depth)
    assert (depth + 2) * burst <= blocks
    assert SgfsClientProxy._pipeline(startup, read=True) == \
        SgfsClientProxy._pipeline(steady, read=True)


def test_a_single_stream_leg_keeps_a_window_of_one():
    sim, up, _far = _paced(streams=1)
    sim.run_until_complete(_burst(sim, up, 24))
    assert up.rate == 24 / RTT
    assert up.window() == 1


# -- two-phase write-back: a share of WRITEs is UNSTABLE + COMMIT ------------

BS = 32768


def _write_call(fileid, block, fill):
    fh = pr.FileHandle(fsid=1, fileid=fileid, generation=0)
    return CallMessage(0x99, pr.NFS_PROGRAM, pr.NFS_V3, int(pr.Proc.WRITE),
                       args=pr.pack_write_args(fh, block * BS, bytes([fill]) * BS,
                                               pr.FILE_SYNC))


def _sent_calls(record):
    """The calls one sent record carries: an envelope's members, or itself."""
    call = CallMessage.decode(record)
    if call.prog != COMPOUND_PROGRAM:
        return [call]
    return [CallMessage.decode(m) for m in unpack_members(call.args)]


def _as(call, stable):
    fh, offset, _stable, data = pr.unpack_write_args(call.args)
    return pr.pack_write_args(fh, offset, data, stable)


def test_a_share_of_writes_is_unstable_members_then_a_commit_per_file():
    """Call i rides channel i % 2: channel 0's share writes file 5 only,
    channel 1's files 6 then 5.  Each share is one envelope: its WRITEs
    re-marked UNSTABLE, payloads untouched, then one COMMIT per file in
    first-write order."""
    far = FarNfs()
    sim, dialer, up = _session(streams=2, far=far)
    calls = [_write_call(5, 0, 1), _write_call(6, 0, 2), _write_call(5, 1, 3),
             _write_call(6, 1, 4), _write_call(5, 2, 5), _write_call(5, 3, 6)]
    replies = sim.run_until_complete(sim.spawn(up.burst(calls)))
    shares = [_sent_calls(record) for t in dialer.transports for record in t.sent]
    assert len(shares) == 2  # one envelope per channel, no re-send
    for share, mine in zip(shares, (calls[0::2], calls[1::2])):
        writes, commits = share[:len(mine)], share[len(mine):]
        assert [w.args for w in writes] == [_as(c, pr.UNSTABLE) for c in mine]
        files = list(dict.fromkeys(
            pr.unpack_write_args(c.args)[0].fileid for c in mine))
        assert [c.proc for c in commits] == [int(pr.Proc.COMMIT)] * len(files)
        assert [pr.unpack_commit_args(c.args)[0].fileid for c in commits] == files
    # the WRITE replies come back, in call order, and the data is durable
    assert [pr.unpack_write_res(r.results)[2] for r in replies] == [BS] * 6
    assert far.volatile == {}
    assert bytes(far.files[5]) == b"".join(bytes([f]) * BS for f in (1, 3, 5, 6))
    assert up.stats["compound_members"] == 4 + 1 + 2 + 2


def test_a_one_call_share_is_a_bare_file_sync_write():
    """A lone WRITE, and the one-call shares of a ragged burst (5 calls
    over 4 channels ride as 2, 1, 1, 1), go out as the caller built
    them: FILE_SYNC, no envelope, no COMMIT."""
    far = FarNfs()
    sim, dialer, up = _session(streams=4, far=far)
    lone = _write_call(5, 0, 1)
    sim.run_until_complete(sim.spawn(up.burst([lone])))
    assert [len(t.sent) for t in dialer.transports] == [1, 0, 0, 0]
    assert dialer.transports[0].sent[0] == CallMessage(
        0x7000_0001, lone.prog, lone.vers, lone.proc, args=lone.args).encode()
    calls = [_write_call(5, b, b) for b in range(1, 6)]
    sim.run_until_complete(sim.spawn(up.burst(calls)))
    for t, call in zip(dialer.transports[1:], calls[1:4]):
        (record,) = t.sent
        (sent,) = _sent_calls(record)
        assert CallMessage.decode(record).prog == pr.NFS_PROGRAM
        assert sent.args == call.args  # still FILE_SYNC
    assert [p for p, *_rest in far.log].count("COMMIT") == 1  # channel 0's pair
    assert far.volatile == {}


def test_a_commit_with_another_verifier_resends_the_share_file_sync():
    """The server reboots between the WRITEs and the COMMIT: its COMMIT
    answers a new verifier and the UNSTABLE data is gone.  The share is
    sent again FILE_SYNC, and the burst — hence every victim it carries,
    which leaves the writing state only when the burst returns — ends
    only once that re-send is answered."""
    far = FarNfs(reboots=[b"boottwo0"])
    sim, dialer, up = _session(streams=1, far=far)
    calls = [_write_call(5, b, b + 1) for b in range(3)]
    replies = sim.run_until_complete(sim.spawn(up.burst(calls)))
    first, again = [_sent_calls(r) for r in dialer.transports[0].sent]
    assert [c.proc for c in first] == [int(pr.Proc.WRITE)] * 3 + [int(pr.Proc.COMMIT)]
    assert [c.args for c in again] == [c.args for c in calls]
    assert [stable for _p, stable, *_rest in far.log] == \
        [pr.UNSTABLE] * 3 + [None] + [pr.FILE_SYNC] * 3
    # what the burst returns are the FILE_SYNC re-send's replies
    assert [pr.unpack_write_res(r.results)[3] for r in replies] == [pr.FILE_SYNC] * 3
    assert bytes(far.files[5]) == b"".join(bytes([b + 1]) * BS for b in range(3))


def test_a_dropped_envelope_is_resent_whole_and_applied_once():
    """Connection 1 swallows the envelope and dies; connection 2 gets
    the same record — UNSTABLE WRITEs and their COMMIT — and the far
    end runs each WRITE once and ends with the exact bytes."""
    far = FarNfs()
    sim, dialer, up = _session(script=[False, True], far=far)
    first = dialer.transports[0]
    calls = [_write_call(5, b, b + 1) for b in range(3)]
    proc = sim.spawn(up.burst(calls))
    sim.run(until=sim.now + 0.5)
    assert len(first.sent) == 1 and far.log == []
    first.die()
    sim.run_until_complete(proc)
    assert dialer.transports[1].sent == first.sent
    assert far.log == [("WRITE", pr.UNSTABLE, 5, b * BS) for b in range(3)] + \
        [("COMMIT", None, 5, 0)]
    assert bytes(far.files[5]) == b"".join(bytes([b + 1]) * BS for b in range(3))
    assert far.volatile == {}


# -- dialer(): the one connect-then-handshake, on a real two-host network ------


def _dial_twice(security, server_security=None, between=lambda: None):
    """Dial c -> s:4444 twice through one ``dialer``; return what the
    client got and what the accepting side saw, per dial."""
    from repro.net import Host, Network
    from repro.proxy.upstream import dialer
    from repro.tls import server_handshake

    sim = Simulator()
    net = Network(sim)
    c, s = Host(sim, net, "c"), Host(sim, net, "s")
    net.connect("c", "s", latency=0.001)
    accepted = []

    def server_side():
        listener = s.listen(4444)
        while True:
            sock = yield listener.accept()
            if server_security is not None:
                sock = yield from server_handshake(sim, sock, server_security)
            accepted.append(sock)

    sim.spawn(server_side())
    dial = dialer(sim, c, "s", 4444, security)
    got = [sim.run_until_complete(sim.spawn(dial()))]
    between()
    got.append(sim.run_until_complete(sim.spawn(dial())))
    sim.run(until=sim.now + 1.0)
    return got, accepted


def test_dialer_without_security_returns_the_bare_stream():
    from repro.rpc.transport import StreamTransport

    got, accepted = _dial_twice(None)
    assert all(type(t) is StreamTransport for t in got)
    assert len(accepted) == 2


def test_dialer_handshakes_with_the_credential_current_at_dial_time():
    """Delegation renewal swaps ``cfg.credential`` between dials and
    relies on the next handshake presenting the new one."""
    from repro.crypto.drbg import Drbg
    from repro.gsi import CertificateAuthority, DistinguishedName
    from repro.gsi.proxy import issue_proxy_certificate
    from repro.tls import SecurityConfig
    from repro.tls.channel import SecureChannel

    dn = DistinguishedName.parse
    ca = CertificateAuthority(dn("/O=TestCA/CN=Root"), rng=Drbg("d-ca"), key_bits=768)
    user = ca.issue_identity(dn("/O=Lab/CN=user"), rng=Drbg("d-user"), key_bits=768)
    host = ca.issue_identity(dn("/O=Lab/CN=server"), rng=Drbg("d-host"), key_bits=768)
    cfg = SecurityConfig.for_session(user, [ca.certificate], rng=Drbg("d-c"))
    server_cfg = SecurityConfig.for_session(host, [ca.certificate], rng=Drbg("d-s"))
    delegated = issue_proxy_certificate(user, now=0.0, lifetime=60.0,
                                        rng=Drbg("d-proxy"), key_bits=768,
                                        limited=True)

    def renew():
        cfg.credential = delegated

    got, accepted = _dial_twice(cfg, server_cfg, between=renew)
    assert all(isinstance(ch, SecureChannel) for ch in got)
    assert [ch.peer_certificate for ch in accepted] == [
        user.certificate, delegated.certificate]
    # both chains collapse to the same grid identity
    assert {str(ch.peer_identity) for ch in accepted} == {"/O=Lab/CN=user"}
