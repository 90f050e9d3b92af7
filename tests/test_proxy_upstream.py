"""UpstreamSession on its own: channels, reconnect gate, retry ladder.

No Testbed, network or TLS — a scripted transport stands in for the
connection to the server-side proxy, so each test states exactly which
connection died when and reads back exactly what was sent on which.
"""

import pytest

from repro.nfs import protocol as pr
from repro.proxy.upstream import UpstreamSession
from repro.rpc.compound import COMPOUND_PROGRAM, pack_members, unpack_members
from repro.rpc.messages import CallMessage, ReplyMessage
from repro.rpc.transport import HandshakeError
from repro.sim import Simulator

DIAL_SECONDS = 1.0
REFUSED = "refused"


class ScriptedTransport:
    """One fake connection.  ``answers`` decides whether the far end
    replies; :meth:`die` makes the reader see the peer close."""

    def __init__(self, sim, answers=True):
        self.sim = sim
        self.answers = answers
        self.sent = []
        self.closed = False
        self._inbox = []
        self._waiter = None

    def charge(self, nbytes, op="seal"):
        return ()  # a plain connection: sealing costs nothing

    def send_record(self, record):
        self.sent.append(record)
        if self.answers:
            self._deliver(_reply_to(record))

    def recv_record(self):
        while not self._inbox:
            self._waiter = self.sim.event(name="fake-recv")
            yield self._waiter
        return self._inbox.pop(0)

    def die(self):
        self._deliver(None)

    def close(self):
        self.closed = True

    def _deliver(self, item):
        self._inbox.append(item)
        if self._waiter is not None and not self._waiter.triggered:
            self._waiter.succeed(None)


def _reply_to(record: bytes) -> bytes:
    call = CallMessage.decode(record)
    if call.prog != COMPOUND_PROGRAM:
        return ReplyMessage(xid=call.xid, results=b"ok").encode()
    members = [CallMessage.decode(m) for m in unpack_members(call.args)]
    return ReplyMessage(xid=call.xid, results=pack_members(
        [ReplyMessage(xid=m.xid, results=b"ok").encode() for m in members]
    )).encode()


class Dialer:
    """An ``upstream_factory`` that takes DIAL_SECONDS per connection
    and logs (start, end) of every dial; ``script`` lists, per dial,
    whether that connection's far end answers, or ``REFUSED`` for a
    dial whose handshake the server refuses."""

    def __init__(self, sim, script=()):
        self.sim = sim
        self.script = list(script)
        self.dials = []
        self.transports = []

    def __call__(self):
        start = self.sim.now
        yield self.sim.timeout(DIAL_SECONDS)
        answers = self.script.pop(0) if self.script else True
        self.dials.append((start, self.sim.now))
        if answers is REFUSED:
            raise HandshakeError("refused")
        self.transports.append(ScriptedTransport(self.sim, answers))
        return self.transports[-1]


def _session(streams=1, script=()):
    sim = Simulator()
    dialer = Dialer(sim, script)
    up = UpstreamSession(sim, dialer, streams=streams, retry_base=0.25)
    sim.run_until_complete(sim.spawn(up.connect()))
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
