"""The client proxy's upstream leg: channels, retry ladder, striping.

One :class:`UpstreamSession` is one recoverable proxy-to-server leg,
one per backend of the :class:`repro.grid.GridRouter` a client proxy
sends through.  It owns *how* a call crosses the WAN (xids,
connections and their replacement, backoff, the RTT-sized window,
burst placement on channels);
:class:`repro.proxy.client_proxy.SgfsClientProxy` decides *what* to send.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Callable, List, Optional

from repro.nfs import protocol as pr
from repro.obs.schema import metric_key
from repro.rpc.compound import (
    COMPOUND_EXEC, COMPOUND_PROGRAM, COMPOUND_VERSION, pack_members, unpack_members,
)
from repro.rpc.client import ReplyTable
from repro.rpc.errors import RpcError
from repro.rpc.messages import DECODE_ERRORS, CallMessage, ReplyMessage
from repro.rpc.transport import DIAL_ERRORS, StreamTransport, Transport
from repro.sim.core import Event, Simulator
from repro.sim.process import all_of
from repro.tls.channel import SecureChannel, client_handshake

#: bulk data procedures — the traffic round-robined across channels
_BULK_PROCS = frozenset((int(pr.Proc.READ), int(pr.Proc.WRITE)))
_WRITE, _COMMIT = int(pr.Proc.WRITE), int(pr.Proc.COMMIT)
#: small calls that make nfsd flush before it answers, as a FILE_SYNC
#: WRITE does: the namespace and attribute mutations
_SYNC_PROCS = frozenset(int(p) for p in pr.NON_IDEMPOTENT_PROCS)

#: EWMA gain for the per-session RTT estimators (RFC 6298's 1/8)
_RTT_ALPHA = 0.125
#: floor on the bulk-minus-small service-time estimate (virtual seconds)
#: so a leg whose bulk calls are barely slower than its control calls
#: cannot demand an unbounded window
_RTT_FLOOR = 1e-4
#: ceiling on the RTT-sized pipeline window of a multi-stream leg
MAX_WINDOW = 64
#: startup (BBR's): a delivery-rate sample this many times the leg's
#: rate when its burst left has found the rate still growing; this many
#: samples in a row that have not end startup
_STARTUP_GROWTH = 1.25
_STARTUP_ROUNDS = 3


def dialer(sim: Simulator, host, target: str, port: int, security=None):
    """The session's dial, as an :class:`UpstreamSession`'s
    ``upstream_factory``: a process generator that connects ``host`` to
    ``target:port`` and returns the transport — the bare stream, or the
    secure channel a handshake under ``security`` (a
    :class:`repro.tls.SecurityConfig`) yields.  gfs, sgfs and gfs-ssh
    differ only here.  ``security`` is read when a dial runs: a
    credential renewed on it since is what the next handshake presents."""

    def dial():
        sock = yield from host.connect(target, port)
        if security is None:
            return StreamTransport(sock)
        return (yield from client_handshake(
            sim, sock, security, cpu=host.cpu, account="proxy"
        ))

    return dial


def _committed(handles, replies, files) -> bool:
    """Whether a two-phase batch is durable: each file's COMMIT (the
    replies past the WRITEs', in ``files`` order) is OK, with the
    verifier of every WRITE to it that succeeded (``handles`` names
    each WRITE's file)."""
    verf = {}
    for fh, reply in zip(files, replies[len(handles):]):
        res = pr.read_ok(reply, pr.unpack_commit_res)
        if res is None:
            return False
        verf[fh] = res[2]
    writes = (pr.read_ok(reply, pr.unpack_write_res) for reply in replies)
    return all(res is None or res[4] == verf.get(fh) for fh, res in zip(handles, writes))


class _Channel:
    """One connection of a leg, with its own reconnect gate so a dead
    channel is replaced independently of its siblings."""

    __slots__ = ("router", "reconnecting")

    def __init__(self) -> None:
        #: the current connection's reply table (it holds the transport)
        self.router: Optional[ReplyTable] = None
        #: in-progress replacement dial (Event), if any
        self.reconnecting: Optional[Event] = None


class UpstreamSession:
    """One recoverable proxy-to-server leg: channels + xids + retry.

    The leg is a DotDFS-style parallel transfer pipe of ``streams``
    channels (each its own TCP socket + TLS record stream, dialed
    sequentially so ticket resumption chains the session keys).  Bulk
    READ/WRITE traffic round-robins across the channels, everything
    else is pinned to channel 0, and all channels draw xids from the
    one shared stream — so the server-side DRC recognizes a retry no
    matter which channel or connection generation carries it.

    ``streams=1`` is the paper's proxy: one connection, and a pipeline
    window of one block (stop-and-wait) — the same code, run at N = 1.
    """

    def __init__(
        self,
        sim: Simulator,
        upstream_factory: Callable[[], "object"],
        timeo: Optional[float] = None,
        retry_max: int = 5,
        retry_base: float = 0.5,
        retry_cap: float = 10.0,
        streams: int = 1,
        name: str = "up",
    ):
        self.sim = sim
        self.upstream_factory = upstream_factory
        #: counter sink — the owning proxy swaps in its stats dict so
        #: ``upstream_retries`` lands in the proxy.client collector
        self.stats: dict = {}
        #: reply timeout / same-record retransmission budget per attempt
        #: (None = wait forever, the historical mode)
        self.timeo = timeo
        self.retrans = 2
        #: reconnect-and-retry budget when the leg fails
        self.retry_max = retry_max
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        #: rewritten-xid source, shared across channels and router
        #: generations so a retried call keeps its xid (the upstream DRC
        #: keys on it)
        self._next_xid = itertools.count(0x7000_0001).__next__
        self.streams = max(1, int(streams))
        self.name = name
        self._channels = [_Channel() for _ in range(self.streams)]
        #: per-channel (calls, bytes) keys of the proxy.client collector
        self._stream_keys = [
            tuple(metric_key(m, {"leg": name, "ch": ch})
                  for m in ("stream_calls", "stream_bytes"))
            for ch in range(self.streams)
        ]
        #: round-robin cursor for bulk READ/WRITE traffic
        self._rr_bulk = 0
        #: smoothed RTT estimators (virtual seconds, deterministic):
        #: small control RPCs approximate the raw round trip, bulk block
        #: RPCs that cross alone add the per-block service time — their
        #: gap sizes the pipeline window (see :meth:`window`).  Small
        #: mutations, which make nfsd flush, keep an estimator of their own
        self.srtt_small: Optional[float] = None
        self.srtt_sync: Optional[float] = None
        self.srtt_bulk: Optional[float] = None
        #: bursts in flight on the leg (see :meth:`burst`)
        self._bursting = 0
        #: blocks the leg's bursts have delivered, and the highest rate
        #: (blocks per virtual second) a burst has seen them delivered
        #: at: a max filter over the bursts' delivery-rate samples
        self._delivered = 0
        self.rate = 0.0
        #: delivery-rate samples in a row that found :attr:`rate` flat
        #: (see :attr:`growing`)
        self._flat = 0

    @property
    def transport(self) -> Optional[Transport]:
        """Channel 0's current connection — the control channel."""
        router = self._channels[0].router
        return router.transport if router is not None else None

    def _count(self, key: str, n: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + n

    def connect(self):
        """Process generator: establish the channel(s), start the pumps.

        Channels dial strictly one after another: each handshake
        deposits a fresh session ticket in the client's slot for this
        leg's server, so channel k+1 resumes the keys channel k
        negotiated and the dial order — hence the whole run — stays
        deterministic.  A router dials its legs at once; the per-server
        slots keep each leg's chain to itself."""
        for ch in self._channels:
            ch.router = ReplyTable(
                self.sim, (yield from self.upstream_factory()), name="cproxy-pump"
            )
        return self

    def _observe_rtt(self, bulk: bool, sample: float, sync: bool = False) -> None:
        """Feed one round trip to its estimator.  ``sync``: the call made
        nfsd flush before it answered.  A small one feeds
        :attr:`srtt_sync`; a bulk one (a lone FILE_SYNC WRITE) is measured
        against those calls, like with like: it feeds :attr:`srtt_bulk`
        less their flush, what the same block costs a burst member
        (UNSTABLE, one COMMIT per share) that does not flush alone."""
        if bulk and sync and self.srtt_sync is not None and self.srtt_small is not None:
            sample -= self.srtt_sync - self.srtt_small
        attr = "srtt_bulk" if bulk else "srtt_sync" if sync else "srtt_small"
        prev = getattr(self, attr)
        setattr(self, attr, sample if prev is None else prev + _RTT_ALPHA * (sample - prev))

    def window(self) -> int:
        """How many bulk blocks this leg's round trip holds: its pipe.

        A single-stream leg is the paper's proxy: one block per round
        trip.  A multi-stream leg hides one round trip (GridFTP-style
        pipelining): at least the one-block estimate, RTT / per-block
        service time, and as many blocks as the leg delivers in a round
        trip at its best delivery rate (:meth:`burst`), at most
        :data:`MAX_WINDOW`.  The client proxy splits it into bursts
        (:meth:`SgfsClientProxy._pipeline`).  The estimators are
        virtual-time figures fed by the leg's own calls, so the same
        seed always sizes the same windows; until both RTTs have a
        sample the window is 1."""
        if self.streams == 1:
            return 1
        if self.srtt_small is None or self.srtt_bulk is None:
            return 1
        service = max(self.srtt_bulk - self.srtt_small, _RTT_FLOOR)
        one = math.ceil(self.srtt_small / service)
        delivered = math.ceil(self.srtt_small * self.rate)
        return max(1, min(MAX_WINDOW, max(one, delivered)))

    @property
    def growing(self) -> bool:
        """Whether the leg is in startup, as BBR's is: until
        :data:`_STARTUP_ROUNDS` delivery-rate samples in a row
        (:meth:`burst`) come in under :data:`_STARTUP_GROWTH` times the
        rate their burst left at.  Startup then ends for the session."""
        return self._flat < _STARTUP_ROUNDS

    def _note_stream(self, channel: int, nbytes: int) -> None:
        calls, volume = self._stream_keys[channel]
        self._count(calls)
        self._count(volume, nbytes)

    def _send(self, xid: int, record: bytes, channel: int):
        """Process generator: the leg's one send-with-retry ladder.

        ``record`` was encoded once by the caller, so every
        retransmission — including those sent over a *replacement*
        connection after the server-side proxy restarts — is the same
        request to the upstream DRC, which replays rather than
        re-executes non-idempotent procedures."""
        failures = 0
        while True:
            router = self._channels[channel].router
            try:
                return (yield from router.exchange(
                    xid, record, timeout=self.timeo, retrans=self.retrans,
                ))
            except RpcError:
                failures += 1
                if failures > self.retry_max:
                    raise
                self._count("upstream_retries")
                backoff = self.retry_base * 2.0 ** (failures - 1)
                yield self.sim.timeout(min(self.retry_cap, backoff))
                yield from self.ensure(channel, router)

    def forward(self, call: CallMessage, channel: Optional[int] = None,
                sample: bool = True):
        """Forward upstream, surviving timeouts and transport death
        (see :meth:`_send`).  ``channel`` pins the call to a specific
        channel; by default bulk READ/WRITE round-robins across the
        channels in issue order and everything else (the metadata
        stream, whose ordering matters) stays on channel 0.  ``sample``
        False keeps the round trip out of the RTT estimators."""
        bulk = call.prog == pr.NFS_PROGRAM and call.proc in _BULK_PROCS
        if channel is None:
            channel = 0
            if bulk and self.streams > 1:
                channel = self._rr_bulk % self.streams
                self._rr_bulk += 1
        xid = self._next_xid()
        record = CallMessage(
            xid, call.prog, call.vers, call.proc, call.cred, call.verf, call.args
        ).encode()
        started = self.sim.now
        reply = yield from self._send(xid, record, channel)
        if sample:
            self._observe_rtt(bulk, self.sim.now - started,
                              call.prog == pr.NFS_PROGRAM and call.proc in _SYNC_PROCS)
        if self.streams > 1:
            self._note_stream(channel, len(record))
        return reply

    def forward_batch(self, calls: List[CallMessage], channel: int = 0):
        """Process generator: many calls, one compound round trip
        (:mod:`repro.rpc.compound`).  Returns one
        ``Optional[ReplyMessage]`` per call, in call order (``None`` when
        the server could not decode or answer it).  A batch of WRITEs
        is written in two phases (:meth:`_write_batch`)."""
        if len(calls) == 1:
            # a single call needs no envelope; whether its round trip is
            # an RTT sample is for the burst to say (see :meth:`burst`)
            return [(yield from self.forward(calls[0], channel=channel,
                                             sample=False))]
        if all(c.prog == pr.NFS_PROGRAM and c.proc == _WRITE for c in calls):
            return (yield from self._write_batch(calls, channel))
        return (yield from self._envelope(calls, channel))

    def _write_batch(self, calls: List[CallMessage], channel: int):
        """Process generator: WRITEs in two phases (RFC 1813 §3.3.21), in
        one envelope: the WRITEs UNSTABLE, then one COMMIT per file.  The
        server proxy runs members in list order, so each COMMIT covers
        the WRITEs before it.  Their replies are returned only if every
        COMMIT is OK with the verifier of its file's WRITEs; otherwise
        the server may have lost them (a reboot in between) and the
        calls are sent again as given, ``FILE_SYNC``."""
        handles, batch, files = [], [], {}
        for call in calls:
            fh, args = pr.unstable_write_args(call.args)
            handles.append(fh)
            batch.append(replace(call, args=args))
            if fh not in files:
                files[fh] = replace(call, proc=_COMMIT, args=pr.pack_commit_args(fh))
        batch.extend(files.values())
        replies = yield from self._envelope(batch, channel)
        if _committed(handles, replies, files):
            return replies[:len(calls)]
        return (yield from self._envelope(calls, channel))

    def _envelope(self, calls: List[CallMessage], channel: int):
        """Process generator: the calls as one compound envelope.  Member
        xids and records are fixed *before* the envelope first goes
        out, so a retransmitted envelope replays byte-identical members
        to the server-side DRC.  The member records and ``calls`` are
        let go once the envelope is encoded (every caller hands over a
        list of its own, emptied here): while the envelope is out, a
        burst's payload is not also held in two copies behind it."""
        members = [
            CallMessage(
                self._next_xid(), call.prog, call.vers, call.proc,
                call.cred, call.verf, call.args,
            ).encode()
            for call in calls
        ]
        env_xid = self._next_xid()
        envelope = CallMessage(
            env_xid, COMPOUND_PROGRAM, COMPOUND_VERSION, COMPOUND_EXEC,
            args=pack_members(members),
        ).encode()
        count = len(members)
        del members
        calls.clear()
        reply = yield from self._send(env_xid, envelope, channel)
        if self.streams > 1:
            self._note_stream(channel, len(envelope))
        self._count("compound_envelopes")
        self._count("compound_members", count)
        reply.raise_for_status()
        out: List[Optional[ReplyMessage]] = []
        for record in unpack_members(reply.results):
            if not record:
                out.append(None)
                continue
            try:
                out.append(ReplyMessage.decode(record))
            except DECODE_ERRORS:
                out.append(None)
        return out

    def burst(self, calls: List[CallMessage]):
        """Process generator: issue a burst of bulk calls, return one
        ``Optional[ReplyMessage]`` per call in issue order.

        The striping policy: call ``i`` rides channel ``i % streams``,
        each channel's share as one :meth:`forward_batch`, spawned in
        channel order and joined in spawn order — completion order
        never leaks into the result.

        Only a burst that *is* one call, issued while no other burst is
        in flight on the leg, feeds the bulk RTT estimator.  The one-call
        share of a wider burst (the ragged tail: 5 calls over 4 channels
        ride as 2, 1, 1, 1), or a lone call issued behind another burst,
        shares the link, so its round trip carries that traffic's
        queueing, not one block's service time.

        Every burst that lands takes a delivery-rate sample, as BBR
        does: the blocks the leg delivered while it was out — its own
        and those of bursts that overlapped it, counted as each burst
        lands — over the time it was out.  :attr:`rate` keeps the
        highest, and the sample counts toward the end of startup
        (:attr:`growing`)."""
        n = self.streams
        alone = len(calls) == 1 and not self._bursting
        self._bursting += 1
        started, delivered, rate = self.sim.now, self._delivered, self.rate
        procs = [
            self.sim.spawn(self.forward_batch(calls[ch::n], channel=ch),
                           name=f"bulk-ch{ch}")
            for ch in range(min(n, len(calls)))
        ]
        try:
            results = yield all_of(self.sim, procs)
        finally:
            self._bursting -= 1
        self._delivered += len(calls)
        elapsed = self.sim.now - started
        if elapsed > 0:
            sample = (self._delivered - delivered) / elapsed
            if self.growing:
                self._flat = 0 if sample >= _STARTUP_GROWTH * rate else self._flat + 1
            self.rate = max(self.rate, sample)
        if alone:
            # a lone WRITE goes as given, FILE_SYNC: it flushes
            self._observe_rtt(True, elapsed, calls[0].proc == _WRITE)
        replies: List[Optional[ReplyMessage]] = [None] * len(calls)
        for ch, share in enumerate(results):
            for i, reply in zip(range(ch, len(calls), n), share):
                replies[i] = reply
        return replies

    def _replace(self, ch: _Channel, drain: bool):
        """Process generator: dial a fresh connection, make it ``ch``'s
        current one, retire the old.  Returns False — ``ch`` untouched —
        when the dial fails (:data:`~repro.rpc.transport.DIAL_ERRORS`:
        the server proxy is unreachable or refuses us).  Nothing else is
        caught: an :class:`~repro.sim.Interrupt` thrown into the dial
        stops the caller, it does not read as a failed dial.

        ``drain`` is for replacing a *healthy* connection: the new one
        handshakes before the old one closes, in-flight replies get a
        bounded chance to land on the old one, and whatever is still
        unanswered then fails over through its normal retry path."""
        try:
            upstream = yield from self.upstream_factory()
        except DIAL_ERRORS:
            return False
        old, ch.router = ch.router, ReplyTable(
            self.sim, upstream, name="cproxy-pump"
        )
        if drain:
            yield from old.quiesce(timeout=1.0)
        old.close()  # its pump sees EOF and fails what is still unanswered
        return True

    def ensure(self, channel: int, failed_router: ReplyTable):
        """Process generator: replace a dead channel's connection, at
        most one dial at a time per channel across all concurrent
        callers.

        A failed attempt returns (the caller's backoff loop retries
        within its own budget) rather than looping here, so total
        patience is governed by ``retry_max``."""
        ch = self._channels[channel]
        if ch.router is not failed_router:
            return  # another caller already replaced it
        if ch.reconnecting is not None:
            yield ch.reconnecting
            return
        gate = ch.reconnecting = self.sim.event(
            name=f"cproxy-reconnect-ch{channel}"
        )
        try:
            yield from self._replace(ch, drain=False)
        finally:
            ch.reconnecting = None
            gate.succeed(None)

    def close(self) -> None:
        """End the leg (session teardown): close every channel."""
        for ch in self._channels:
            if ch.router is not None:
                ch.router.close()

    def renegotiate(self) -> None:
        """Rekey every channel that is a secure channel (a reload's
        rekey signal, see :meth:`SecureChannel.renegotiate`)."""
        for ch in self._channels:
            if isinstance(ch.router.transport, SecureChannel):
                ch.router.transport.renegotiate()

    def cycle(self):
        """Process generator: proactively tear down and re-establish the
        upstream session (operator-driven reconnects: proxy restarts,
        credential rollover, periodic session refresh).

        Channels cycle strictly in index order (sequential dials keep
        ticket chaining deterministic); with session tickets enabled
        the replacement handshakes resume abbreviated.  A failed dial
        ends the cycle: the server proxy is down, keep the sessions we
        have.  Channel 0's gate is held throughout, so a second cycle
        waits instead of dialing alongside."""
        first = self._channels[0]
        if first.reconnecting is not None:
            yield first.reconnecting
            return
        gate = first.reconnecting = self.sim.event(name="cproxy-cycle")
        try:
            for ch in self._channels:
                if not (yield from self._replace(ch, drain=True)):
                    return
        finally:
            first.reconnecting = None
            gate.succeed(None)
