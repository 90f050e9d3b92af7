"""RPC client endpoint.

:class:`RpcClient` is bound to one (program, version) over one
transport, like a TI-RPC client handle.  It supports any number of
outstanding calls: replies are matched to callers by xid — the job of
:class:`ReplyTable`, the one reply table every calling hop shares —
which is what lets the SFS baseline pipeline requests while the SGFS
prototype's blocking callers simply await one at a time.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.obs import NULL_SPAN, Histogram
from repro.rpc.auth import NULL_AUTH, OpaqueAuth
from repro.rpc.costs import EndpointCost, FREE
from repro.rpc.errors import RpcTimeout, RpcTransportError
from repro.rpc.messages import DECODE_ERRORS, CallMessage, ReplyMessage
from repro.rpc.transport import TRANSPORT_ERRORS, Transport
from repro.sim.core import Event, Simulator
from repro.sim.cpu import CPU
from repro.sim.process import any_of

_xid_counter = itertools.count(0x10_0000)


class ReplyTable:
    """One connection's reply matching: the pending table, the pump
    that fills it, and same-record retransmission.

    This is the whole calling side of a hop.  :class:`RpcClient` builds
    calls on top of it; a forwarder that already holds encoded records
    under its own xids (:class:`repro.proxy.upstream.UpstreamSession`)
    uses it directly — it registers no telemetry, so doing so adds
    nothing to a run's registry snapshot.
    """

    def __init__(self, sim: Simulator, transport: Transport,
                 name: str = "rpc-pump"):
        self.sim = sim
        self.transport = transport
        self._pending: Dict[int, Event] = {}
        #: set when the reply pump dies; new calls fail fast instead of
        #: sending into a connection nobody reads from anymore
        self._dead: Optional[RpcTransportError] = None
        #: armed by quiesce(): fires when the pending table empties
        self._drain_ev: Optional[Event] = None
        self._pump = sim.spawn(self._reply_pump(), name=name)

    def _require_alive(self) -> None:
        if self._dead is not None:
            raise RpcTransportError(f"transport is dead: {self._dead}")

    def exchange(self, xid: int, record: bytes,
                 timeout: Optional[float] = None, retrans: int = 0):
        """Process generator: send an already-encoded call and await the
        :class:`ReplyMessage` carrying its xid.

        With ``timeout`` set, the identical record is retransmitted up
        to ``retrans`` times on a doubling timer before
        :class:`RpcTimeout` is raised.  The xid stays pending across
        retransmissions, so whichever copy the server answers first
        completes the call; the pump drops the later duplicates.  Every
        transmission pays the transport's seal (``Transport.charge``)."""
        self._require_alive()
        ev = self.sim.event(name=f"rpc-reply:{xid}")
        self._pending[xid] = ev
        t = timeout
        sent = 0
        while True:
            try:
                yield from self.transport.charge(len(record))
                self.transport.send_record(record)
            except TRANSPORT_ERRORS as exc:
                self._pending.pop(xid, None)
                raise RpcTransportError(f"send failed: {exc}") from exc
            if t is None:
                return (yield ev)
            idx, value = yield any_of(self.sim, [ev, self.sim.timeout(t)])
            if idx == 0:
                return value
            if sent >= retrans:
                self._pending.pop(xid, None)
                raise RpcTimeout(
                    f"no reply for xid={xid:#x} after {sent + 1} transmissions"
                )
            sent += 1
            self._retransmitting()
            t *= 2.0

    def _retransmitting(self) -> None:
        """Hook: the same record is about to go out again."""

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def _reply_pump(self):
        while True:
            try:
                record = yield from self.transport.recv_record()
            except TRANSPORT_ERRORS as exc:
                self._fail_all(RpcTransportError(f"transport failure: {exc}"))
                return
            if record is None:
                break
            try:
                reply = ReplyMessage.decode(record)
            except DECODE_ERRORS:
                continue  # not a reply; ignore (robustness)
            ev = self._pending.pop(reply.xid, None)
            if ev is not None:
                ev.succeed(reply)
            # else: duplicate/unsolicited reply — drop
            if not self._pending and self._drain_ev is not None:
                self._drain_ev.succeed(None)
                self._drain_ev = None
        self._fail_all(RpcTransportError("connection closed with calls outstanding"))

    def _fail_all(self, exc: RpcTransportError) -> None:
        self._dead = exc
        pending, self._pending = self._pending, {}
        for ev in pending.values():
            ev.fail(exc)
        if self._drain_ev is not None:
            self._drain_ev.succeed(None)
            self._drain_ev = None

    def quiesce(self, timeout: float):
        """Process generator: wait for in-flight calls to finish (bounded).

        Used by graceful session replacement: the retiring connection
        stays open until its outstanding replies arrive, so cycling a
        healthy session does not turn live calls into retry storms."""
        if not self._pending:
            return
        self._drain_ev = self.sim.event(name="rt-drain")
        yield any_of(self.sim, [self._drain_ev, self.sim.timeout(timeout)])
        self._drain_ev = None

    def close(self) -> None:
        self.transport.close()


class RpcClient(ReplyTable):
    """Issues calls for one program/version over a transport."""

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        prog: int,
        vers: int,
        cpu: Optional[CPU] = None,
        cost: EndpointCost = FREE,
        account: str = "rpc-client",
    ):
        super().__init__(sim, transport, name=f"rpc-pump:{prog}/{vers}")
        self.prog = prog
        self.vers = vers
        self.cpu = cpu
        self.cost = cost
        self.account = account
        self.calls_sent = 0
        self.obs = sim.obs
        self.tracer = sim.tracer
        self._c_calls = self.obs.counter("rpc.client", "calls", account=account)
        self._c_bytes_out = self.obs.counter("rpc.client", "bytes_out", account=account)
        self._c_bytes_in = self.obs.counter("rpc.client", "bytes_in", account=account)
        self._c_retrans = self.obs.counter("rpc.client", "retransmissions",
                                           account=account)
        self._h_latency: Dict[int, Histogram] = {}  # by proc, bound on first use

    # -- calling ---------------------------------------------------------

    @staticmethod
    def next_xid() -> int:
        """Allocate a fresh xid from the shared counter.

        Callers that retransmit across reconnects (the NFS hard-mount
        loop) pin one xid up front so the server's duplicate-request
        cache recognises the retry as the same request.
        """
        return next(_xid_counter)

    def call(
        self,
        proc: int,
        args: bytes,
        cred: OpaqueAuth = NULL_AUTH,
        xid: Optional[int] = None,
        timeout: Optional[float] = None,
        retrans: int = 0,
    ):
        """Process generator: perform one call, return the result bytes.

        Raises an :class:`RpcError` subclass on a non-SUCCESS reply, and
        :class:`RpcTransportError` if the transport dies first.  With
        ``timeout`` set, the in-flight request is retransmitted (same
        xid, same record) up to ``retrans`` times on a doubling timer
        before :class:`RpcTimeout` is raised.
        """
        reply = yield from self.call_detailed(
            proc, args, cred, xid=xid, timeout=timeout, retrans=retrans
        )
        reply.raise_for_status()
        return reply.results

    def call_detailed(
        self,
        proc: int,
        args: bytes,
        cred: OpaqueAuth = NULL_AUTH,
        xid: Optional[int] = None,
        timeout: Optional[float] = None,
        retrans: int = 0,
    ):
        """Like :meth:`call` but returns the full :class:`ReplyMessage`."""
        self._require_alive()  # fail fast: before the call costs any CPU
        if xid is None:
            xid = next(_xid_counter)
        msg = CallMessage(xid, self.prog, self.vers, proc, cred=cred, args=args)
        record = msg.encode()
        observing = self.obs.enabled
        if observing:
            self._c_calls.inc()
            self._c_bytes_out.inc(len(record))
            start = self.sim.now
        with self.tracer.span("rpc.call", cat="rpc", prog=self.prog,
                              proc=proc) if self.tracer.enabled else NULL_SPAN:
            if self.cpu is not None:
                yield from self.cpu.consume(self.cost.cost(len(record)), self.account)
            self.calls_sent += 1
            reply: ReplyMessage = yield from self.exchange(
                xid, record, timeout, retrans
            )
            if self.cpu is not None:
                yield from self.cpu.consume(
                    self.cost.cost(len(reply.results)), self.account
                )
        if observing:
            self._c_bytes_in.inc(len(reply.results))
            hist = self._h_latency.get(proc)
            if hist is None:
                hist = self._h_latency[proc] = self.obs.histogram(
                    "rpc.client", "latency", proc=proc
                )
            hist.observe(self.sim.now - start)
        return reply

    def _retransmitting(self) -> None:
        self._c_retrans.inc()
