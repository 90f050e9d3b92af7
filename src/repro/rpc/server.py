"""RPC server endpoint.

Accepts transports (plain sockets, TLS channels, SSH-tunnel exits — the
acceptor is pluggable), reads CALL records, dispatches to registered
programs, and writes replies.

Dispatch is a worker pool: every connection (session) gets its own FIFO
request queue and a fixed pool of :data:`WORKERS` worker processes
drains the queues round-robin across sessions — the service model of a
real nfsd, where clients contend for a finite thread pool and queueing
becomes visible.  Up to :data:`WORKERS` outstanding requests of a
pipelining client genuinely overlap.  Queue depth and queue wait are
exported through :mod:`repro.obs` (``rpc.server/queue_depth``,
``queue_wait``).

Dispatch is deterministic: queues are strictly FIFO, the round-robin
order is the session-arrival order, and all state lives in
insertion-ordered containers.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.obs import NULL_SPAN, Histogram
from repro.rpc.costs import EndpointCost, FREE
from repro.rpc.drc import DuplicateRequestCache, drc_key
from repro.rpc.errors import RpcError
from repro.rpc.messages import (
    CallMessage,
    DECODE_ERRORS,
    GARBAGE_ARGS,
    PROC_UNAVAIL,
    PROG_MISMATCH,
    PROG_UNAVAIL,
    SYSTEM_ERR,
    ReplyMessage,
    error_reply,
    success_reply,
)
from repro.rpc.transport import TRANSPORT_ERRORS, StreamTransport, Transport
from repro.sim.core import Simulator
from repro.sim.cpu import CPU
from repro.sim.sync import Channel, ChannelClosed
from repro.xdr import XdrError

#: Size of every server's worker pool (the nfsd thread count).
WORKERS = 8


class RpcProgram:
    """Base class for an RPC program implementation.

    Subclasses set ``prog``/``vers`` and implement :meth:`handle` as a
    process generator returning the XDR-encoded result bytes.  Raising
    :class:`GarbageArgsError`-ish conditions is signalled by raising
    ``repro.xdr.XdrError`` (mapped to GARBAGE_ARGS) or any other
    exception (mapped to SYSTEM_ERR).
    """

    prog: int = 0
    vers: int = 0
    #: Procedure numbers whose replies must go through the server's
    #: duplicate-request cache (non-idempotent operations).
    non_idempotent: frozenset = frozenset()

    def handle(self, proc: int, args: bytes, call: CallMessage, ctx: "CallContext"):
        raise NotImplementedError  # pragma: no cover - interface


class CallContext:
    """Per-call context handed to program handlers."""

    __slots__ = ("transport", "server")

    def __init__(self, transport: Transport, server: "RpcServer"):
        self.transport = transport
        self.server = server


class ProcUnavailable(RpcError):
    """Handlers raise this for unknown procedure numbers."""


class RpcServer:
    """Dispatches calls arriving on accepted transports.

    Incoming calls queue per session (per accepted transport) and
    :data:`WORKERS` worker processes drain the session queues
    round-robin — one request from the session at the head of the
    rotation, which then moves to the back.
    """

    def __init__(
        self,
        sim: Simulator,
        cpu: Optional[CPU] = None,
        cost: EndpointCost = FREE,
        account: str = "rpc-server",
        name: str = "rpc-server",
    ):
        self.sim = sim
        self.cpu = cpu
        self.cost = cost
        self.account = account
        self.name = name
        self.calls_served = 0
        self.obs = sim.obs
        self.tracer = sim.tracer
        self._c_calls = self.obs.counter("rpc.server", "calls", server=name)
        self._c_bytes_in = self.obs.counter("rpc.server", "bytes_in", server=name)
        self._c_bytes_out = self.obs.counter("rpc.server", "bytes_out", server=name)
        self._h_queue_depth = self.obs.histogram("rpc.server", "queue_depth", server=name)
        self._h_queue_wait = self.obs.histogram("rpc.server", "queue_wait", server=name)
        self._g_sessions_queued = self.obs.gauge("rpc.server", "sessions_queued", server=name)
        self._h_service_time: Dict[int, Histogram] = {}  # by proc
        self._programs: Dict[Tuple[int, int], RpcProgram] = {}
        self._versions: Dict[int, Tuple[int, int]] = {}
        self.drc = DuplicateRequestCache(sim, name=name)
        self._listeners: list = []  # what serve_listener accepts on
        self._transports: list = []
        #: per-session FIFO of (record, enqueued_at); insertion-ordered
        self._session_q: Dict[Transport, Deque[Tuple[bytes, float]]] = {}
        #: round-robin rotation of sessions with pending requests
        self._rr: Deque[Transport] = deque()
        self._rr_members: set = set()  # membership only, never iterated
        #: one token per queued request; workers block on get()
        self._work = Channel(sim, name=f"{name}.work")
        self._pending = 0
        self._workers_started = False
        #: profiling timeline: (virtual_time, pending_depth) sampled at
        #: every depth change, recorded only when ``sim.profile`` is set.
        self.queue_timeline: list = []

    # -- registration ------------------------------------------------------

    def register(self, program: RpcProgram) -> None:
        key = (program.prog, program.vers)
        if key in self._programs:
            raise RpcError(f"program {key} already registered")
        self._programs[key] = program
        low, high = self._versions.get(program.prog, (program.vers, program.vers))
        self._versions[program.prog] = (min(low, program.vers), max(high, program.vers))

    # -- serving -------------------------------------------------------------

    def serve_listener(self, listener) -> None:
        """Accept plain-socket connections from a Listener until it closes."""
        self._listeners.append(listener)
        self.sim.spawn(
            listener.serve(lambda sock: self.serve_transport(StreamTransport(sock))),
            name=f"{self.name}.accept",
        )

    def serve_transport(self, transport: Transport) -> None:
        """Serve RPC calls arriving on an established transport."""
        self._transports.append(transport)
        self.sim.spawn(self._connection_loop(transport), name=f"{self.name}.conn")

    def stop(self) -> None:
        """Shut down: stop accepting, close every connection, and end
        the worker pool once it has taken what is queued.  A request
        read after this is dropped."""
        for listener in self._listeners:
            listener.close()
        for transport in list(self._transports):
            transport.close()
        self._work.close()

    def crash(self) -> None:
        """Stop accepting and reset every connection.  The DRC survives:
        a restarting server's stable reply cache."""
        for listener in self._listeners:
            listener.close()
        transports, self._transports = self._transports, []
        for transport in transports:
            transport.sock.abort()

    def restart(self) -> None:
        """Come back up after :meth:`crash`: listen on the same ports."""
        for old in [lst for lst in self._listeners if lst.closed]:
            self._listeners.remove(old)
            self.serve_listener(old.host.listen(old.port))

    def _connection_loop(self, transport: Transport):
        try:
            while True:
                record = yield from transport.recv_record()
                if record is None:
                    return
                self._enqueue(transport, record)
        except (*TRANSPORT_ERRORS, ChannelClosed):  # a read after stop()
            return
        finally:
            if transport in self._transports:
                self._transports.remove(transport)
            # Drop an exhausted session's (empty) queue; a queue with
            # pending work stays until the workers drain it.
            q = self._session_q.get(transport)
            if q is not None and not q:
                del self._session_q[transport]

    # -- worker pool ---------------------------------------------------------

    def _enqueue(self, transport: Transport, record: bytes) -> None:
        """Queue one request on its session and post a work token."""
        if not self._workers_started:
            for i in range(WORKERS):
                self.sim.spawn(self._worker(), name=f"{self.name}.worker{i}")
            self._workers_started = True
        q = self._session_q.get(transport)
        if q is None:
            q = self._session_q[transport] = deque()
        q.append((record, self.sim.now))
        if transport not in self._rr_members:
            self._rr.append(transport)
            self._rr_members.add(transport)
        self._pending += 1
        if self.sim.profile:
            self.queue_timeline.append((self.sim.now, self._pending))
        if self.obs.enabled:
            self._h_queue_depth.observe(self._pending)
            self._g_sessions_queued.set(len(self._rr))
        self._work.put(None)

    def _worker(self):
        """One pool worker: take the next session in the rotation, serve
        one of its requests, rotate it to the back."""
        while True:
            try:
                yield self._work.get()
            except ChannelClosed:
                return  # stopped, and the queue is drained
            transport = self._rr.popleft()
            q = self._session_q[transport]
            record, enqueued_at = q.popleft()
            if q:
                self._rr.append(transport)  # fair rotation
            else:
                self._rr_members.discard(transport)
                if transport not in self._transports:
                    del self._session_q[transport]
            self._pending -= 1
            if self.sim.profile:
                self.queue_timeline.append((self.sim.now, self._pending))
            if self.obs.enabled:
                self._h_queue_wait.observe(self.sim.now - enqueued_at)
            yield from self._handle_record(transport, record)

    # -- per-call ----------------------------------------------------------

    def _handle_record(self, transport: Transport, record: bytes):
        if self.obs.enabled:
            self._c_calls.inc()
            self._c_bytes_in.inc(len(record))
        start = self.sim.now
        if self.cpu is not None:
            yield from self.cpu.consume(self.cost.cost(len(record)), self.account)
        try:
            call = CallMessage.decode(record)
        except DECODE_ERRORS:
            return  # undecodable header: drop, like a real server
        program = self._programs.get((call.prog, call.vers))
        if program is not None and call.proc in program.non_idempotent:
            encoded, fresh = yield from self.drc.once(
                drc_key(call), lambda: self._execute(transport, call, start)
            )
        else:
            encoded = yield from self._execute(transport, call, start)
            fresh = True
        try:
            transport.send_record(encoded)
        except TRANSPORT_ERRORS:
            return  # peer went away; the retransmission loop covers it
        if fresh:
            self.calls_served += 1

    def _execute(self, transport: Transport, call: CallMessage, start: float):
        """Process generator: dispatch one call and charge its reply;
        returns the encoded reply record."""
        with self.tracer.span(
            "rpc.serve", cat="rpc", server=self.name,
            prog=call.prog, proc=call.proc,
        ) if self.tracer.enabled else NULL_SPAN:
            reply = yield from self._dispatch(transport, call)
            if self.cpu is not None:
                yield from self.cpu.consume(
                    self.cost.cost(len(reply.results)), self.account
                )
        if self.obs.enabled:
            self._c_bytes_out.inc(len(reply.results))
            hist = self._h_service_time.get(call.proc)
            if hist is None:
                hist = self._h_service_time[call.proc] = self.obs.histogram(
                    "rpc.server", "service_time", server=self.name, proc=call.proc
                )
            hist.observe(self.sim.now - start)
        return reply.encode()

    def _dispatch(self, transport: Transport, call: CallMessage):
        program = self._programs.get((call.prog, call.vers))
        if program is None:
            if call.prog in self._versions:
                low, high = self._versions[call.prog]
                reply = error_reply(call.xid, PROG_MISMATCH)
                reply.mismatch_low, reply.mismatch_high = low, high
                return reply
            return error_reply(call.xid, PROG_UNAVAIL)
        ctx = CallContext(transport, self)
        try:
            results = yield from program.handle(call.proc, call.args, call, ctx)
        except ProcUnavailable:
            return error_reply(call.xid, PROC_UNAVAIL)
        except XdrError:
            return error_reply(call.xid, GARBAGE_ARGS)
        except Exception:
            # the one catch-all in the tree: whatever a program (an RPC
            # service, a management service's handler) raises, its
            # caller is answered with a protocol error
            return error_reply(call.xid, SYSTEM_ERR)
        if isinstance(results, ReplyMessage):
            return results  # handler built a full reply (proxies do this)
        return success_reply(call.xid, results)
