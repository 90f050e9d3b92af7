"""TCP-like stream sockets over the simulated network.

Semantics implemented (the subset the RPC stack needs, faithfully):

- connection establishment via a SYN/SYN-ACK exchange (costs one RTT),
- ordered byte-stream delivery — each ``send`` becomes one transport
  segment, so message boundaries are *not* guaranteed to the receiver
  and the RPC record-marking layer genuinely has to reassemble,
- graceful close via FIN (reader drains buffered data, then sees EOF),
- abortive teardown surfaces :class:`ConnectionReset` to blocked readers,
- either kind of close also ends the closing side's own reads: after a
  close it sees EOF once what had arrived is read, after an abort a
  reset.

Segments of one connection traverse the same route through FIFO link
queues, so on a fault-free network they arrive in order.  Each segment
nevertheless carries a sequence number: when a :class:`FaultPlan
<repro.faults.FaultPlan>` is installed, segments can be dropped (then
redelivered after an RTO, arriving late), delayed, or duplicated, and
the receiver reassembles the stream — buffering out-of-order arrivals,
discarding duplicates — so the byte stream stays exact under loss.
The FIN is sequenced too, so EOF cannot overtake in-flight data.
"""

from __future__ import annotations

from typing import Deque, Optional
from collections import deque

from repro.sim.core import Event, Simulator
from repro.sim.sync import Channel, ChannelClosed
from repro.net.errors import ConnectionReset, NetError

#: Fixed per-segment header overhead charged on the wire (TCP/IP-ish).
SEGMENT_OVERHEAD = 66


class SimSocket:
    """One endpoint of an established stream connection."""

    def __init__(self, sim: Simulator, host: "HostLike", peer_host_name: str, conn_id: str):
        self.sim = sim
        self.host = host
        self.peer_host_name = peer_host_name
        self.conn_id = conn_id
        self.peer: Optional["SimSocket"] = None  # set by Host at setup
        self._rx = Channel(sim, name=f"rx:{conn_id}")
        self._buffer = bytearray()
        self._eof = False
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self._tx_seq = 0  # next sequence number to send
        self._rx_next = 0  # next sequence number expected from peer
        self._rx_ooo: dict = {}  # out-of-order segments awaiting reassembly

    # -- sending -------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Queue ``data`` for delivery to the peer (non-blocking).

        Each call produces one wire segment of ``len(data) + header``
        bytes.  Raises once the socket is closed locally.
        """
        if self.closed:
            raise ConnectionReset(f"send on closed socket {self.conn_id}")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("send() wants bytes")
        payload = bytes(data)
        if not payload:
            return
        self.bytes_sent += len(payload)
        peer = self._require_peer()
        seq = self._tx_seq
        self._tx_seq += 1
        self.host.network.deliver(
            self.host.name,
            self.peer_host_name,
            len(payload) + SEGMENT_OVERHEAD,
            lambda: peer._on_segment(seq, payload),
            kind="stream",
        )

    def _on_segment(self, seq: int, payload) -> None:
        if self.closed:
            return  # segment raced with local close: drop it
        if seq < self._rx_next or seq in self._rx_ooo:
            return  # duplicate (fault-injected copy or RTO redelivery)
        if seq != self._rx_next:
            self._rx_ooo[seq] = payload  # arrived early; hold for reassembly
            return
        self._deliver(payload)
        self._rx_next += 1
        while self._rx_next in self._rx_ooo:
            self._deliver(self._rx_ooo.pop(self._rx_next))
            self._rx_next += 1

    def _deliver(self, payload) -> None:
        self._rx.put(payload)

    # -- receiving -----------------------------------------------------

    def recv(self):
        """Process generator: yield-from to receive the next chunk.

        Returns ``b""`` on orderly EOF.  Chunks are whatever segment
        sizes the sender produced — callers needing exact lengths use
        :meth:`recv_exactly`.
        """
        if self._buffer:
            # Left over from a previous recv_exactly; already counted in
            # bytes_received when the segment arrived.
            out = bytes(self._buffer)
            self._buffer.clear()
            return out
        return (yield from self._recv_segment())

    def _recv_segment(self):
        if self._eof:
            return b""
        try:
            chunk = yield self._rx.get()
        except ChannelClosed:
            raise ConnectionReset(f"connection {self.conn_id} reset") from None
        if chunk is _FIN:
            self._eof = True
            return b""
        self.bytes_received += len(chunk)
        return chunk

    def recv_exactly(self, n: int):
        """Process generator: receive exactly ``n`` bytes (or raise on EOF)."""
        while len(self._buffer) < n:
            chunk = yield from self._recv_segment()
            if chunk == b"":
                raise ConnectionReset(
                    f"EOF after {len(self._buffer)}/{n} bytes on {self.conn_id}"
                )
            self._buffer.extend(chunk)
        out = bytes(self._buffer[:n])
        del self._buffer[:n]
        return out

    # -- teardown ------------------------------------------------------

    def close(self) -> None:
        """Orderly close: peer sees EOF after draining in-flight data, and
        so does a reader of this side, after what had arrived."""
        if self.closed:
            return
        self.closed = True
        if not self._rx.closed:
            self._rx.put(_FIN)
        peer = self.peer
        if peer is not None and not peer.closed:
            seq = self._tx_seq
            self._tx_seq += 1
            self.host.network.deliver(
                self.host.name,
                self.peer_host_name,
                SEGMENT_OVERHEAD,
                lambda: peer._on_segment(seq, _FIN),
                kind="stream",
            )

    def abort(self) -> None:
        """Abortive close: blocked/future reads on the peer raise reset,
        and so do those on this side."""
        if self.closed:
            return
        self.closed = True
        self._rx.close()
        peer = self.peer
        if peer is not None and not peer.closed:
            self.host.network.deliver(
                self.host.name,
                self.peer_host_name,
                SEGMENT_OVERHEAD,
                lambda: peer._rx.close(),
            )

    def _require_peer(self) -> "SimSocket":
        if self.peer is None:
            raise NetError(f"socket {self.conn_id} not wired to a peer")
        return self.peer

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimSocket {self.conn_id} {'closed' if self.closed else 'open'}>"


#: In-band marker for orderly shutdown.
_FIN = object()


class Listener:
    """A passive endpoint accepting connections on (host, port)."""

    def __init__(self, sim: Simulator, host: "HostLike", port: int):
        self.sim = sim
        self.host = host
        self.port = port
        self._backlog = Channel(sim, name=f"accept:{host.name}:{port}")
        self.closed = False

    def accept(self) -> Event:
        """Event firing with the next accepted :class:`SimSocket`, or
        failing with :class:`ChannelClosed` once the listener is closed."""
        return self._backlog.get()

    def serve(self, session):
        """Process generator — the accept loop every server runs: call
        ``session(sock)`` for each connection until the listener closes."""
        while True:
            try:
                sock = yield self.accept()
            except ChannelClosed:
                return
            session(sock)

    def _enqueue(self, sock: SimSocket) -> None:
        self._backlog.put(sock)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.host._unbind(self.port)
            self._backlog.close()


class HostLike:
    """Interface sockets require of their host (see repro.net.host)."""

    name: str
    network: object

    def _unbind(self, port: int) -> None:  # pragma: no cover - protocol stub
        raise NotImplementedError
