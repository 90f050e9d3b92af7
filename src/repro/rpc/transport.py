"""Transport abstraction the RPC endpoints run over.

A transport moves whole *records* (already RPC-framed byte blobs are the
transport's payload unit).  :class:`StreamTransport` frames them with
RFC 1831 record marking over a simulated TCP socket, and it is the only
code that does: every secure flavor is a layer over one.
:class:`SealedTransport` seals each record under a per-direction cipher
and MAC before handing it to the stream — the SFS channel as is, the
TLS channel of :mod:`repro.tls` with content types on top — and the SSH
tunnel of :mod:`repro.sshtun` frames its encrypted chunks through a
stream too.  All speak the same interface, so the RPC client/server and
the SGFS proxies are agnostic to which one they ride on.  This mirrors
the paper's secure-RPC library, where ``clnt_tli_ssl_create`` swaps the
transport under unmodified RPC code.

The interface includes its failures.  ``recv_record``/``send_record``
raise only :data:`TRANSPORT_ERRORS`, on which whoever serves or pumps
the transport ends the session *normally* (closed — not a dead
process); establishing one raises only :data:`DIAL_ERRORS`.  Anything
else that escapes a hop is a bug, and is left to escape.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.suites import CipherSuite, Direction, IntegrityError, charge_crypto
from repro.net.errors import NetError
from repro.net.socket import SimSocket
from repro.rpc.errors import RpcError
from repro.rpc.record import RecordReader, RecordWriter, DEFAULT_FRAGMENT_SIZE
from repro.xdr import XdrError


class HandshakeError(Exception):
    """Establishing a transport failed: the peer was refused (identity,
    proof, negotiation) or its handshake messages made no sense."""


#: Everything ``recv_record``/``send_record`` may raise: the connection
#: is gone, a record failed its MAC, or what the peer framed (a record
#: mark, a control message) does not parse.
TRANSPORT_ERRORS = (NetError, IntegrityError, XdrError, RpcError)

#: Everything a dial (connect, then handshake) may raise.
DIAL_ERRORS = (NetError, HandshakeError, RpcError)


class Transport:
    """Interface: record-oriented, ordered, reliable."""

    def send_record(self, record: bytes) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def recv_record(self):  # pragma: no cover - interface
        """Process generator returning the next record, or None on EOF."""
        raise NotImplementedError

    def charge(self, nbytes: int, op: str = "seal"):
        """What protecting ``nbytes`` costs, for ``yield from`` by the
        sender before :meth:`send_record` (``send_record`` itself cannot
        wait).  Free on a plain transport: nothing to iterate, so no
        event is scheduled."""
        return ()

    def close(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def closed(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class StreamTransport(Transport):
    """Record marking directly over a simulated TCP socket (no security).

    This is what native NFS and the plain GFS proxies use, and it is the
    inner layer every secure transport wraps: a handshake reads and
    writes its messages through the same instance the established
    channel then keeps, so bytes that arrive early stay buffered here.
    """

    def __init__(self, sock: SimSocket, fragment_size: int = DEFAULT_FRAGMENT_SIZE):
        self.sock = sock
        self._writer = RecordWriter(sock, fragment_size)
        self._reader = RecordReader()
        self._eof = False

    def send_record(self, record: bytes) -> None:
        self._writer.write(record)

    def recv_record(self):
        """Process generator: next full record, or None on orderly EOF."""
        while True:
            rec = self._reader.next_record()
            if rec is not None:
                return rec
            if self._eof:
                return None
            chunk = yield from self.sock.recv()
            if chunk == b"":
                self._eof = True
                if self._reader.pending == 0:
                    return None
            else:
                self._reader.feed(chunk)

    def close(self) -> None:
        self.sock.close()

    @property
    def closed(self) -> bool:
        return self.sock.closed


class SealedTransport(Transport):
    """Records sealed per direction (:class:`repro.crypto.suites.Direction`)
    over a :class:`StreamTransport`.

    Opening a record charges its bulk-crypto cost inside
    :meth:`recv_record`; sealing is charged by the sender through
    :meth:`charge`.  The CPU part lands in the hierarchical sub-account
    ``<account>/<op>:<suite>`` so the profiler can attribute cipher work
    per direction; ledger queries for the bare account still include it
    (see :class:`repro.sim.cpu.CpuLedger`).
    """

    def __init__(self, sim, stream: StreamTransport, suite: CipherSuite,
                 send: Direction, recv: Direction, cpu=None,
                 account: str = "sealed"):
        self.sim = sim
        self._stream = stream
        self.sock = stream.sock
        self.suite = suite
        self._send = send
        self._recv = recv
        self.cpu = cpu
        self.account = account
        #: pin this channel's bulk-crypto CPU charges to one core of a
        #: multi-core CPU (the server proxy assigns a per-session value);
        #: None lets the work float to any idle core.
        self.affinity: Optional[int] = None

    def charge(self, nbytes: int, op: str = "seal"):
        return charge_crypto(
            self.sim, self.cpu, self.suite, nbytes,
            f"{self.account}/{op}:{self.suite.name}", self.affinity,
        )

    def send_record(self, record: bytes) -> None:
        self._stream.send_record(self._send.seal(record))

    def recv_record(self):
        frame = yield from self._stream.recv_record()
        if frame is None:
            return None
        record = self._recv.open(frame)
        yield from self.charge(len(record), op="open")
        return record

    def close(self) -> None:
        self._stream.close()

    @property
    def closed(self) -> bool:
        return self._stream.closed
