"""Secure channel: handshake and record protection.

Wire format: each protocol record travels as one record of the
:class:`~repro.rpc.transport.StreamTransport` made from the socket (the
handshake and the established channel share it) and starts with a
one-byte content type:

- HANDSHAKE — hello/key-exchange/finished messages, in the clear
  (their secrecy is not required; authenticity comes from Finished MACs
  over the transcript, like TLS),
- DATA — application records,
- RENEG / RENEG_ACK — rekeying for long-lived sessions (§4.2),
- CLOSE_NOTIFY — authenticated end of stream.

Every type but HANDSHAKE is sealed by the shared record layer
(:class:`repro.crypto.suites.Direction`) with the type byte as its
additional authenticated data:
``cipher(payload || HMAC(seq || type || payload))``.

The handshake (client-initiated, mutual authentication):

1. C→S ``ClientHello``: client_random, requested suite, client cert chain
2. S→C ``ServerHello``: server_random, confirmed suite, server cert chain
   (the server validates the client chain against its trust anchors
   before answering — GSI authentication happens here)
3. C→S ``KeyExchange``: premaster encrypted to the server's public key,
   then ``Finished``: HMAC(master, transcript)
4. S→C ``Finished``: HMAC(master, transcript + "server")

Key material for both directions is derived from the master secret via
the KDF in :mod:`repro.crypto.suites`.

CPU accounting: both the handshake's public-key operations and the
per-byte bulk cipher/MAC work are charged to the endpoint's host CPU
under a caller-chosen account, which is how the security overhead the
paper measures (Figs. 4–6) arises organically.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.hmac import constant_time_equal, hmac_sha256
from repro.crypto.suites import Direction, IntegrityError, derive_directions
from repro.crypto.rsa import CryptoError
from repro.gsi.certs import CertError, Certificate, ValidationError, validate_chain
from repro.gsi.names import DistinguishedName, DnError
from repro.net.socket import SimSocket
from repro.rpc.transport import HandshakeError, SealedTransport, StreamTransport
from repro.sim.core import Simulator
from repro.sim.cpu import CPU
from repro.tls.config import SecurityConfig
from repro.xdr import Packer, Unpacker, XdrError

# content types
HANDSHAKE = 1
DATA = 2
RENEG = 3
RENEG_ACK = 4
CLOSE_NOTIFY = 5
_HANDSHAKE = bytes((HANDSHAKE,))

#: Nominal CPU seconds for the public-key operations of one handshake
#: side (RSA-1024 class, 2007 hardware).  Once per session — negligible
#: against session lifetime, as §3.2 argues.
HANDSHAKE_CPU_SECONDS = 0.004

#: CPU seconds per side for an *abbreviated* (session-resumption)
#: handshake: no RSA at all, just randoms, one PRF expansion, and two
#: HMACs — an order of magnitude under the full handshake, which is the
#: entire point of tickets on reconnect-heavy fleets.
RESUME_CPU_SECONDS = 0.0004


# The channel's two failures are re-exported here: a handshake that
# refuses the peer raises :class:`repro.rpc.transport.HandshakeError`;
# a record that fails its MAC, its decryption or the protocol's order
# raises the record layer's :class:`repro.crypto.suites.IntegrityError`.

#: what decoding a hostile handshake message can raise
_MALFORMED = (XdrError, CertError, CryptoError, DnError)


class SessionTicketCache:
    """Server-side store of resumable sessions, keyed by opaque ticket.

    A ticket is issued at handshake completion and redeemed **once**: a
    successful abbreviated handshake consumes it and issues a fresh one,
    so a replayed ClientHello cannot resume twice.  Redemption checks
    the ticket's age against ``lifetime``; stale tickets silently miss
    and the client falls back to a full handshake.  ``flush()`` models a
    server-proxy crash losing its in-memory cache — every reconnecting
    client then pays the full RSA handshake again.
    """

    def __init__(self, sim: Simulator, rng, lifetime: float = 3600.0):
        self.sim = sim
        self.rng = rng
        self.lifetime = lifetime
        #: ticket -> (master_secret, peer_cert, peer_identity, issued_at)
        self._entries: dict = {}
        self.issued = 0
        self.redeemed = 0

    def __len__(self) -> int:
        return len(self._entries)

    def issue(self, master: bytes, peer_certificate, peer_identity) -> bytes:
        ticket = self.rng.randbytes(16)
        self._entries[ticket] = (master, peer_certificate, peer_identity,
                                 self.sim.now)
        self.issued += 1
        return ticket

    def redeem(self, ticket: bytes):
        """(master, cert, identity) for a live ticket, else None.

        One-shot: the entry is removed whether or not it is still live.
        """
        entry = self._entries.pop(ticket, None)
        if entry is None:
            return None
        master, cert, identity, issued_at = entry
        if self.sim.now - issued_at > self.lifetime:
            return None
        self.redeemed += 1
        return master, cert, identity

    def flush(self) -> None:
        self._entries.clear()


class ClientSessionStore:
    """Client-side slots for resumable sessions, one per server.

    A ticket is good only at the server that issued it, so the slot is
    keyed by the dialed peer (the socket's ``peer_host_name``): one seat
    dialing several servers — a grid mount's legs, dialed at once or
    redialed later — never offers one server another's ticket.
    ``take(peer)`` pops that server's state — tickets are single-use on
    the wire, so the client never offers the same one twice; a
    successful handshake (resumed or full) saves the replacement with
    ``save(peer, ...)``.
    """

    def __init__(self):
        #: peer host name -> (ticket, master, server cert, server identity)
        self._slots: dict = {}

    def save(self, peer: str, ticket: bytes, master: bytes, certificate,
             identity) -> None:
        if ticket:
            self._slots[peer] = (ticket, master, certificate, identity)

    def take(self, peer: str):
        return self._slots.pop(peer, (None, None, None, None))


class SecureChannel(SealedTransport):
    """An established secure channel: the sealed record layer plus
    content types, renegotiation and close-notify.

    Create via :func:`client_handshake` / :func:`server_handshake`.
    """

    def __init__(
        self,
        sim: Simulator,
        stream: StreamTransport,
        config: SecurityConfig,
        is_client: bool,
        peer_certificate: Certificate,
        peer_identity: DistinguishedName,
        master_secret: bytes,
        cpu: Optional[CPU] = None,
        account: str = "tls",
    ):
        self.config = config
        self.is_client = is_client
        super().__init__(sim, stream, config.suite,
                         *self._new_states(master_secret), cpu=cpu, account=account)
        self.peer_certificate = peer_certificate
        self.peer_identity = peer_identity
        self._master = master_secret
        #: True for channels established by an abbreviated handshake.
        self.resumed = False
        #: True when the session-ticket extension was on the wire.
        self.tickets = False
        #: the peer's close-notify arrived: nothing after it is read
        self._peer_closed = False
        self.renegotiations = 0
        self.obs = sim.obs
        suite = config.suite.name
        self._c_records_out = self.obs.counter("tls", "records_out", suite=suite)
        self._c_records_in = self.obs.counter("tls", "records_in", suite=suite)
        self._c_bytes_sealed = self.obs.counter("tls", "bytes_sealed", suite=suite)
        self._c_bytes_opened = self.obs.counter("tls", "bytes_opened", suite=suite)
        self._c_renegotiations = self.obs.counter("tls", "renegotiations", suite=suite)
        self._pending_recv_state: Optional[Direction] = None
        if config.renegotiate_interval:
            self._arm_reneg_timer()

    def _new_states(self, master: bytes) -> tuple[Direction, Direction]:
        """(send, receive) directions under ``master``."""
        c2s, s2c = derive_directions(
            self.config.suite, master, "key expansion", self.config.fast_ciphers
        )
        return (c2s, s2c) if self.is_client else (s2c, c2s)

    def _send_typed(self, ctype: int, payload: bytes) -> None:
        """Seal ``payload`` with the type byte authenticated beside it."""
        aad = bytes((ctype,))
        self._stream.send_record(aad + self._send.seal(payload, aad))

    # -- Transport interface ---------------------------------------------------

    def send_record(self, record: bytes) -> None:
        """Protect and transmit one application record.

        The seal's cost is charged by the sender through :meth:`charge`
        before this call (a synchronous method cannot wait): the reply
        table under every RPC caller and the server proxy's reply path
        both do.
        """
        if self.obs.enabled:
            self._c_records_out.inc()
            self._c_bytes_sealed.inc(len(record))
        self._send_typed(DATA, record)

    def recv_record(self):
        """Process generator: next application record or None on EOF.

        Transparently services renegotiation control records.
        """
        while not self._peer_closed:
            framed = yield from self._stream.recv_record()
            if framed is None:
                break
            if not framed:
                raise IntegrityError("empty record")
            ctype = framed[0]
            payload = self._recv.open(framed[1:], framed[:1])
            if ctype == DATA:
                if self.obs.enabled:
                    self._c_records_in.inc()
                    self._c_bytes_opened.inc(len(payload))
                yield from self.charge(len(payload), op="open")
                return payload
            if ctype == RENEG:
                self._handle_reneg(payload)
            elif ctype == RENEG_ACK:
                self._handle_reneg_ack(payload)
            elif ctype == CLOSE_NOTIFY:
                self._peer_closed = True
            else:
                raise IntegrityError(f"unexpected content type {ctype}")
        return None

    def close(self) -> None:
        if not self.sock.closed:
            self._send_typed(CLOSE_NOTIFY, b"")
            self.sock.close()

    # -- renegotiation (§4.2) ----------------------------------------------------

    def renegotiate(self) -> None:
        """Initiate a rekey: fresh randoms, fresh key block, no new certs.

        The peer's identity was established by the original handshake;
        renegotiation refreshes session keys for long-lived sessions (or
        after a reload signal).  Protocol: we send RENEG carrying a new
        premaster encrypted to the peer's public key, switch our send
        keys immediately, and switch receive keys when the RENEG_ACK
        arrives.  Ordered delivery makes this race-free.
        """
        premaster = self.config.rng.randbytes(48)
        wrapped = self.peer_certificate.public_key.encrypt(premaster, self.config.rng)
        p = Packer()
        p.pack_opaque(wrapped)
        new_master = hmac_sha256(self._master, b"reneg" + premaster)
        send_new, recv_new = self._new_states(new_master)
        self._send_typed(RENEG, p.get_bytes())
        self._send = send_new
        self._pending_recv_state = recv_new
        self._master = new_master
        self.renegotiations += 1
        self._c_renegotiations.inc()

    def _handle_reneg(self, payload: bytes) -> None:
        u = Unpacker(payload)
        wrapped = u.unpack_opaque()
        premaster = self.config.credential.keypair.decrypt(wrapped)
        new_master = hmac_sha256(self._master, b"reneg" + premaster)
        send_new, recv_new = self._new_states(new_master)
        # Peer already switched its send keys: our receive switches now.
        # Our ACK goes out under the OLD send keys, then we switch.
        self._send_typed(RENEG_ACK, b"")
        self._recv = recv_new
        self._send = send_new
        self._master = new_master
        self.renegotiations += 1

    def _handle_reneg_ack(self, _payload: bytes) -> None:
        if self._pending_recv_state is None:
            raise IntegrityError("unsolicited RENEG_ACK")
        self._recv = self._pending_recv_state
        self._pending_recv_state = None

    def _arm_reneg_timer(self) -> None:
        interval = self.config.renegotiate_interval

        def tick() -> None:
            if self.closed or not self.is_client:
                return
            self.renegotiate()
            self._arm_reneg_timer()

        self.sim.call_later(interval, tick)


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------


def _pack_chain(p: Packer, cert: Certificate, chain) -> None:
    p.pack_opaque(cert.to_bytes())
    p.pack_array([c.to_bytes() for c in chain], p.pack_opaque)


def _unpack_chain(u: Unpacker):
    cert = Certificate.from_bytes(u.unpack_opaque())
    chain = [Certificate.from_bytes(b) for b in u.unpack_array(u.unpack_opaque, max_len=8)]
    return cert, chain


def _validate_peer(config: SecurityConfig, now: float, cert, chain) -> DistinguishedName:
    try:
        return validate_chain(cert, chain, config.trust_anchors, now)
    except ValidationError as exc:
        raise HandshakeError(f"peer certificate rejected: {exc}") from None


def _read_handshake(stream: StreamTransport):
    """Process generator: the body of the next handshake record."""
    rec = yield from stream.recv_record()
    if rec is None:
        raise HandshakeError("connection closed during handshake")
    if rec[:1] != _HANDSHAKE:
        raise HandshakeError(f"expected handshake record, got {rec[:1]!r}")
    return rec[1:]


def client_handshake(
    sim: Simulator,
    sock: SimSocket,
    config: SecurityConfig,
    cpu: Optional[CPU] = None,
    account: str = "tls",
):
    """Process generator: run the client side; return a SecureChannel.

    With ``config.session_tickets`` the hello carries the stored ticket
    (if any) and the handshake resumes abbreviated when the server still
    remembers the session — skipping the RSA key exchange entirely.
    """
    return _handshake(sim, "client", config,
                      _client_handshake(sim, sock, config, cpu, account))


def _handshake(sim: Simulator, role: str, config: SecurityConfig, steps):
    """Process generator: run one side's ``steps`` traced and counted.
    A message that does not parse refuses the peer like a failed proof:
    a handshake raises :class:`HandshakeError` or a transport error."""
    suite = config.suite.name
    with sim.tracer.span("tls.handshake", cat="tls", role=role, suite=suite):
        try:
            channel = yield from steps
        except _MALFORMED as exc:
            raise HandshakeError(f"malformed handshake message: {exc}") from exc
    if sim.obs.enabled:
        sim.obs.counter("tls", "handshakes", role=role, suite=suite).inc()
        # resumptions / full_handshakes split, counted only for sessions
        # that negotiated the ticket extension — telemetry of runs
        # without tickets (all goldens) is unchanged
        if channel.tickets:
            kind = "resumptions" if channel.resumed else "full_handshakes"
            sim.obs.counter("tls", kind, role=role, suite=suite).inc()
    return channel


def _client_handshake(
    sim: Simulator,
    sock: SimSocket,
    config: SecurityConfig,
    cpu: Optional[CPU],
    account: str,
):
    stream = StreamTransport(sock)

    offer_tickets = config.session_tickets
    ticket = old_master = cached_cert = cached_identity = None
    if offer_tickets:
        if config.session_store is None:
            config.session_store = ClientSessionStore()
        ticket, old_master, cached_cert, cached_identity = (
            config.session_store.take(sock.peer_host_name)
        )
    attempting_resume = bool(offer_tickets and ticket)

    # When we might resume, the CPU charge is deferred until the server
    # reveals whether the abbreviated path applies (RESUME vs. full).
    if cpu is not None and not attempting_resume:
        yield from cpu.consume(HANDSHAKE_CPU_SECONDS, f"{account}/handshake")

    client_random = config.rng.randbytes(32)
    hello = Packer()
    hello.pack_opaque(client_random)
    hello.pack_string(config.suite.name)
    _pack_chain(hello, config.credential.certificate, config.credential.chain)
    if offer_tickets:
        # Ticket extension: trailing opaque (empty = "send me a ticket").
        hello.pack_opaque(ticket or b"")
    transcript = hello.get_bytes()
    stream.send_record(_HANDSHAKE + transcript)

    server_hello = yield from _read_handshake(stream)
    transcript_with_hello = transcript + server_hello
    u = Unpacker(server_hello)
    if offer_tickets:
        # Server answers the extension with a leading resumed flag.
        if u.unpack_uint():
            if cpu is not None:
                yield from cpu.consume(RESUME_CPU_SECONDS, f"{account}/handshake")
            server_random = u.unpack_opaque()
            suite_name = u.unpack_string()
            if suite_name != config.suite.name:
                raise HandshakeError(
                    f"server chose {suite_name!r}, we require {config.suite.name!r}"
                )
            new_ticket = u.unpack_opaque()
            body = server_hello[: u.position]
            server_finished = u.unpack_opaque()
            new_master = hmac_sha256(
                old_master, b"resume" + client_random + server_random
            )
            expect = hmac_sha256(new_master, transcript + body + b"server")
            if not constant_time_equal(server_finished, expect):
                raise HandshakeError("abbreviated server Finished MAC mismatch")
            reply = Packer()
            reply.pack_opaque(
                hmac_sha256(new_master, transcript + body + b"client")
            )
            stream.send_record(_HANDSHAKE + reply.get_bytes())
            config.session_store.save(
                sock.peer_host_name, new_ticket, new_master, cached_cert,
                cached_identity,
            )
            channel = SecureChannel(
                sim, stream, config, True, cached_cert, cached_identity,
                new_master, cpu=cpu, account=account,
            )
            channel.tickets = True
            channel.resumed = True
            return channel
        # Fallback: server declined (unknown/expired ticket, or no ticket
        # offered) — full handshake, paying the RSA cost we deferred.
        if cpu is not None and attempting_resume:
            yield from cpu.consume(HANDSHAKE_CPU_SECONDS, f"{account}/handshake")
    transcript = transcript_with_hello
    server_random = u.unpack_opaque()
    suite_name = u.unpack_string()
    if suite_name != config.suite.name:
        raise HandshakeError(
            f"server chose {suite_name!r}, we require {config.suite.name!r}"
        )
    server_cert, server_chain = _unpack_chain(u)
    peer_identity = _validate_peer(config, sim.now, server_cert, server_chain)

    premaster = config.rng.randbytes(48)
    wrapped = server_cert.public_key.encrypt(premaster, config.rng)
    master = hmac_sha256(premaster, client_random + server_random)

    kx = Packer()
    kx.pack_opaque(wrapped)
    kx_prefix = kx.get_bytes()  # the part both Finished MACs cover
    finished = hmac_sha256(master, transcript + kx_prefix)
    kx.pack_opaque(finished)
    stream.send_record(_HANDSHAKE + kx.get_bytes())

    server_finished = yield from _read_handshake(stream)
    expect = hmac_sha256(master, transcript + kx_prefix + b"server")
    su = Unpacker(server_finished)
    if not constant_time_equal(su.unpack_opaque(), expect):
        raise HandshakeError("server Finished MAC mismatch")

    channel = SecureChannel(
        sim, stream, config, True, server_cert, peer_identity, master,
        cpu=cpu, account=account,
    )
    if offer_tickets:
        channel.tickets = True
        # The server's Finished carries our new ticket (may be empty if
        # the server does not issue them).
        new_ticket = su.unpack_opaque()
        config.session_store.save(sock.peer_host_name, new_ticket, master,
                                  server_cert, peer_identity)
    return channel


def server_handshake(
    sim: Simulator,
    sock: SimSocket,
    config: SecurityConfig,
    cpu: Optional[CPU] = None,
    account: str = "tls",
    ticket_cache: Optional[SessionTicketCache] = None,
):
    """Process generator: run the server side; return a SecureChannel.

    The returned channel's ``peer_identity`` is the authenticated grid
    identity (base DN, proxies resolved) the server-side SGFS proxy
    authorizes against.

    ``ticket_cache`` enables session resumption: full handshakes from
    ticket-offering clients are answered with a fresh ticket, and a
    presented ticket that is still live runs the abbreviated handshake
    (no RSA, no chain validation — identity comes from the cache).
    """
    return _handshake(sim, "server", config, _server_handshake(
        sim, sock, config, cpu, account, ticket_cache))


def _server_handshake(
    sim: Simulator,
    sock: SimSocket,
    config: SecurityConfig,
    cpu: Optional[CPU],
    account: str,
    ticket_cache: Optional[SessionTicketCache] = None,
):
    stream = StreamTransport(sock)

    client_hello = yield from _read_handshake(stream)
    transcript = client_hello
    u = Unpacker(client_hello)
    client_random = u.unpack_opaque()
    suite_name = u.unpack_string()
    if suite_name != config.suite.name:
        raise HandshakeError(
            f"client requested {suite_name!r}, session requires {config.suite.name!r}"
        )
    client_cert, client_chain = _unpack_chain(u)
    # Ticket extension: any trailing bytes are the client's ticket offer.
    offered = u.position < len(client_hello)
    ticket = u.unpack_opaque() if offered else b""
    session = (ticket_cache.redeem(ticket)
               if (ticket and ticket_cache is not None) else None)

    if session is not None:
        # Abbreviated handshake: identity and master come from the
        # cache; no RSA, no chain validation.
        old_master, peer_cert, peer_identity = session
        if cpu is not None:
            yield from cpu.consume(RESUME_CPU_SECONDS, f"{account}/handshake")
        server_random = config.rng.randbytes(32)
        new_master = hmac_sha256(
            old_master, b"resume" + client_random + server_random
        )
        new_ticket = ticket_cache.issue(new_master, peer_cert, peer_identity)
        body = Packer()
        body.pack_uint(1)
        body.pack_opaque(server_random)
        body.pack_string(config.suite.name)
        body.pack_opaque(new_ticket)
        body_bytes = body.get_bytes()
        fin = Packer()
        fin.pack_opaque(hmac_sha256(new_master, transcript + body_bytes + b"server"))
        stream.send_record(_HANDSHAKE + body_bytes + fin.get_bytes())

        client_finished = yield from _read_handshake(stream)
        cu = Unpacker(client_finished)
        expect = hmac_sha256(new_master, transcript + body_bytes + b"client")
        if not constant_time_equal(cu.unpack_opaque(), expect):
            raise HandshakeError("abbreviated client Finished MAC mismatch")
        channel = SecureChannel(
            sim, stream, config, False, peer_cert, peer_identity, new_master,
            cpu=cpu, account=account,
        )
        channel.tickets = True
        channel.resumed = True
        return channel

    if cpu is not None:
        yield from cpu.consume(HANDSHAKE_CPU_SECONDS, f"{account}/handshake")
    peer_identity = _validate_peer(config, sim.now, client_cert, client_chain)

    server_random = config.rng.randbytes(32)
    hello = Packer()
    if offered:
        hello.pack_uint(0)  # extension answered: not resumed
    hello.pack_opaque(server_random)
    hello.pack_string(config.suite.name)
    _pack_chain(hello, config.credential.certificate, config.credential.chain)
    hello_bytes = hello.get_bytes()
    stream.send_record(_HANDSHAKE + hello_bytes)
    transcript += hello_bytes

    kx_bytes = yield from _read_handshake(stream)
    ku = Unpacker(kx_bytes)
    wrapped = ku.unpack_opaque()
    kx_prefix_len = ku.position  # bytes covered by the client's Finished MAC
    premaster = config.credential.keypair.decrypt(wrapped)
    master = hmac_sha256(premaster, client_random + server_random)
    finished = ku.unpack_opaque()
    expect = hmac_sha256(master, transcript + kx_bytes[:kx_prefix_len])
    if not constant_time_equal(finished, expect):
        raise HandshakeError("client Finished MAC mismatch")

    reply = Packer()
    reply.pack_opaque(hmac_sha256(master, transcript + kx_bytes[:kx_prefix_len] + b"server"))
    if offered:
        # Answer the extension: issue a ticket for this session (empty
        # when this server does not keep a ticket cache).
        new_ticket = (
            ticket_cache.issue(master, client_cert, peer_identity)
            if ticket_cache is not None else b""
        )
        reply.pack_opaque(new_ticket)
    stream.send_record(_HANDSHAKE + reply.get_bytes())

    channel = SecureChannel(
        sim, stream, config, False, client_cert, peer_identity, master,
        cpu=cpu, account=account,
    )
    channel.tickets = offered
    return channel
