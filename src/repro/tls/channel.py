"""Secure channel: handshake and record protection.

Wire format: each protocol record is RM-framed (reusing the RPC record
marking codec) and starts with a one-byte content type:

- HANDSHAKE — hello/key-exchange/finished messages, in the clear
  (their secrecy is not required; authenticity comes from Finished MACs
  over the transcript, like TLS),
- DATA — application records: ``cipher(payload || HMAC(seq || payload))``
  MAC-then-encrypt with per-direction 64-bit sequence numbers,
- RENEG / RENEG_ACK — rekeying for long-lived sessions (§4.2).

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

import struct
from typing import Optional

from repro.crypto.hmac import constant_time_equal, hmac_sha256
from repro.crypto.suites import derive_key_block
from repro.gsi.certs import Certificate, ValidationError, validate_chain
from repro.gsi.names import DistinguishedName
from repro.net.socket import SimSocket
from repro.rpc.record import RecordReader, RecordWriter
from repro.rpc.transport import Transport
from repro.sim.core import Simulator
from repro.sim.cpu import CPU
from repro.tls.config import SecurityConfig
from repro.xdr import Packer, Unpacker

# content types
HANDSHAKE = 1
DATA = 2
RENEG = 3
RENEG_ACK = 4
CLOSE_NOTIFY = 5

#: Nominal CPU seconds for the public-key operations of one handshake
#: side (RSA-1024 class, 2007 hardware).  Once per session — negligible
#: against session lifetime, as §3.2 argues.
HANDSHAKE_CPU_SECONDS = 0.004

#: CPU seconds per side for an *abbreviated* (session-resumption)
#: handshake: no RSA at all, just randoms, one PRF expansion, and two
#: HMACs — an order of magnitude under the full handshake, which is the
#: entire point of tickets on reconnect-heavy fleets.
RESUME_CPU_SECONDS = 0.0004

#: Virtual CPU frequency used to convert cycles/byte into seconds; the
#: paper's testbed is 3.2 GHz Xeon.
CPU_HZ = 3.2e9

#: Fraction of bulk-crypto time visible as *user CPU* of the proxy
#: process; the rest elapses as wall latency (memory stalls, kernel
#: copies around the cipher, VM scheduling) that per-process user-time
#: sampling does not attribute.  The paper's own numbers exhibit this
#: split: sgfs-aes adds ~0.9 ms/op of runtime while the sampled proxy
#: CPU accounts for only ~0.3 ms/op of it (Figs. 4–6).
CRYPTO_CPU_FRACTION = 0.5


class TlsError(Exception):
    """Secure channel protocol failure."""


class HandshakeError(TlsError):
    """Authentication or negotiation failure during the handshake."""


class IntegrityError(TlsError):
    """A record failed MAC verification or decryption."""


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
    """Client-side slot for the latest resumable session (one upstream).

    ``take()`` pops the stored state — tickets are single-use on the
    wire, so the client never offers the same one twice; a successful
    handshake (resumed or full) saves the replacement ticket.
    """

    def __init__(self):
        self.ticket: Optional[bytes] = None
        self.master: Optional[bytes] = None
        self.server_certificate = None
        self.server_identity = None

    def save(self, ticket: bytes, master: bytes, certificate, identity) -> None:
        if ticket:
            self.ticket = ticket
            self.master = master
            self.server_certificate = certificate
            self.server_identity = identity

    def take(self):
        state = (self.ticket, self.master, self.server_certificate,
                 self.server_identity)
        self.ticket = self.master = None
        self.server_certificate = self.server_identity = None
        return state


class _Direction:
    """Keys and state for one direction of traffic."""

    __slots__ = ("cipher_state", "mac_key", "seq")

    def __init__(self, cipher_state, mac_key: bytes):
        self.cipher_state = cipher_state
        self.mac_key = mac_key
        self.seq = 0


def _derive_directions(config: SecurityConfig, master: bytes, is_client: bool):
    """Split the key block into client->server and server->client states."""
    suite = config.suite
    block = derive_key_block(master, "key expansion", suite.key_material_len)
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        out = block[off : off + n]
        off += n
        return out

    c_mac = take(suite.mac.key_len)
    s_mac = take(suite.mac.key_len)
    c_key = take(suite.cipher.key_len)
    s_key = take(suite.cipher.key_len)
    c_iv = take(suite.cipher.iv_len)
    s_iv = take(suite.cipher.iv_len)

    c2s = _Direction(suite.cipher.new_state(c_key, c_iv, config.fast_ciphers), c_mac)
    s2c = _Direction(suite.cipher.new_state(s_key, s_iv, config.fast_ciphers), s_mac)
    return (c2s, s2c) if is_client else (c2s, s2c)


class SecureChannel(Transport):
    """An established secure channel implementing the Transport interface.

    Create via :func:`client_handshake` / :func:`server_handshake`.
    """

    def __init__(
        self,
        sim: Simulator,
        sock: SimSocket,
        config: SecurityConfig,
        is_client: bool,
        send_state: _Direction,
        recv_state: _Direction,
        peer_certificate: Certificate,
        peer_identity: DistinguishedName,
        master_secret: bytes,
        cpu: Optional[CPU] = None,
        account: str = "tls",
    ):
        self.sim = sim
        self.sock = sock
        self.config = config
        self.is_client = is_client
        self._send = send_state
        self._recv = recv_state
        self.peer_certificate = peer_certificate
        self.peer_identity = peer_identity
        self._master = master_secret
        self.cpu = cpu
        self.account = account
        #: pin this channel's bulk-crypto CPU charges to one core of a
        #: multi-core CPU (the server proxy assigns a per-session value);
        #: None lets the work float to any idle core.
        self.affinity: Optional[int] = None
        #: True for channels established by an abbreviated handshake.
        self.resumed = False
        #: True when the session-ticket extension was on the wire.
        self.tickets = False
        self._writer = RecordWriter(sock)
        self._reader = RecordReader()
        self._eof = False
        self.renegotiations = 0
        self.bytes_protected = 0
        self.obs = sim.obs
        suite = config.suite.name
        self._c_records_out = self.obs.counter("tls", "records_out", suite=suite)
        self._c_records_in = self.obs.counter("tls", "records_in", suite=suite)
        self._c_bytes_sealed = self.obs.counter("tls", "bytes_sealed", suite=suite)
        self._c_bytes_opened = self.obs.counter("tls", "bytes_opened", suite=suite)
        self._pending_recv_state: Optional[_Direction] = None
        self._reneg_timer_handle = None
        if config.renegotiate_interval:
            self._arm_reneg_timer()

    # -- cost model --------------------------------------------------------

    def _crypto_cost(self, nbytes: int) -> float:
        return self.config.suite.cycles_per_byte * nbytes / CPU_HZ

    def charge(self, nbytes: int, op: str = "seal"):
        """Process generator: charge bulk-crypto work for nbytes.

        Split between user CPU (visible in the utilization figures) and
        wall latency per CRYPTO_CPU_FRACTION.  The CPU time lands in the
        hierarchical sub-account ``<account>/<op>:<suite>`` so the
        profiler can attribute cipher work per direction; ledger queries
        for the bare account still include it (see
        :class:`repro.sim.cpu.CpuLedger`).
        """
        if nbytes <= 0:
            return
        cost = self._crypto_cost(nbytes)
        if cost <= 0:
            return
        if self.cpu is not None:
            account = f"{self.account}/{op}:{self.config.suite.name}"
            yield from self.cpu.consume(cost * CRYPTO_CPU_FRACTION, account,
                                        affinity=self.affinity)
            yield self.sim.timeout(cost * (1.0 - CRYPTO_CPU_FRACTION))
        else:
            yield self.sim.timeout(cost)

    # -- record protection ---------------------------------------------------

    def _protect(self, ctype: int, payload: bytes) -> bytes:
        d = self._send
        mac = self.config.suite.mac.compute(
            d.mac_key, struct.pack(">QB", d.seq, ctype) + payload
        )
        d.seq += 1
        body = d.cipher_state.encrypt(payload + mac)
        return bytes([ctype]) + body

    def _unprotect(self, record: bytes) -> tuple[int, bytes]:
        if not record:
            raise IntegrityError("empty record")
        ctype = record[0]
        d = self._recv
        try:
            plain = d.cipher_state.decrypt(record[1:])
        except Exception as exc:
            raise IntegrityError(f"decryption failed: {exc}") from None
        mac_len = self.config.suite.mac.digest_len
        if mac_len:
            if len(plain) < mac_len:
                raise IntegrityError("record shorter than MAC")
            payload, mac = plain[:-mac_len], plain[-mac_len:]
            expect = self.config.suite.mac.compute(
                d.mac_key, struct.pack(">QB", d.seq, ctype) + payload
            )
            if not constant_time_equal(mac, expect):
                raise IntegrityError("MAC verification failed")
        else:
            payload = plain
        d.seq += 1
        return ctype, payload

    # -- Transport interface ---------------------------------------------------

    def send_record(self, record: bytes) -> None:
        """Protect and transmit one application record.

        Note: cost charging for the synchronous API happens lazily via
        :meth:`charge` by callers that own a process context; the SGFS
        proxy and RPC layers always do.
        """
        self.bytes_protected += len(record)
        if self.obs.enabled:
            self._c_records_out.inc()
            self._c_bytes_sealed.inc(len(record))
        self._writer.write(self._protect(DATA, record))

    def recv_record(self):
        """Process generator: next application record or None on EOF.

        Transparently services renegotiation control records.
        """
        while True:
            framed = yield from self._next_frame()
            if framed is None:
                return None
            ctype, payload = self._unprotect(framed)
            if ctype == DATA:
                if self.obs.enabled:
                    self._c_records_in.inc()
                    self._c_bytes_opened.inc(len(payload))
                yield from self.charge(len(payload), op="open")
                return payload
            if ctype == RENEG:
                self._handle_reneg(payload)
                continue
            if ctype == RENEG_ACK:
                self._handle_reneg_ack(payload)
                continue
            if ctype == CLOSE_NOTIFY:
                self._eof = True
                return None
            raise TlsError(f"unexpected content type {ctype}")

    def _next_frame(self):
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
        if not self.sock.closed:
            try:
                self._writer.write(self._protect(CLOSE_NOTIFY, b""))
            except Exception:
                pass
            self.sock.close()

    @property
    def closed(self) -> bool:
        return self.sock.closed

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
        self._writer.write(self._protect(RENEG, p.get_bytes()))
        self._send = send_new
        self._pending_recv_state = recv_new
        self._master = new_master
        self.renegotiations += 1
        if self.obs.enabled:
            self.obs.counter("tls", "renegotiations",
                             suite=self.config.suite.name).inc()

    def _new_states(self, master: bytes) -> tuple[_Direction, _Direction]:
        c2s, s2c = _derive_directions(self.config, master, self.is_client)
        if self.is_client:
            return c2s, s2c
        return s2c, c2s

    def _handle_reneg(self, payload: bytes) -> None:
        u = Unpacker(payload)
        wrapped = u.unpack_opaque()
        premaster = self.config.credential.keypair.decrypt(wrapped)
        new_master = hmac_sha256(self._master, b"reneg" + premaster)
        send_new, recv_new = self._new_states(new_master)
        # Peer already switched its send keys: our receive switches now.
        # Our ACK goes out under the OLD send keys, then we switch.
        self._writer.write(self._protect(RENEG_ACK, b""))
        self._recv = recv_new
        self._send = send_new
        self._master = new_master
        self.renegotiations += 1

    def _handle_reneg_ack(self, _payload: bytes) -> None:
        pending = getattr(self, "_pending_recv_state", None)
        if pending is None:
            raise TlsError("unsolicited RENEG_ACK")
        self._recv = pending
        self._pending_recv_state = None

    def _arm_reneg_timer(self) -> None:
        interval = self.config.renegotiate_interval

        def tick() -> None:
            if self.closed or not self.is_client:
                return
            self.renegotiate()
            self._arm_reneg_timer()

        self._reneg_timer_handle = self.sim.call_later(interval, tick)


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
    with sim.tracer.span(
        "tls.handshake", cat="tls", role="client", suite=config.suite.name
    ):
        channel = yield from _client_handshake(sim, sock, config, cpu, account)
    if sim.obs.enabled:
        sim.obs.counter("tls", "handshakes", role="client",
                        suite=config.suite.name).inc()
        _count_handshake_kind(sim, channel, "client")
    return channel


def _count_handshake_kind(sim: Simulator, channel: SecureChannel, role: str) -> None:
    """resumptions / full_handshakes split, counted only for sessions
    that negotiated the ticket extension — telemetry of runs without
    tickets (all goldens) is unchanged."""
    if not channel.tickets:
        return
    kind = "resumptions" if channel.resumed else "full_handshakes"
    sim.obs.counter("tls", kind, role=role, suite=channel.config.suite.name).inc()


def _client_handshake(
    sim: Simulator,
    sock: SimSocket,
    config: SecurityConfig,
    cpu: Optional[CPU],
    account: str,
):
    writer = RecordWriter(sock)
    reader = RecordReader()

    def read_hs():
        while True:
            rec = reader.next_record()
            if rec is not None:
                if rec[0] != HANDSHAKE:
                    raise HandshakeError(f"expected handshake record, got type {rec[0]}")
                return rec[1:]
            chunk = yield from sock.recv()
            if chunk == b"":
                raise HandshakeError("connection closed during handshake")
            reader.feed(chunk)

    offer_tickets = config.session_tickets
    ticket = old_master = cached_cert = cached_identity = None
    if offer_tickets:
        if config.session_store is None:
            config.session_store = ClientSessionStore()
        ticket, old_master, cached_cert, cached_identity = (
            config.session_store.take()
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
    writer.write(bytes([HANDSHAKE]) + transcript)

    server_hello = yield from read_hs()
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
            writer.write(bytes([HANDSHAKE]) + reply.get_bytes())
            config.session_store.save(
                new_ticket, new_master, cached_cert, cached_identity
            )
            c2s, s2c = _derive_directions(config, new_master, is_client=True)
            channel = SecureChannel(
                sim, sock, config, True, c2s, s2c,
                cached_cert, cached_identity, new_master,
                cpu=cpu, account=account,
            )
            channel._reader = reader  # keep any early-arrived bytes
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
    writer.write(bytes([HANDSHAKE]) + kx.get_bytes())

    server_finished = yield from read_hs()
    expect = hmac_sha256(master, transcript + kx_prefix + b"server")
    su = Unpacker(server_finished)
    if not constant_time_equal(su.unpack_opaque(), expect):
        raise HandshakeError("server Finished MAC mismatch")

    channel = SecureChannel(
        sim, sock, config, True,
        *_derive_directions(config, master, is_client=True),
        server_cert, peer_identity, master, cpu=cpu, account=account,
    )
    channel._reader = reader  # keep any early-arrived bytes
    if offer_tickets:
        channel.tickets = True
        # The server's Finished carries our new ticket (may be empty if
        # the server does not issue them).
        new_ticket = su.unpack_opaque()
        config.session_store.save(new_ticket, master, server_cert, peer_identity)
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
    with sim.tracer.span(
        "tls.handshake", cat="tls", role="server", suite=config.suite.name
    ):
        channel = yield from _server_handshake(
            sim, sock, config, cpu, account, ticket_cache
        )
    if sim.obs.enabled:
        sim.obs.counter("tls", "handshakes", role="server",
                        suite=config.suite.name).inc()
        _count_handshake_kind(sim, channel, "server")
    return channel


def _server_handshake(
    sim: Simulator,
    sock: SimSocket,
    config: SecurityConfig,
    cpu: Optional[CPU],
    account: str,
    ticket_cache: Optional[SessionTicketCache] = None,
):
    writer = RecordWriter(sock)
    reader = RecordReader()

    def read_hs():
        while True:
            rec = reader.next_record()
            if rec is not None:
                if rec[0] != HANDSHAKE:
                    raise HandshakeError(f"expected handshake record, got type {rec[0]}")
                return rec[1:]
            chunk = yield from sock.recv()
            if chunk == b"":
                raise HandshakeError("connection closed during handshake")
            reader.feed(chunk)

    client_hello = yield from read_hs()
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
        writer.write(bytes([HANDSHAKE]) + body_bytes + fin.get_bytes())

        client_finished = yield from read_hs()
        cu = Unpacker(client_finished)
        expect = hmac_sha256(new_master, transcript + body_bytes + b"client")
        if not constant_time_equal(cu.unpack_opaque(), expect):
            raise HandshakeError("abbreviated client Finished MAC mismatch")
        s2c_pair = _derive_directions(config, new_master, is_client=False)
        channel = SecureChannel(
            sim, sock, config, False, s2c_pair[1], s2c_pair[0],
            peer_cert, peer_identity, new_master, cpu=cpu, account=account,
        )
        channel._reader = reader  # client DATA may ride the same chunk
        channel.tickets = True
        channel.resumed = True
        return channel

    if cpu is not None:
        yield from cpu.consume(HANDSHAKE_CPU_SECONDS, f"{account}/handshake")
    if config.require_peer_cert:
        peer_identity = _validate_peer(config, sim.now, client_cert, client_chain)
    else:
        peer_identity = client_cert.subject

    server_random = config.rng.randbytes(32)
    hello = Packer()
    if offered:
        hello.pack_uint(0)  # extension answered: not resumed
    hello.pack_opaque(server_random)
    hello.pack_string(config.suite.name)
    _pack_chain(hello, config.credential.certificate, config.credential.chain)
    hello_bytes = hello.get_bytes()
    writer.write(bytes([HANDSHAKE]) + hello_bytes)
    transcript += hello_bytes

    kx_bytes = yield from read_hs()
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
    writer.write(bytes([HANDSHAKE]) + reply.get_bytes())

    c2s, s2c = _derive_directions(config, master, is_client=False)
    channel = SecureChannel(
        sim, sock, config, False, s2c, c2s,
        client_cert, peer_identity, master, cpu=cpu, account=account,
    )
    channel._reader = reader  # keep any early-arrived bytes
    channel.tickets = offered
    return channel
