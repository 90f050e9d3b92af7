"""Encrypted TCP port forwarding with a pre-shared session key.

Wire protocol: after a nonce/HMAC key-confirmation handshake, each
direction carries encrypted chunks, one per record of a
:class:`~repro.rpc.transport.StreamTransport` on the tunnel socket,
sealed by the shared record layer
(:class:`repro.crypto.suites.Direction`) under AES-256-CBC + SHA1 — the
paper's gfs-ssh configuration.  The tunnel is byte-transparent: whatever
stream the inner protocol (RPC record marking) produces is reproduced at
the far end.

Every forwarded chunk charges the forwarding host's CPU both the
user-level copy cost and the bulk-crypto cost — twice per side of the
connection (once entering the tunnel process, once leaving), which is
exactly the double-forwarding penalty of §6.2.1.
"""

from __future__ import annotations

from repro.crypto.hmac import constant_time_equal, hmac_sha256
from repro.crypto.suites import (
    SUITE_AES_SHA, Direction, charge_crypto, derive_directions,
)
from repro.net.errors import NetError
from repro.rpc.costs import CostProfile, FREE_PROFILE, charge_profile
from repro.rpc.transport import TRANSPORT_ERRORS, StreamTransport
from repro.sim.core import Simulator

#: CPU seconds for the tunnel handshake (key confirmation only — no
#: public-key operations with a pre-shared key).
TUNNEL_HANDSHAKE_CPU = 0.0005

#: the paper's gfs-ssh configuration: AES-256-CBC + SHA1
TUNNEL_SUITE = SUITE_AES_SHA


class _TunnelEndpoint:
    """What both ends share: the accept loop and the pumps; each end
    adds its side of the handshake as ``_session``."""

    def __init__(self, sim: Simulator, host, listen_port: int, key: bytes,
                 cost: CostProfile, account: str):
        self.sim = sim
        self.host = host
        self.listen_port = listen_port
        self.key = key
        self.cost = cost
        self.account = account
        self.chunks_forwarded = 0
        self.bytes_forwarded = 0
        self._listener = None

    def start(self) -> None:
        self._listener = self.host.listen(self.listen_port)
        self.sim.spawn(
            self._listener.serve(lambda sock: self.sim.spawn(
                self._session(sock), name=f"{self.account}-session")),
            name=f"{self.account}:{self.listen_port}",
        )

    def stop(self) -> None:
        """Stop accepting.  A connection ends when its local side closes:
        the tunnel carries the close across (:meth:`_pump_plain_to_tunnel`)."""
        if self._listener is not None:
            self._listener.close()

    def _directions(self, nonce_c: bytes, nonce_s: bytes):
        """(client->server, server->client) under this connection's nonces."""
        return derive_directions(
            TUNNEL_SUITE, self.key + nonce_c + nonce_s, "ssh-tunnel", fast=True,
        )

    def _charge(self, nbytes: int):
        # Copy cost on the parent account first, then the cipher work in
        # a sub-account: the two are one float sum on the ledger, and
        # the pinned gfs-ssh runtimes hold only in this order.
        yield from charge_profile(self.sim, self.host.cpu, self.cost, nbytes, self.account)
        yield from charge_crypto(
            self.sim, self.host.cpu, TUNNEL_SUITE, nbytes,
            f"{self.account}/crypto:{TUNNEL_SUITE.name}",
        )

    def _forward(self, plain_sock, tunnel: StreamTransport,
                 send: Direction, recv: Direction):
        """Process generator: pump both ways until the tunnel side ends,
        then close both sockets."""
        self.sim.spawn(
            self._pump_plain_to_tunnel(plain_sock, send, tunnel),
            name=f"{self.account}-up",
        )
        yield from self._pump_tunnel_to_plain(tunnel, recv, plain_sock)
        plain_sock.close()
        tunnel.close()

    def _pump_plain_to_tunnel(self, plain_sock, send: Direction,
                              tunnel: StreamTransport):
        """Read raw bytes locally, encrypt, frame into the tunnel —
        until either socket is gone; the local side's close closes the
        tunnel, and so the far end's local socket."""
        try:
            while True:
                chunk = yield from plain_sock.recv()
                if chunk == b"":
                    tunnel.close()
                    return
                yield from self._charge(len(chunk))
                self.chunks_forwarded += 1
                self.bytes_forwarded += len(chunk)
                tunnel.send_record(send.seal(chunk))
        except NetError:
            return

    def _pump_tunnel_to_plain(self, tunnel: StreamTransport, recv: Direction,
                              plain_sock):
        """Read framed encrypted chunks, decrypt, write raw bytes
        locally — until either socket is gone or a frame fails its MAC:
        nothing past a bad frame is ever forwarded."""
        try:
            while True:
                frame = yield from tunnel.recv_record()
                if frame is None:
                    return
                chunk = recv.open(frame)
                yield from self._charge(len(chunk))
                self.chunks_forwarded += 1
                self.bytes_forwarded += len(chunk)
                plain_sock.send(chunk)
        except TRANSPORT_ERRORS:
            return


class SshTunnelServer(_TunnelEndpoint):
    """WAN-facing endpoint: decrypts and forwards to a local port."""

    def __init__(self, sim: Simulator, host, listen_port: int, target_port: int,
                 key: bytes, cost: CostProfile = FREE_PROFILE,
                 account: str = "sshd"):
        super().__init__(sim, host, listen_port, key, cost, account)
        self.target_port = target_port

    def _session(self, tunnel_sock):
        tunnel = StreamTransport(tunnel_sock)
        # --- handshake: nonce exchange, key confirmation -------------------
        try:
            nonce_c = yield from tunnel.recv_record()
        except TRANSPORT_ERRORS:
            return
        if nonce_c is None:
            return
        yield from self.host.cpu.consume(TUNNEL_HANDSHAKE_CPU, f"{self.account}/handshake")
        nonce_s = hmac_sha256(self.key, b"server-nonce" + nonce_c)[:16]
        proof = hmac_sha256(self.key, b"confirm" + nonce_c + nonce_s)
        tunnel.send_record(nonce_s + proof)
        c2s, s2c = self._directions(nonce_c, nonce_s)
        # --- connect to the local target ------------------------------------
        try:
            plain_sock = yield from self.host.connect(self.host.name, self.target_port)
        except NetError:
            tunnel_sock.close()
            return
        yield from self._forward(plain_sock, tunnel, send=s2c, recv=c2s)


class SshTunnelClient(_TunnelEndpoint):
    """Loopback-facing endpoint: encrypts local streams into the tunnel."""

    def __init__(self, sim: Simulator, host, listen_port: int,
                 server_host: str, server_port: int, key: bytes,
                 cost: CostProfile = FREE_PROFILE, account: str = "ssh"):
        super().__init__(sim, host, listen_port, key, cost, account)
        self.server_host = server_host
        self.server_port = server_port

    def _session(self, plain_sock):
        try:
            tunnel_sock = yield from self.host.connect(self.server_host, self.server_port)
        except NetError:
            plain_sock.close()
            return
        tunnel = StreamTransport(tunnel_sock)
        yield from self.host.cpu.consume(TUNNEL_HANDSHAKE_CPU, f"{self.account}/handshake")
        nonce_c = hmac_sha256(self.key, b"client-nonce")[:16]
        tunnel.send_record(nonce_c)
        try:
            frame = yield from tunnel.recv_record()
        except TRANSPORT_ERRORS:
            frame = None
        if frame is None or len(frame) < 48:
            plain_sock.close()
            tunnel_sock.close()
            return
        nonce_s, proof = frame[:16], frame[16:48]
        expect = hmac_sha256(self.key, b"confirm" + nonce_c + nonce_s)
        if not constant_time_equal(proof, expect):
            plain_sock.close()
            tunnel_sock.abort()
            return
        c2s, s2c = self._directions(nonce_c, nonce_s)
        yield from self._forward(plain_sock, tunnel, send=c2s, recv=s2c)
