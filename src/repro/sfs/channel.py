"""SFS secure channel: raw-key handshake, RC4+SHA1 records.

Unlike the GSI/TLS channel, SFS needs no certificates: the *server* is
authenticated because its public key must hash to the HostID embedded
in the self-certifying pathname, and the *user* is authenticated by a
signature with a key the server's authserver already knows (modeled as
an authorized-keys set).  Bulk protection approximates SFS's customized
RC4 + SHA1-HMAC, which the paper likens to the sgfs-rc configuration.

The channel returned is a plain
:class:`~repro.rpc.transport.SealedTransport` — the record layer the
GSI/TLS channel extends — so the proxy/daemon layers treat both
identically.
"""

from __future__ import annotations

from typing import Set

from repro.crypto.drbg import Drbg
from repro.crypto.hmac import hmac_sha256
from repro.crypto.rsa import CryptoError, RsaKeyPair, RsaPublicKey
from repro.crypto.suites import SUITE_RC4_SHA, derive_directions
from repro.rpc.transport import HandshakeError, SealedTransport, StreamTransport
from repro.sfs.paths import SelfCertifyingPath
from repro.sim.core import Simulator
from repro.xdr import Packer, Unpacker, XdrError

#: CPU for the public-key operations of an SFS connection setup.
SFS_HANDSHAKE_CPU = 0.005

#: SFS's one bulk protection — the paper likens it to sgfs-rc.
SFS_SUITE = SUITE_RC4_SHA


class SfsAuthError(HandshakeError):
    """Server key does not match the HostID, user key not authorized, or
    a key-exchange message that does not parse."""


def _established(sim: Simulator, stream: StreamTransport, secret: bytes,
                 is_client: bool, cpu, account: str) -> SealedTransport:
    c2s, s2c = derive_directions(
        SFS_SUITE, hmac_sha256(secret, b"sfs-session"), "sfs keys", fast=True
    )
    send, recv = (c2s, s2c) if is_client else (s2c, c2s)
    return SealedTransport(sim, stream, SFS_SUITE, send, recv, cpu=cpu, account=account)


def sfs_client_channel(
    sim: Simulator,
    sock,
    path: SelfCertifyingPath,
    user_key: RsaKeyPair,
    rng: Drbg,
    cpu=None,
    account: str = "sfsd",
):
    """Process generator: connect-side handshake.

    1. server sends its public key; client checks it against the HostID;
    2. client sends a session secret encrypted to the server key, plus
       its user public key and a signature binding both;
    3. both derive the key block.
    """
    stream = StreamTransport(sock)
    if cpu is not None:
        yield from cpu.consume(SFS_HANDSHAKE_CPU, f"{account}/handshake")
    frame = yield from stream.recv_record()
    if frame is None:
        raise SfsAuthError("server closed during handshake")
    try:
        server_key = RsaPublicKey.from_bytes(frame)
    except CryptoError as exc:
        raise SfsAuthError(f"malformed server key: {exc}") from None
    if not path.verify_key(server_key):
        raise SfsAuthError(
            f"server key does not match HostID {path.host_id} — refusing"
        )
    secret = rng.randbytes(32)
    wrapped = server_key.encrypt(secret, rng)
    sig = user_key.sign(b"sfs-auth:" + wrapped)
    p = Packer()
    p.pack_opaque(wrapped)
    p.pack_opaque(user_key.public.to_bytes())
    p.pack_opaque(sig)
    stream.send_record(p.get_bytes())
    frame = yield from stream.recv_record()
    if frame != b"OK":
        raise SfsAuthError("server rejected user authentication")
    return _established(sim, stream, secret, True, cpu, account)


def sfs_server_channel(
    sim: Simulator,
    sock,
    server_key: RsaKeyPair,
    authorized_users: Set[bytes],
    cpu=None,
    account: str = "sfssd",
):
    """Process generator: accept-side handshake.

    ``authorized_users`` holds canonical public-key encodings the
    authserver vouches for.
    """
    stream = StreamTransport(sock)
    stream.send_record(server_key.public.to_bytes())
    frame = yield from stream.recv_record()
    if frame is None:
        raise SfsAuthError("client closed during handshake")
    if cpu is not None:
        yield from cpu.consume(SFS_HANDSHAKE_CPU, f"{account}/handshake")
    try:
        u = Unpacker(frame)
        wrapped = u.unpack_opaque()
        user_key_bytes = u.unpack_opaque()
        sig = u.unpack_opaque()
        user_key = RsaPublicKey.from_bytes(user_key_bytes)
    except (XdrError, CryptoError) as exc:
        sock.abort()
        raise SfsAuthError(f"malformed key exchange: {exc}") from None
    if not user_key.verify(b"sfs-auth:" + wrapped, sig):
        sock.abort()
        raise SfsAuthError("bad user signature")
    if user_key_bytes not in authorized_users:
        stream.send_record(b"NO")
        sock.close()
        raise SfsAuthError("user key not authorized")
    try:
        secret = server_key.decrypt(wrapped)
    except CryptoError as exc:
        sock.abort()
        raise SfsAuthError(f"bad key transport: {exc}") from None
    stream.send_record(b"OK")
    return _established(sim, stream, secret, False, cpu, account)
