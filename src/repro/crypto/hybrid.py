"""Hybrid public-key encryption for small blobs.

Used by the management services to move delegated credentials over the
(signed but not otherwise encrypted) service channel: RSA-wrap a fresh
content key to the recipient's public key, then encrypt-and-MAC the
payload with it (SHA-256 counter keystream + HMAC-SHA256, an
encrypt-then-MAC construction).
"""

from __future__ import annotations

import hashlib
import struct

from repro.crypto.drbg import Drbg
from repro.crypto.hmac import constant_time_equal, hmac_sha256
from repro.crypto.rsa import CryptoError, RsaKeyPair, RsaPublicKey


def _keystream(key: bytes, n: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < n:
        out += hashlib.sha256(key + b"ks" + struct.pack(">Q", counter)).digest()
        counter += 1
    return out[:n]


def seal(plaintext: bytes, recipient: RsaPublicKey, rng: Drbg) -> bytes:
    """Encrypt ``plaintext`` so only ``recipient`` can read it."""
    content_key = rng.randbytes(32)
    wrapped = recipient.encrypt(content_key, rng)
    ks = _keystream(content_key, len(plaintext))
    ct = bytes(a ^ b for a, b in zip(plaintext, ks))
    mac = hmac_sha256(content_key, b"hybrid" + ct)
    return (
        len(wrapped).to_bytes(4, "big") + wrapped
        + len(ct).to_bytes(4, "big") + ct
        + mac
    )


def open_sealed(blob: bytes, recipient_key: RsaKeyPair) -> bytes:
    """Decrypt a blob produced by :func:`seal`; raises on tampering."""
    if len(blob) < 8:
        raise CryptoError("truncated sealed blob")
    wlen = int.from_bytes(blob[:4], "big")
    wrapped = blob[4 : 4 + wlen]
    rest = blob[4 + wlen :]
    if len(rest) < 4:
        raise CryptoError("truncated sealed blob")
    clen = int.from_bytes(rest[:4], "big")
    ct = rest[4 : 4 + clen]
    mac = rest[4 + clen :]
    if len(ct) != clen or len(mac) != 32:
        raise CryptoError("malformed sealed blob")
    content_key = recipient_key.decrypt(wrapped)
    expect = hmac_sha256(content_key, b"hybrid" + ct)
    if not constant_time_equal(mac, expect):
        raise CryptoError("sealed blob failed integrity check")
    ks = _keystream(content_key, len(ct))
    return bytes(a ^ b for a, b in zip(ct, ks))
