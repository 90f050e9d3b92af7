"""HMAC per FIPS PUB 198 / RFC 2104, built directly on hashlib digests.

Implemented from the definition (ipad/opad construction) rather than via
``import hmac`` so the construction itself is under test — the paper's
integrity guarantee for every SGFS configuration rests on SHA1-HMAC.

The constructor for each hash algorithm is resolved once and cached:
``hashlib.new(name)`` re-resolves the algorithm by string on every call,
and a small run makes 12k+ ``hmac_digest`` calls (two to three digests
each), so the lookup was pure per-message overhead.  The ipad/opad keys
use ``bytes.translate`` over precomputed 256-byte tables instead of a
per-byte Python loop.
"""

from __future__ import annotations

import hashlib
from hmac import compare_digest
from typing import Callable, Dict, Tuple

#: XOR-by-constant translation tables for the padded key (RFC 2104).
_IPAD_TABLE = bytes(b ^ 0x36 for b in range(256))
_OPAD_TABLE = bytes(b ^ 0x5C for b in range(256))

#: hash_name -> (constructor, block_size), resolved once per algorithm.
_DIGESTS: Dict[str, Tuple[Callable, int]] = {}


def _digest(hash_name: str) -> Tuple[Callable, int]:
    entry = _DIGESTS.get(hash_name)
    if entry is None:
        # Prefer the direct hashlib constructor (e.g. hashlib.sha1);
        # fall back to hashlib.new for OpenSSL-only algorithms.
        ctor = getattr(hashlib, hash_name, None)
        if ctor is None:
            def ctor(data=b"", _name=hash_name):
                return hashlib.new(_name, data)
        entry = _DIGESTS[hash_name] = (ctor, ctor().block_size)
    return entry


def _padded_key(key: bytes, hash_name: str) -> Tuple[Callable, bytes]:
    """The hash constructor and the key as RFC 2104 uses it: hashed
    first if longer than a block, then zero-padded to one."""
    h, block_size = _digest(hash_name)
    if len(key) > block_size:
        key = h(key).digest()
    return h, key.ljust(block_size, b"\x00")


def hmac_digest(key: bytes, message: bytes, hash_name: str = "sha1") -> bytes:
    """HMAC(key, message) with the named hashlib algorithm."""
    h, key = _padded_key(key, hash_name)
    inner = h(key.translate(_IPAD_TABLE) + message).digest()
    return h(key.translate(_OPAD_TABLE) + inner).digest()


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """SHA1-HMAC — the integrity algorithm of every SGFS configuration."""
    return hmac_digest(key, message, "sha1")


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    return hmac_digest(key, message, "sha256")


class KeyedHmac:
    """HMAC under one key over many messages.

    The padded key is absorbed once into an inner and an outer hash
    context; each message copies the two and feeds its parts straight
    into the copy — no key padding and no joined copy of the message
    per call, which is what a sealed-record stream pays per record.
    ``digest(a, b, c)`` equals ``hmac_digest(key, a + b + c)``.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes, hash_name: str = "sha1"):
        h, key = _padded_key(key, hash_name)
        self._inner = h(key.translate(_IPAD_TABLE))
        self._outer = h(key.translate(_OPAD_TABLE))

    def digest(self, *parts: bytes) -> bytes:
        inner = self._inner.copy()
        for part in parts:
            inner.update(part)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Equality without an early exit on the first differing byte;
    inputs of different lengths are simply unequal."""
    return len(a) == len(b) and compare_digest(a, b)
