"""Deterministic random byte generator.

The whole reproduction must be replayable, so nothing may consult OS
entropy.  :class:`Drbg` is a hash-counter generator (SHA-256 over
``seed || counter``) in the spirit of NIST SP 800-90A Hash_DRBG — not a
certified DRBG, but uniformly distributed, cheap, and deterministic.
Every handshake, key generation and nonce in the stack draws from a
Drbg seeded from the experiment configuration.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Tuple


class Drbg:
    """SHA-256 counter-mode deterministic byte stream."""

    def __init__(self, seed: bytes | str | int):
        if isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._key = hashlib.sha256(b"repro-drbg:" + seed).digest()
        self._counter = 0
        self._pool = b""

    def fork(self, label: str) -> "Drbg":
        """An independent stream derived from this one (stable per label)."""
        return Drbg(self._key + b"/" + label.encode("utf-8"))

    def snapshot(self) -> Tuple[bytes, int, bytes]:
        """The whole generator state, hashable: two generators with equal
        snapshots produce equal streams from here on."""
        return self._key, self._counter, self._pool

    def restore(self, state: Tuple[bytes, int, bytes]) -> None:
        """Resume from a state captured by :meth:`snapshot`."""
        self._key, self._counter, self._pool = state

    def randbytes(self, n: int) -> bytes:
        while len(self._pool) < n:
            block = hashlib.sha256(
                self._key + struct.pack(">Q", self._counter)
            ).digest()
            self._counter += 1
            self._pool += block
        out, self._pool = self._pool[:n], self._pool[n:]
        return out

    def getrandbits(self, k: int) -> int:
        if k <= 0:
            raise ValueError("k must be positive")
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.randbytes(nbytes), "big")
        return value >> (8 * nbytes - k)

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi) via rejection sampling."""
        if hi <= lo:
            raise ValueError("empty range")
        span = hi - lo
        k = span.bit_length()
        while True:
            v = self.getrandbits(k)
            if v < span:
                return lo + v

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive, random.randint-style)."""
        return self.randrange(lo, hi + 1)

    def choice(self, seq):
        if not seq:
            raise IndexError("choice from empty sequence")
        return seq[self.randrange(0, len(seq))]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher–Yates."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(0, i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return self.getrandbits(53) / (1 << 53)
