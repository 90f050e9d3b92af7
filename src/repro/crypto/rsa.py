"""RSA: key generation, signatures and key transport.

Used by the GSI layer (certificate signing/verification), the TLS-like
handshake (server-authenticated key exchange), and the WS-Security
message signatures.  Keys are generated deterministically from a
:class:`~repro.crypto.drbg.Drbg` so whole experiments replay bit-exactly.

Padding follows PKCS#1 v1.5 in structure (EMSA for signatures, EME type
2 for encryption) over SHA-256 digests.  Key sizes in tests/simulations
default to 1024 bits — generation is seconds-fast in pure Python and the
security level is irrelevant to the reproduction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

from repro.crypto.drbg import Drbg


class CryptoError(Exception):
    """Signature verification failure, malformed padding, etc."""


# -- primality ------------------------------------------------------------

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def is_probable_prime(n: int, rng: Drbg, rounds: int = 24) -> bool:
    """Miller–Rabin with deterministic witnesses drawn from ``rng``."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: Drbg) -> int:
    """A random prime with the top two bits set (so p*q has full length)."""
    if bits < 16:
        raise CryptoError("prime too small")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


def _modinv(a: int, m: int) -> int:
    try:
        return pow(a, -1, m)
    except ValueError:
        raise CryptoError("no modular inverse") from None


# -- keys ----------------------------------------------------------------


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> bytes:
        """SHA-256 over the canonical encoding — SFS's HostID uses this."""
        return hashlib.sha256(self.to_bytes()).digest()

    def to_bytes(self) -> bytes:
        nb = self.n.to_bytes(self.size_bytes, "big")
        eb = self.e.to_bytes(4, "big")
        return len(nb).to_bytes(4, "big") + nb + eb

    @classmethod
    def from_bytes(cls, data: bytes) -> "RsaPublicKey":
        if len(data) < 8:
            raise CryptoError("truncated public key")
        nlen = int.from_bytes(data[:4], "big")
        if len(data) != 4 + nlen + 4:
            raise CryptoError("malformed public key encoding")
        n = int.from_bytes(data[4 : 4 + nlen], "big")
        e = int.from_bytes(data[4 + nlen :], "big")
        return cls(n, e)

    # -- verification / encryption (public operations) --------------------

    def verify(self, message: bytes, signature: bytes) -> bool:
        try:
            expected = _emsa_encode(message, self.size_bytes)
        except CryptoError:
            return False
        if len(signature) != self.size_bytes:
            return False
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            return False
        m = pow(s, self.e, self.n)
        return m.to_bytes(self.size_bytes, "big") == expected

    def encrypt(self, plaintext: bytes, rng: Drbg) -> bytes:
        k = self.size_bytes
        if len(plaintext) > k - 11:
            raise CryptoError(f"plaintext too long for RSA-{k * 8}")
        ps = bytearray()
        while len(ps) < k - 3 - len(plaintext):
            b = rng.randbytes(1)
            if b != b"\x00":
                ps += b
        em = b"\x00\x02" + bytes(ps) + b"\x00" + plaintext
        m = int.from_bytes(em, "big")
        return pow(m, self.e, self.n).to_bytes(k, "big")


@dataclass(frozen=True)
class RsaKeyPair:
    public: RsaPublicKey
    d: int
    p: int
    q: int

    # -- private operations ------------------------------------------------

    def sign(self, message: bytes) -> bytes:
        em = _emsa_encode(message, self.public.size_bytes)
        m = int.from_bytes(em, "big")
        s = self._private_op(m)
        return s.to_bytes(self.public.size_bytes, "big")

    def decrypt(self, ciphertext: bytes) -> bytes:
        k = self.public.size_bytes
        if len(ciphertext) != k:
            raise CryptoError("ciphertext length mismatch")
        c = int.from_bytes(ciphertext, "big")
        if c >= self.public.n:
            raise CryptoError("ciphertext out of range")
        em = self._private_op(c).to_bytes(k, "big")
        if em[:2] != b"\x00\x02":
            raise CryptoError("bad EME padding")
        try:
            sep = em.index(b"\x00", 2)
        except ValueError:
            raise CryptoError("bad EME padding") from None
        if sep < 10:
            raise CryptoError("EME padding string too short")
        return em[sep + 1 :]

    @cached_property
    def _crt(self) -> Tuple[int, int, int]:
        """``(dp, dq, qinv)``, worked out on the first private operation."""
        return self.d % (self.p - 1), self.d % (self.q - 1), _modinv(self.q, self.p)

    def _private_op(self, m: int) -> int:
        # CRT speedup: ~4x over plain pow(m, d, n).
        dp, dq, qinv = self._crt
        m1 = pow(m % self.p, dp, self.p)
        m2 = pow(m % self.q, dq, self.q)
        h = (qinv * (m1 - m2)) % self.p
        return (m2 + h * self.q) % self.public.n


# -- EMSA-PKCS1-v1_5-style signature encoding over SHA-256 -----------------

#: Stand-in for the ASN.1 DigestInfo prefix (we use our own tag; the
#: encoding just has to be fixed and unambiguous).
_DIGEST_TAG = b"repro:sha256:"


def _emsa_encode(message: bytes, k: int) -> bytes:
    digest = hashlib.sha256(message).digest()
    t = _DIGEST_TAG + digest
    if k < len(t) + 11:
        raise CryptoError("RSA modulus too small for signature encoding")
    return b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t


#: ``(Drbg state at entry, bits, e) -> (key pair, Drbg state at exit)``.
#: Harnesses, tests and bench reps re-derive the same few labels over and
#: over; oldest entries go first once the bound is reached.
_KEYPAIR_MEMO: Dict[tuple, Tuple[RsaKeyPair, tuple]] = {}
_KEYPAIR_MEMO_MAX = 1024


def generate_keypair(bits: int = 1024, rng: Drbg | None = None, e: int = 65537) -> RsaKeyPair:
    """Generate an RSA keypair deterministically from ``rng``.

    A key pair is a pure function of the generator state it is drawn
    from, so the prime search runs once per process for each distinct
    ``(state, bits, e)``.  A repeat returns the same immutable key pair
    and leaves ``rng`` exactly where the search left it: every later
    draw is what a cold run would have drawn.
    """
    rng = rng or Drbg("default-rsa-seed")
    key = (rng.snapshot(), bits, e)
    hit = _KEYPAIR_MEMO.get(key)
    if hit is not None:
        rng.restore(hit[1])
        return hit[0]
    keypair = _search_keypair(bits, rng, e)
    if len(_KEYPAIR_MEMO) >= _KEYPAIR_MEMO_MAX:
        del _KEYPAIR_MEMO[next(iter(_KEYPAIR_MEMO))]
    _KEYPAIR_MEMO[key] = (keypair, rng.snapshot())
    return keypair


def _search_keypair(bits: int, rng: Drbg, e: int) -> RsaKeyPair:
    """The prime search itself; draws from ``rng`` until a pair fits."""
    if bits < 256:
        raise CryptoError("modulus below 256 bits is unusable even for tests")
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = _modinv(e, phi)
        return RsaKeyPair(RsaPublicKey(n, e), d, p, q)
