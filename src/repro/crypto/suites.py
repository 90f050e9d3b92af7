"""Cipher suites: bulk cipher + MAC pairings used by the secure channel.

Each suite names a bulk cipher spec and a MAC spec.  A spec carries:

- the *real* implementation (bit-exact AES/RC4 from this package), and
- a nominal cost in CPU cycles/byte, which the secure channel charges to
  the host's virtual CPU.  The cycles/byte figures are 2007-era software
  numbers (no AES-NI), and are what make the paper's measured security
  overheads (+9 % HMAC-only, +15 % RC4, +50 % AES-256) emerge rather
  than being hard-coded.

``fast=True`` states substitute the bulk transform with a keyed XOR pad
(numpy-accelerated) while keeping the *real* SHA1-HMAC and the *named*
algorithm's CPU cost: pure-Python AES moves ~50 KB/s, which cannot carry
the gigabyte-scale IOzone experiment.  Integration tests run the real
ciphers end-to-end; benchmarks run fast states.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.rc4 import RC4
from repro.crypto.hmac import KeyedHmac, constant_time_equal, hmac_digest
from repro.crypto.padding import PaddingError, pkcs7_pad, pkcs7_unpad

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

_SEQ = struct.Struct(">Q")
_NO_PAD = np.empty(0, dtype=np.uint8)


class IntegrityError(Exception):
    """A sealed record failed decryption or MAC verification."""


class CipherStateBase:
    """Per-direction bulk cipher state."""

    def encrypt(self, data: bytes) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def decrypt(self, data: bytes) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError


class NullCipherState(CipherStateBase):
    """Integrity-only configurations carry plaintext."""

    def encrypt(self, data: bytes) -> bytes:
        return data

    def decrypt(self, data: bytes) -> bytes:
        return data


class Rc4State(CipherStateBase):
    """Real RC4 with independent send/recv streams handled by the caller."""

    def __init__(self, key: bytes):
        self._enc = RC4(key)
        self._dec = RC4(key)
        self._enc.skip(768)
        self._dec.skip(768)

    def encrypt(self, data: bytes) -> bytes:
        return self._enc.process(data)

    def decrypt(self, data: bytes) -> bytes:
        return self._dec.process(data)


class AesCbcState(CipherStateBase):
    """Real AES-CBC with PKCS#7 padding and chained IVs (TLS-1.0 style)."""

    def __init__(self, key: bytes, iv: bytes):
        self._aes = AES(key)
        self._enc_iv = iv
        self._dec_iv = iv

    def encrypt(self, data: bytes) -> bytes:
        ct = self._aes.cbc_encrypt(self._enc_iv, pkcs7_pad(data, 16))
        self._enc_iv = ct[-16:]
        return ct

    def decrypt(self, data: bytes) -> bytes:
        pt = pkcs7_unpad(self._aes.cbc_decrypt(self._dec_iv, data), 16)
        self._dec_iv = data[-16:]
        return pt


def pad_source(material: bytes) -> np.random.PCG64:
    """The keystream generator of a keyed XOR pad: PCG64 seeded with the
    first 8 bytes of SHA-256(``material``)."""
    return np.random.PCG64(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))


def draw_pad(source: np.random.PCG64, nbytes: int) -> np.ndarray:
    """The next ``nbytes`` of ``source``'s keystream, rounded up to whole
    8-byte words, as ``uint8``.

    The raw 64-bit outputs viewed little-endian are byte for byte the
    stream ``Generator(source).integers(0, 256, dtype=uint8)`` draws
    (PCG64 feeds its ``uint8`` draws from each output low byte first),
    at under half the cost."""
    words = source.random_raw(-(-nbytes // 8))
    return words.astype("<u8", copy=False).view(np.uint8)


class FastXorState(CipherStateBase):
    """Keyed XOR pad stand-in for bulk benchmark traffic.

    Deterministic per key/iv, round-trips exactly, garbles plaintext —
    but is NOT cryptographically secure and exists purely so gigabyte
    experiments do not execute pure-Python AES.  The virtual CPU is
    still charged the named algorithm's cost by the record layer.

    The pad is drawn when first used: nothing at set-up, then, whenever
    a record runs past what is drawn, out to twice as far as the records
    reach, in whole 8-byte words, up to ``PAD_LEN`` — so a session pays
    for the bytes it seals, not for a 64 KiB pad per direction.  What
    has been drawn is always a prefix of the same pad.
    """

    PAD_LEN = 1 << 16

    def __init__(self, key: bytes, iv: bytes):
        self._material = key + iv
        self._source: Optional[np.random.PCG64] = None
        self._pad = _NO_PAD
        #: pad bytes drawn so far: a multiple of 8, at most PAD_LEN
        self._drawn = 0
        self._enc_off = 0
        self._dec_off = 0

    def _grow(self, need: int) -> None:
        """Draw the pad out to twice the ``need`` bytes the records have
        reached (at most ``PAD_LEN``): the spare half means a stream of
        records grows it a logarithmic number of times."""
        if self._source is None:
            self._source = pad_source(self._material)
        size = min(2 * need, self.PAD_LEN)
        more = draw_pad(self._source, size - self._drawn)
        self._pad = np.concatenate([self._pad, more]) if self._drawn else more
        self._drawn = len(self._pad)
        if self._drawn == self.PAD_LEN:
            self._source = None  # whole: nothing more will be drawn

    def _xor(self, data: bytes, off: int) -> tuple[bytes, int]:
        n = len(data)
        start = off % self.PAD_LEN
        end = start + n
        if end <= self._drawn:
            keystream = self._pad[start:end]  # a view: nothing is copied
        elif end <= self.PAD_LEN:
            self._grow(end)
            keystream = self._pad[start:end]
        else:
            # The record runs past the end of the pad: its tail, as many
            # whole pads as fit, then its head.  Built per record — a
            # doubled pad would avoid this, but a fleet holds hundreds
            # of cipher states and each would carry the extra 64 KiB.
            if self._drawn < self.PAD_LEN:
                self._grow(self.PAD_LEN)
            whole, head = divmod(end - self.PAD_LEN, self.PAD_LEN)
            keystream = np.concatenate(
                [self._pad[start:], *[self._pad] * whole, self._pad[:head]]
            )
        out = np.bitwise_xor(np.frombuffer(data, dtype=np.uint8), keystream)
        return out.tobytes(), off + n

    def encrypt(self, data: bytes) -> bytes:
        out, self._enc_off = self._xor(data, self._enc_off)
        return out

    def decrypt(self, data: bytes) -> bytes:
        out, self._dec_off = self._xor(data, self._dec_off)
        return out


@dataclass(frozen=True)
class CipherSpec:
    """Names a bulk cipher and its cost/keying parameters."""

    name: str
    key_len: int
    iv_len: int
    cycles_per_byte: float

    def new_state(self, key: bytes, iv: bytes, fast: bool) -> CipherStateBase:
        if len(key) != self.key_len:
            raise ValueError(f"{self.name}: key must be {self.key_len} bytes")
        if self.name == "null":
            return NullCipherState()
        if fast:
            return FastXorState(key, iv or b"\x00")
        if self.name == "rc4-128":
            return Rc4State(key)
        if self.name == "aes-256-cbc":
            return AesCbcState(key, iv)
        raise ValueError(f"unknown cipher {self.name}")


@dataclass(frozen=True)
class MacSpec:
    name: str
    key_len: int
    digest_len: int
    cycles_per_byte: float

    def compute(self, key: bytes, message: bytes) -> bytes:
        if self.name == "none":
            return b""
        algo = self.name.split("-", 1)[1]  # "hmac-sha1" -> "sha1"
        return hmac_digest(key, message, algo)

    def keyed(self, key: bytes) -> Optional[KeyedHmac]:
        """The MAC with ``key`` absorbed, for a stream of messages."""
        if self.name == "none":
            return None
        return KeyedHmac(key, self.name.split("-", 1)[1])


NULL_CIPHER = CipherSpec("null", 0, 0, 0.0)
RC4_128 = CipherSpec("rc4-128", 16, 0, 7.0)
AES_256_CBC = CipherSpec("aes-256-cbc", 32, 16, 46.0)

NO_MAC = MacSpec("none", 0, 0, 0.0)
HMAC_SHA1 = MacSpec("hmac-sha1", 20, 20, 8.0)
HMAC_SHA256 = MacSpec("hmac-sha256", 32, 32, 14.0)


@dataclass(frozen=True)
class CipherSuite:
    """A named (cipher, MAC) pairing selectable per SGFS session."""

    name: str
    cipher: CipherSpec
    mac: MacSpec

    @property
    def cycles_per_byte(self) -> float:
        return self.cipher.cycles_per_byte + self.mac.cycles_per_byte

    @property
    def key_material_len(self) -> int:
        # two directions each need cipher key + iv + mac key
        return 2 * (self.cipher.key_len + self.cipher.iv_len + self.mac.key_len)


#: The suite menu of the evaluation (§6.2.1).
SUITE_NULL_SHA = CipherSuite("null-sha1", NULL_CIPHER, HMAC_SHA1)       # sgfs-sha
SUITE_RC4_SHA = CipherSuite("rc4-128-sha1", RC4_128, HMAC_SHA1)         # sgfs-rc
SUITE_AES_SHA = CipherSuite("aes-256-cbc-sha1", AES_256_CBC, HMAC_SHA1)  # sgfs-aes
SUITE_PLAIN = CipherSuite("plaintext", NULL_CIPHER, NO_MAC)             # handshake bootstrap

SUITES = {
    s.name: s
    for s in (SUITE_NULL_SHA, SUITE_RC4_SHA, SUITE_AES_SHA, SUITE_PLAIN)
}


def derive_key_block(master_secret: bytes, label: str, n: int) -> bytes:
    """TLS-PRF-like expansion: HMAC-SHA256 counter mode over the secret."""
    out = b""
    counter = 0
    seed = label.encode("utf-8")
    while len(out) < n:
        out += hmac_digest(
            master_secret, seed + counter.to_bytes(4, "big"), "sha256"
        )
        counter += 1
    return out[:n]


class Direction:
    """One direction of a sealed record stream — the record format of
    the TLS-like channel, the SFS channel and the SSH tunnel alike:
    ``cipher(payload || HMAC(seq || aad || payload))``, MAC-then-encrypt
    under a per-direction 64-bit sequence number.  ``aad`` is whatever
    travels beside the ciphertext and must not be alterable (the TLS
    channel's content-type byte; nothing for SFS and the tunnel)."""

    __slots__ = ("suite", "cipher_state", "_mac", "seq")

    def __init__(self, suite: CipherSuite, cipher_state: CipherStateBase,
                 mac_key: bytes):
        self.suite = suite
        self.cipher_state = cipher_state
        self._mac = suite.mac.keyed(mac_key)
        self.seq = 0

    def seal(self, payload: bytes, aad: bytes = b"") -> bytes:
        mac = b"" if self._mac is None else self._mac.digest(
            _SEQ.pack(self.seq), aad, payload)
        self.seq += 1
        return self.cipher_state.encrypt(payload + mac)

    def open(self, blob: bytes, aad: bytes = b"") -> bytes:
        """The payload of the next record in sequence, or
        :class:`IntegrityError` — altered, truncated, replayed,
        reordered or sealed for another direction."""
        try:
            plain = self.cipher_state.decrypt(blob)
        except (PaddingError, ValueError) as exc:
            raise IntegrityError(f"decryption failed: {exc}") from None
        mac_len = self.suite.mac.digest_len
        if mac_len:
            if len(plain) < mac_len:
                raise IntegrityError("record shorter than MAC")
            payload, mac = plain[:-mac_len], plain[-mac_len:]
            expect = self._mac.digest(_SEQ.pack(self.seq), aad, payload)
            if not constant_time_equal(mac, expect):
                raise IntegrityError("MAC verification failed")
        else:
            payload = plain
        self.seq += 1
        return payload


def derive_directions(suite: CipherSuite, secret: bytes, label: str,
                      fast: bool) -> Tuple[Direction, Direction]:
    """Expand ``secret`` into the key block and cut it into the
    (client->server, server->client) directions: both MAC keys, then
    both cipher keys, then both IVs."""
    block = derive_key_block(secret, label, suite.key_material_len)
    cut = []
    off = 0
    for n in (suite.mac.key_len, suite.cipher.key_len, suite.cipher.iv_len):
        cut.append((block[off : off + n], block[off + n : off + 2 * n]))
        off += 2 * n
    (c_mac, s_mac), (c_key, s_key), (c_iv, s_iv) = cut
    return (
        Direction(suite, suite.cipher.new_state(c_key, c_iv, fast), c_mac),
        Direction(suite, suite.cipher.new_state(s_key, s_iv, fast), s_mac),
    )


def charge_crypto(sim, cpu, suite: CipherSuite, nbytes: int, account: str,
                  affinity=None):
    """Process generator: charge the bulk cipher+MAC work for ``nbytes``.

    Split between user CPU (visible in the utilization figures, in the
    ledger account ``account``) and wall latency per
    :data:`CRYPTO_CPU_FRACTION`; without a CPU it all elapses as
    latency.  ``affinity`` pins the CPU part to one core (see
    :meth:`repro.sim.cpu.CPU.consume`).
    """
    cost = suite.cycles_per_byte * nbytes / CPU_HZ
    if cost <= 0:
        return
    if cpu is None:
        yield sim.timeout(cost)
        return
    yield from cpu.consume(cost * CRYPTO_CPU_FRACTION, account, affinity=affinity)
    yield sim.timeout(cost * (1.0 - CRYPTO_CPU_FRACTION))
