"""At-rest cryptographic protection — the paper's §7 future work.

"Our future work will consider building user-level cryptographic
functions into SGFS to ensure the privacy and integrity of data stored
on the servers."  This module implements that extension on the
client-side proxy path: file data is encrypted (and MACed) *before* it
leaves the session, so the file server and its administrators only ever
see ciphertext; reads verify and decrypt on the way back.

Design: a length-preserving per-(file, block) keystream cipher keeps
NFS offsets/sizes intact (the server is oblivious), and a per-block
HMAC-SHA256 is kept in the session's local MAC store — integrity is
detected at the trusting end, which is the only end that matters when
the server itself is the adversary.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

import numpy as np

from repro.crypto.hmac import constant_time_equal, hmac_sha256
from repro.crypto.suites import draw_pad, pad_source


class AtRestIntegrityError(Exception):
    """Stored data failed MAC verification — server-side tampering."""


class BlockCryptor:
    """Encrypt/verify 32 KB-class blocks keyed per (fileid, block)."""

    def __init__(self, session_key: bytes):
        if len(session_key) < 16:
            raise ValueError("session key too short")
        self._key = session_key
        self._mac_key = hmac_sha256(session_key, b"at-rest-mac")
        #: (fileid, block) -> MAC of the *ciphertext* stored remotely
        self.mac_store: Dict[Tuple[int, int], bytes] = {}

    # -- keystream -------------------------------------------------------

    def _pad(self, fileid: int, block: int, n: int) -> np.ndarray:
        source = pad_source(self._key + struct.pack(">QQ", fileid, block))
        return draw_pad(source, n)[:n]

    def _xor(self, fileid: int, block: int, data: bytes) -> bytes:
        pad = self._pad(fileid, block, len(data))
        return np.bitwise_xor(np.frombuffer(data, dtype=np.uint8), pad).tobytes()

    # -- API ---------------------------------------------------------------

    def seal(self, fileid: int, block: int, plaintext: bytes) -> bytes:
        """Encrypt a block for storage; records its MAC locally."""
        ct = self._xor(fileid, block, plaintext)
        self.mac_store[(fileid, block)] = hmac_sha256(
            self._mac_key, struct.pack(">QQ", fileid, block) + ct
        )
        return ct

    def open(self, fileid: int, block: int, ciphertext: bytes) -> bytes:
        """Verify and decrypt a block fetched from the server."""
        expected = self.mac_store.get((fileid, block))
        if expected is not None:
            actual = hmac_sha256(
                self._mac_key, struct.pack(">QQ", fileid, block) + ciphertext
            )
            if not constant_time_equal(actual, expected):
                raise AtRestIntegrityError(
                    f"block ({fileid}, {block}) modified on the server"
                )
        return self._xor(fileid, block, ciphertext)

    def forget_file(self, fileid: int) -> None:
        for key in [k for k in self.mac_store if k[0] == fileid]:
            del self.mac_store[key]
