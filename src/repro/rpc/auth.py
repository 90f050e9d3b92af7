"""RPC authentication flavors (RFC 1831 §9).

NFS v2/v3 deployments near-universally use AUTH_SYS (UNIX-style uid/gid
credentials), which is exactly the weakness the paper's introduction
calls out: the credentials are plain integers anyone can forge.  SGFS
keeps AUTH_SYS in the inner RPC messages — the proxies still need the
uid/gid for identity mapping — but moves *actual* authentication to the
certificate handshake of the secure transport.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Tuple

from repro.xdr import Packer, Unpacker, XdrError

AUTH_NONE = 0
AUTH_SYS = 1  # a.k.a. AUTH_UNIX

#: RFC 1831 limit on opaque auth bodies.
MAX_AUTH_BODY = 400

_AUTH_HEADER = struct.Struct(">iI")  # flavor, body length


@dataclass(frozen=True)
class OpaqueAuth:
    """A (flavor, body) pair as it appears on the wire."""

    flavor: int = AUTH_NONE
    body: bytes = b""

    def pack(self, p: Packer) -> None:
        p.pack_encoded(self._wire)

    @cached_property
    def _wire(self) -> bytes:
        """Header, body and padding; built once, the instance is immutable."""
        n = len(self.body)
        if n > MAX_AUTH_BODY:
            raise XdrError(f"auth body {n} exceeds {MAX_AUTH_BODY}")
        p = Packer()
        p.pack_struct(_AUTH_HEADER, self.flavor, n)
        p.pack_fopaque(n, self.body)
        return p.get_bytes()

    @classmethod
    def unpack(cls, u: Unpacker) -> "OpaqueAuth":
        flavor, n = u.unpack_struct(_AUTH_HEADER)
        if n > MAX_AUTH_BODY:
            raise XdrError(f"opaque length {n} exceeds limit {MAX_AUTH_BODY}")
        if n == 0 and flavor == AUTH_NONE:
            return NULL_AUTH  # every verifier, and every NULL call's credential
        return cls(flavor, u.unpack_fopaque(n))


NULL_AUTH = OpaqueAuth()


@dataclass(frozen=True)
class AuthSys:
    """AUTH_SYS credential contents.

    Immutable all the way down (``gids`` is stored as a tuple), so one
    parsed or encoded instance can be shared by every call that carries
    the same credential.
    """

    stamp: int = 0
    machinename: str = "localhost"
    uid: int = 65534  # nobody
    gid: int = 65534
    gids: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gids", tuple(self.gids))

    def to_opaque(self) -> OpaqueAuth:
        return self._opaque

    @cached_property
    def _opaque(self) -> OpaqueAuth:
        p = Packer()
        p.pack_uint(self.stamp)
        p.pack_string(self.machinename)
        p.pack_uint(self.uid)
        p.pack_uint(self.gid)
        p.pack_array(self.gids, p.pack_uint)
        return OpaqueAuth(AUTH_SYS, p.get_bytes())

    @classmethod
    def from_opaque(cls, auth: OpaqueAuth) -> "AuthSys":
        if auth.flavor != AUTH_SYS:
            raise XdrError(f"not an AUTH_SYS credential (flavor={auth.flavor})")
        return _parse_auth_sys(auth.body)

    def with_identity(self, uid: int, gid: int) -> "AuthSys":
        """A copy with remapped uid/gid — the proxy's identity mapping."""
        return AuthSys(self.stamp, self.machinename, uid, gid, self.gids)


@lru_cache(maxsize=256)
def _parse_auth_sys(body: bytes) -> AuthSys:
    """One strict parse per distinct credential body.

    Every hop sees the same few bodies on every call (the DRC key, the
    identity remap, nfsd's permission check).  The result is immutable
    and a pure function of ``body``; a body that fails to parse raises
    every time (exceptions are not cached).
    """
    u = Unpacker(body)
    stamp = u.unpack_uint()
    machinename = u.unpack_string(max_len=255)
    uid = u.unpack_uint()
    gid = u.unpack_uint()
    gids = u.unpack_array(u.unpack_uint, max_len=16)
    u.assert_done()
    return AuthSys(stamp, machinename, uid, gid, gids)
