"""RPC CALL and REPLY message encode/decode (RFC 1831 §8).

Messages carry their procedure arguments/results as raw bytes: the
program layer (NFS) packs/unpacks those separately.  That split is what
lets the SGFS proxies forward and rewrite messages without understanding
every procedure — they only re-encode the credential when doing identity
mapping.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.rpc.auth import OpaqueAuth, NULL_AUTH
from repro.rpc.errors import (
    RpcAuthError,
    RpcError,
    RpcGarbageArgs,
    RpcProcUnavail,
    RpcProgMismatch,
    RpcProgUnavail,
    RpcSystemError,
)
from repro.xdr import Packer, Unpacker, XdrError

RPC_VERSION = 2

# msg_type
CALL = 0
REPLY = 1

# reply_stat
MSG_ACCEPTED = 0
MSG_DENIED = 1

# accept_stat
SUCCESS = 0
PROG_UNAVAIL = 1
PROG_MISMATCH = 2
PROC_UNAVAIL = 3
GARBAGE_ARGS = 4
SYSTEM_ERR = 5

# reject_stat
RPC_MISMATCH = 0
AUTH_ERROR = 1

# auth_stat (subset)
AUTH_OK = 0
AUTH_BADCRED = 1
AUTH_REJECTEDCRED = 2
AUTH_BADVERF = 3
AUTH_TOOWEAK = 5

#: what ``CallMessage.decode`` / ``ReplyMessage.decode`` raise on a
#: record that is not one: a bad field, or not enough bytes
DECODE_ERRORS = (RpcError, XdrError)

# Fixed layouts, one struct call each.
_CALL_HEADER = struct.Struct(">IiIIII")  # xid, CALL, rpcvers, prog, vers, proc
_REPLY_HEADER = struct.Struct(">Iii")  # xid, REPLY, reply_stat
#: the whole header of the common reply: accepted, empty verifier body
_ACCEPTED = struct.Struct(">IiiiIi")  # ..., verf flavor, verf length 0, accept_stat
_ENUM_RANGE = struct.Struct(">iII")  # PROG_MISMATCH / RPC_MISMATCH + low, high
_ENUM_ENUM = struct.Struct(">ii")  # AUTH_ERROR, auth_stat


@dataclass
class CallMessage:
    xid: int
    prog: int
    vers: int
    proc: int
    cred: OpaqueAuth = NULL_AUTH
    verf: OpaqueAuth = NULL_AUTH
    args: bytes = b""

    def encode(self) -> bytes:
        p = Packer()
        p.pack_struct(
            _CALL_HEADER, self.xid, CALL, RPC_VERSION, self.prog, self.vers, self.proc
        )
        self.cred.pack(p)
        self.verf.pack(p)
        p.pack_encoded(self.args)
        return p.get_bytes()

    @classmethod
    def decode(cls, record: bytes) -> "CallMessage":
        u = Unpacker(record)
        try:
            xid, mtype, rpcvers, prog, vers, proc = u.unpack_struct(_CALL_HEADER)
        except XdrError:
            mtype = rpcvers = None
        if mtype != CALL or rpcvers != RPC_VERSION:
            # Malformed header: read it again a field at a time, so the
            # first bad field picks the error (RpcError for a wrong
            # msg_type or version even on a short record, else underrun).
            u = Unpacker(record)
            xid = u.unpack_uint()
            mtype = u.unpack_enum()
            if mtype != CALL:
                raise RpcError(f"expected CALL, got msg_type={mtype}")
            rpcvers = u.unpack_uint()
            if rpcvers != RPC_VERSION:
                raise RpcError(f"unsupported RPC version {rpcvers}")
            prog, vers, proc = u.unpack_uint(), u.unpack_uint(), u.unpack_uint()
        cred = OpaqueAuth.unpack(u)
        verf = OpaqueAuth.unpack(u)
        # the one copy of the arguments at this hop
        return cls(xid, prog, vers, proc, cred, verf, bytes(record[u.position :]))

    def with_cred(self, cred: OpaqueAuth) -> "CallMessage":
        """A copy with a replaced credential — used by identity mapping."""
        return CallMessage(self.xid, self.prog, self.vers, self.proc, cred, self.verf, self.args)


@dataclass
class ReplyMessage:
    xid: int
    reply_stat: int = MSG_ACCEPTED
    accept_stat: int = SUCCESS
    reject_stat: int = 0
    auth_stat: int = 0
    verf: OpaqueAuth = NULL_AUTH
    mismatch_low: int = 0
    mismatch_high: int = 0
    results: bytes = b""

    def encode(self) -> bytes:
        p = Packer()
        p.pack_struct(_REPLY_HEADER, self.xid, REPLY, self.reply_stat)
        if self.reply_stat == MSG_ACCEPTED:
            self.verf.pack(p)
            if self.accept_stat == PROG_MISMATCH:
                p.pack_struct(
                    _ENUM_RANGE, self.accept_stat, self.mismatch_low, self.mismatch_high
                )
            else:
                p.pack_enum(self.accept_stat)
                if self.accept_stat == SUCCESS:
                    p.pack_encoded(self.results)
        elif self.reject_stat == RPC_MISMATCH:  # MSG_DENIED
            p.pack_struct(
                _ENUM_RANGE, self.reject_stat, self.mismatch_low, self.mismatch_high
            )
        else:  # AUTH_ERROR
            p.pack_struct(_ENUM_ENUM, self.reject_stat, self.auth_stat)
        return p.get_bytes()

    @classmethod
    def decode(cls, record: bytes) -> "ReplyMessage":
        try:
            xid, mtype, reply_stat, flavor, verf_len, accept_stat = (
                _ACCEPTED.unpack_from(record)
            )
        except struct.error:
            mtype = None  # shorter than the common header: a denial, or garbage
        if (
            mtype == REPLY and reply_stat == MSG_ACCEPTED
            and verf_len == 0 and accept_stat == SUCCESS
        ):
            verf = OpaqueAuth(flavor) if flavor else NULL_AUTH
            # the one copy of the results at this hop
            return cls(xid, verf=verf, results=bytes(record[_ACCEPTED.size :]))
        # Every other arm of the union, and every malformed header, a
        # field at a time: the first bad field picks the error.
        u = Unpacker(record)
        xid = u.unpack_uint()
        mtype = u.unpack_enum()
        if mtype != REPLY:
            raise RpcError(f"expected REPLY, got msg_type={mtype}")
        reply_stat = u.unpack_enum()
        msg = cls(xid, reply_stat)
        if reply_stat == MSG_ACCEPTED:
            msg.verf = OpaqueAuth.unpack(u)
            msg.accept_stat = u.unpack_enum()
            if msg.accept_stat == PROG_MISMATCH:
                msg.mismatch_low = u.unpack_uint()
                msg.mismatch_high = u.unpack_uint()
            elif msg.accept_stat == SUCCESS:
                msg.results = bytes(record[u.position :])
        elif reply_stat == MSG_DENIED:
            msg.reject_stat = u.unpack_enum()
            if msg.reject_stat == RPC_MISMATCH:
                msg.mismatch_low = u.unpack_uint()
                msg.mismatch_high = u.unpack_uint()
            else:
                msg.auth_stat = u.unpack_enum()
        else:
            raise RpcError(f"bad reply_stat {reply_stat}")
        return msg

    @property
    def ok(self) -> bool:
        """An accepted SUCCESS — the only reply that carries results."""
        return self.reply_stat == MSG_ACCEPTED and self.accept_stat == SUCCESS

    def raise_for_status(self) -> None:
        """Raise the matching RpcError subclass unless SUCCESS."""
        if self.ok:
            return
        if self.reply_stat == MSG_DENIED:
            if self.reject_stat == RPC_MISMATCH:
                raise RpcError("RPC version rejected by server")
            raise RpcAuthError(self.auth_stat)
        if self.accept_stat == PROG_UNAVAIL:
            raise RpcProgUnavail("program unavailable")
        if self.accept_stat == PROG_MISMATCH:
            raise RpcProgMismatch(self.mismatch_low, self.mismatch_high)
        if self.accept_stat == PROC_UNAVAIL:
            raise RpcProcUnavail("procedure unavailable")
        if self.accept_stat == GARBAGE_ARGS:
            raise RpcGarbageArgs("server could not decode arguments")
        raise RpcSystemError(f"server error (accept_stat={self.accept_stat})")


def success_reply(xid: int, results: bytes) -> ReplyMessage:
    return ReplyMessage(xid=xid, results=results)


def error_reply(xid: int, accept_stat: int) -> ReplyMessage:
    return ReplyMessage(xid=xid, accept_stat=accept_stat)


def denied_reply(xid: int, auth_stat: int) -> ReplyMessage:
    return ReplyMessage(
        xid=xid, reply_stat=MSG_DENIED, reject_stat=AUTH_ERROR, auth_stat=auth_stat
    )
