"""ONC RPC (RFC 1831) over simulated stream transports.

Layers, bottom to top:

- :mod:`repro.rpc.record` — RFC 1831 §10 record marking over a byte
  stream (fragment headers, reassembly).
- :mod:`repro.rpc.transport` — the transport interface the stack runs
  on.  :class:`~repro.rpc.transport.StreamTransport` is the plain TCP
  flavor and the only framing code;
  :class:`~repro.rpc.transport.SealedTransport` seals records over one
  (the SFS channel as is, the TLS channel of :mod:`repro.tls` by
  extension), which is exactly how the paper's ``clnt_tli_ssl_create``
  slots under unmodified RPC code.
- :mod:`repro.rpc.auth` — AUTH_NONE / AUTH_SYS credentials.
- :mod:`repro.rpc.messages` — CALL/REPLY message encode/decode.
- :mod:`repro.rpc.client` / :mod:`repro.rpc.server` — endpoints.  The
  calling side of every hop is one :class:`~repro.rpc.client.ReplyTable`
  (multiple outstanding calls matched by xid, same-record
  retransmission): the SFS baseline pipelines; the SGFS prototype
  issues blocking calls — the paper's stated reason it trails SFS by
  ~15 % under IOzone.
- :mod:`repro.rpc.drc` — the duplicate-request cache and the one
  exactly-once step (:meth:`DuplicateRequestCache.once`) every serving
  hop runs non-idempotent calls through.
"""

from repro.rpc.errors import RpcError, RpcAuthError, RpcGarbageArgs, RpcProgUnavail, RpcProcUnavail
from repro.rpc.record import RecordWriter, RecordReader
from repro.rpc.transport import Transport, StreamTransport
from repro.rpc.auth import OpaqueAuth, AuthSys, AUTH_NONE, AUTH_SYS
from repro.rpc.messages import CallMessage, ReplyMessage, MSG_ACCEPTED, MSG_DENIED, SUCCESS
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcServer, RpcProgram

__all__ = [
    "RpcError",
    "RpcAuthError",
    "RpcGarbageArgs",
    "RpcProgUnavail",
    "RpcProcUnavail",
    "RecordWriter",
    "RecordReader",
    "Transport",
    "StreamTransport",
    "OpaqueAuth",
    "AuthSys",
    "AUTH_NONE",
    "AUTH_SYS",
    "CallMessage",
    "ReplyMessage",
    "MSG_ACCEPTED",
    "MSG_DENIED",
    "SUCCESS",
    "RpcClient",
    "RpcServer",
    "RpcProgram",
]
