"""ONC RPC (RFC 1831) over simulated stream transports.

Layers, bottom to top:

- :mod:`repro.rpc.record` — RFC 1831 §10 record marking over a byte
  stream (fragment headers, reassembly).
- :mod:`repro.rpc.transport` — the transport interface the stack runs
  on.  :class:`~repro.rpc.transport.StreamTransport` is the plain TCP
  flavor; the TLS channel (:mod:`repro.tls`) and SSH tunnel
  (:mod:`repro.sshtun`) provide drop-in secure flavors, which is exactly
  how the paper's ``clnt_tli_ssl_create`` slots under unmodified RPC
  code.
- :mod:`repro.rpc.auth` — AUTH_NONE / AUTH_SYS credentials.
- :mod:`repro.rpc.messages` — CALL/REPLY message encode/decode.
- :mod:`repro.rpc.client` / :mod:`repro.rpc.server` — endpoints.  The
  client supports multiple outstanding calls matched by xid (the SFS
  baseline pipelines; the SGFS prototype issues blocking calls — the
  paper's stated reason it trails SFS by ~15 % under IOzone).
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
