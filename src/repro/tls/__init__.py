"""SSL-like secure channel for RPC transports (paper §4.1).

Reimplements the essential structure of SSL/TLS the paper gets from
OpenSSL: a mutually-authenticated handshake with X.509-style certificate
exchange and RSA key transport, key derivation from a premaster secret,
and a record layer providing confidentiality (per-suite bulk cipher) and
integrity (SHA1-HMAC over a per-direction sequence number), with support
for renegotiation — including the timer-driven periodic rekey of long
sessions described in §4.2.

:class:`~repro.tls.channel.SecureChannel` implements the same transport
interface as :class:`~repro.rpc.transport.StreamTransport`, so the RPC
endpoints and SGFS proxies are oblivious to whether they run secured —
exactly the drop-in property of the paper's ``clnt_tli_ssl_create``.
"""

from repro.tls.config import SecurityConfig
from repro.tls.channel import (
    SecureChannel,
    SessionTicketCache,
    HandshakeError,
    IntegrityError,
    client_handshake,
    server_handshake,
)

__all__ = [
    "SecurityConfig",
    "SecureChannel",
    "SessionTicketCache",
    "HandshakeError",
    "IntegrityError",
    "client_handshake",
    "server_handshake",
]
