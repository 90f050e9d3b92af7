"""Service endpoints and clients over the simulated network.

Every management message is one signed :class:`Envelope` carried as the
argument (request) or result (reply) of an ONC RPC call to procedure
:data:`INVOKE` of :data:`SERVICE_PROGRAM`, one call per TCP connection.
A service is an :class:`~repro.rpc.server.RpcProgram` that
:class:`~repro.rpc.server.RpcServer` serves, so the transport, the
worker pool and the error replies are the RPC layer's: a malformed
envelope is ``GARBAGE_ARGS``, a handler bug ``SYSTEM_ERR``.  Security
refusals and unknown actions stay signed fault envelopes.

Message-level security costs real (virtual) CPU — an RSA sign or verify
per message — which is why the architecture keeps services off the data
path (§3.2): "the use of more expensive security mechanisms does not
hurt an established SGFS session's I/O performance".
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Optional

from repro.crypto.drbg import Drbg
from repro.gsi.certs import Certificate, Credential
from repro.gsi.names import DistinguishedName
from repro.rpc.messages import CallMessage, ReplyMessage
from repro.rpc.server import ProcUnavailable, RpcProgram, RpcServer
from repro.rpc.transport import StreamTransport
from repro.services.envelope import Envelope, ServiceFault, sign_envelope, verify_envelope
from repro.sim.core import Simulator

#: CPU seconds per message for RSA sign or verify plus message handling
#: — deliberately much heavier than transport-level security per message.
MESSAGE_SECURITY_CPU = 0.012

#: program number of the management services (a private program, like
#: the grid metadata service's)
SERVICE_PROGRAM = 400200
SERVICE_VERSION = 1
#: the one procedure: signed request envelope in, signed reply out
INVOKE = 1


class ServiceError(Exception):
    """Local service failure (bad handler, connection trouble)."""


#: handler(identity, params) -> dict of reply params; may be a plain
#: function or a process generator.
Handler = Callable[[DistinguishedName, Dict[str, str]], object]

#: authorizer(identity, action, request envelope) -> allowed?  The
#: envelope carries the presented certificate, which is how a service
#: refuses privileged actions to *limited* proxies.
Authorizer = Callable[[DistinguishedName, str, Envelope], bool]


class ServiceEndpoint(RpcProgram):
    """A WSRF-like service bound to (host, port)."""

    prog = SERVICE_PROGRAM
    vers = SERVICE_VERSION

    def __init__(
        self,
        sim: Simulator,
        host,
        port: int,
        credential: Credential,
        trust_anchors: Iterable[Certificate],
        name: str = "service",
        authorizer: Optional[Authorizer] = None,
    ):
        self.sim = sim
        self.host = host
        self.port = port
        self.credential = credential
        self.trust_anchors = tuple(trust_anchors)
        self.name = name
        self.authorizer = authorizer
        self._handlers: Dict[str, Handler] = {}
        self._seen_nonces: set = set()
        self._nonces = itertools.count(1)
        self._server = RpcServer(sim, name=f"{name}:{port}")
        self._server.register(self)
        self.requests_served = 0
        self.faults_returned = 0

    def register(self, action: str, handler: Handler) -> None:
        if action in self._handlers:
            raise ServiceError(f"duplicate action {action!r}")
        self._handlers[action] = handler

    def start(self) -> None:
        self._server.serve_listener(self.host.listen(self.port))

    def stop(self) -> None:
        """Refuse new calls, close open ones, end the workers."""
        self._server.stop()

    # -- request processing ----------------------------------------------------

    def handle(self, call):
        if call.proc != INVOKE:
            raise ProcUnavailable(call.proc)
        yield from self.host.cpu.consume(MESSAGE_SECURITY_CPU, "services")
        request = Envelope.decode(call.args)
        try:
            reply = yield from self._serve(request)
            self.requests_served += 1
        except ServiceFault as fault:
            self.faults_returned += 1
            reply = fault.envelope()
        sign_envelope(
            reply, self.credential, self.sim.now, f"srv-nonce-{next(self._nonces)}"
        )
        return reply.encode()

    def _serve(self, request: Envelope):
        identity = verify_envelope(
            request, self.trust_anchors, self.sim.now, self._seen_nonces
        )
        if self.authorizer is not None and not self.authorizer(
            identity, request.action, request
        ):
            raise ServiceFault(
                "Security", f"{identity} not authorized for {request.action}"
            )
        handler = self._handlers.get(request.action)
        if handler is None:
            raise ServiceFault("Client", f"unknown action {request.action!r}")
        result = handler(identity, dict(request.params))
        if hasattr(result, "send"):  # handler is a process generator
            result = yield from result
        return Envelope(
            request.action + "Response",
            {k: str(v) for k, v in (result or {}).items()},
        )


class ServiceClient:
    """Calls services on behalf of a credential (user, proxy, or service)."""

    def __init__(
        self,
        sim: Simulator,
        host,
        credential: Credential,
        trust_anchors: Iterable[Certificate],
        rng: Optional[Drbg] = None,
    ):
        self.sim = sim
        self.host = host
        self.credential = credential
        self.trust_anchors = tuple(trust_anchors)
        self.rng = rng or Drbg(f"svc-client:{credential.dn}")

    def call(self, dest_host: str, port: int, action: str, params: Dict[str, str]):
        """Process generator: one signed request/response exchange.

        Returns the reply parameter dict; raises :class:`ServiceFault` if
        the service returned a fault or the reply fails verification,
        and the :class:`~repro.rpc.errors.RpcError` of a reply that is
        not a success.
        """
        request = sign_envelope(
            Envelope(action, dict(params)), self.credential, self.sim.now,
            f"cli-{self.rng.randbytes(8).hex()}",
        )
        yield from self.host.cpu.consume(MESSAGE_SECURITY_CPU, "services")
        sock = yield from self.host.connect(dest_host, port)
        stream = StreamTransport(sock)
        # one call per connection: the xid only has to match its reply
        call = CallMessage(1, SERVICE_PROGRAM, SERVICE_VERSION, INVOKE,
                           args=request.encode())
        stream.send_record(call.encode())
        raw = yield from stream.recv_record()
        sock.close()
        if raw is None:
            raise ServiceError(f"no reply from {dest_host}:{port}")
        rpc_reply = ReplyMessage.decode(raw)
        rpc_reply.raise_for_status()
        yield from self.host.cpu.consume(MESSAGE_SECURITY_CPU, "services")
        reply = Envelope.decode(rpc_reply.results)
        verify_envelope(reply, self.trust_anchors, self.sim.now)
        if reply.action == "Fault":
            raise ServiceFault(reply.params.get("code", "?"), reply.params.get("reason", "?"))
        return reply.params
