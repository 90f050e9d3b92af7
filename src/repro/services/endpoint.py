"""Service endpoints and clients over the simulated network.

Messages are canonical-XML envelopes carried as single records (RM
framing) over a TCP connection per request.  Message-level security
costs real (virtual) CPU — XML canonicalization plus an RSA sign/verify
per message — which is why the architecture keeps services off the data
path (§3.2): "the use of more expensive security mechanisms does not
hurt an established SGFS session's I/O performance".
"""

from __future__ import annotations

import inspect
import itertools
from typing import Callable, Dict, Iterable, Optional

from repro.crypto.drbg import Drbg
from repro.gsi.certs import Certificate, Credential
from repro.gsi.names import DistinguishedName
from repro.rpc.transport import TRANSPORT_ERRORS, StreamTransport
from repro.services.soap import (
    SoapEnvelope,
    SoapFault,
    fault_envelope,
    sign_envelope,
    verify_envelope,
)
from repro.sim.core import Simulator

#: CPU seconds per message for XML processing + RSA sign or verify —
#: deliberately much heavier than transport-level security per message.
MESSAGE_SECURITY_CPU = 0.012

_nonce_counter = itertools.count(1)


class ServiceError(Exception):
    """Local service failure (bad handler, connection trouble)."""


#: handler(identity, params) -> dict of reply params; may be a plain
#: function or a process generator.
Handler = Callable[[DistinguishedName, Dict[str, str]], object]


class ServiceEndpoint:
    """A WSRF-like service bound to (host, port)."""

    def __init__(
        self,
        sim: Simulator,
        host,
        port: int,
        credential: Credential,
        trust_anchors: Iterable[Certificate],
        name: str = "service",
        authorizer: Optional[Callable[[DistinguishedName, str], bool]] = None,
    ):
        self.sim = sim
        self.host = host
        self.port = port
        self.credential = credential
        self.trust_anchors = tuple(trust_anchors)
        self.name = name
        self.authorizer = authorizer
        # Restriction-aware authorizers take (identity, action, envelope)
        # — the envelope carries the presented certificate, which is how
        # a service refuses privileged actions to *limited* proxies.
        # Two-argument authorizers keep working unchanged.
        self._authorizer_wants_envelope = (
            authorizer is not None
            and len(inspect.signature(authorizer).parameters) >= 3
        )
        self._handlers: Dict[str, Handler] = {}
        self._seen_nonces: set = set()
        self._listener = None
        self.requests_served = 0
        self.faults_returned = 0

    def register(self, action: str, handler: Handler) -> None:
        if action in self._handlers:
            raise ServiceError(f"duplicate action {action!r}")
        self._handlers[action] = handler

    def start(self) -> None:
        self._listener = self.host.listen(self.port)
        self.sim.spawn(
            self._listener.serve(lambda sock: self.sim.spawn(
                self._serve_connection(sock), name=f"{self.name}-req")),
            name=f"{self.name}:{self.port}",
        )

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # -- request processing ----------------------------------------------------

    def _serve_connection(self, sock):
        stream = StreamTransport(sock)
        try:
            request = yield from stream.recv_record()
            if request is None:
                return
            stream.send_record((yield from self._process(request)))
        except TRANSPORT_ERRORS:
            pass  # the caller went away; it asks again if it still cares
        sock.close()

    def _process(self, raw: bytes):
        yield from self.host.cpu.consume(MESSAGE_SECURITY_CPU, "services")
        try:
            envelope = SoapEnvelope.from_xml(raw)
            identity = verify_envelope(
                envelope, self.trust_anchors, self.sim.now, self._seen_nonces
            )
        except SoapFault as fault:
            self.faults_returned += 1
            return self._signed_reply(fault_envelope(fault.code, fault.reason))
        if self.authorizer is not None and not (
            self.authorizer(identity, envelope.action, envelope)
            if self._authorizer_wants_envelope
            else self.authorizer(identity, envelope.action)
        ):
            self.faults_returned += 1
            return self._signed_reply(
                fault_envelope("Security", f"{identity} not authorized for {envelope.action}")
            )
        handler = self._handlers.get(envelope.action)
        if handler is None:
            self.faults_returned += 1
            return self._signed_reply(
                fault_envelope("Client", f"unknown action {envelope.action!r}")
            )
        try:
            result = handler(identity, dict(envelope.body))
            if hasattr(result, "send"):  # handler is a process generator
                result = yield from result
        except SoapFault as fault:
            self.faults_returned += 1
            return self._signed_reply(fault_envelope(fault.code, fault.reason))
        except Exception as exc:
            # one of the two catch-alls in the tree: whatever a handler
            # raises, its caller is answered with a SOAP fault
            self.faults_returned += 1
            return self._signed_reply(fault_envelope("Server", str(exc)))
        self.requests_served += 1
        reply = SoapEnvelope(
            action=envelope.action + "Response",
            body={k: str(v) for k, v in (result or {}).items()},
        )
        return self._signed_reply(reply)

    def _signed_reply(self, envelope: SoapEnvelope) -> bytes:
        sign_envelope(
            envelope, self.credential, self.sim.now, f"srv-nonce-{next(_nonce_counter)}"
        )
        return envelope.to_xml()


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

        Returns the reply parameter dict; raises :class:`SoapFault` if
        the service returned a fault, or on a bad reply signature.
        """
        envelope = SoapEnvelope(action=action, body=dict(params))
        sign_envelope(
            envelope, self.credential, self.sim.now,
            f"cli-{self.rng.randbytes(8).hex()}",
        )
        yield from self.host.cpu.consume(MESSAGE_SECURITY_CPU, "services")
        sock = yield from self.host.connect(dest_host, port)
        stream = StreamTransport(sock)
        stream.send_record(envelope.to_xml())
        raw = yield from stream.recv_record()
        sock.close()
        if raw is None:
            raise ServiceError(f"no reply from {dest_host}:{port}")
        yield from self.host.cpu.consume(MESSAGE_SECURITY_CPU, "services")
        reply = SoapEnvelope.from_xml(raw)
        verify_envelope(reply, self.trust_anchors, self.sim.now)
        if reply.action == "Fault":
            raise SoapFault(reply.body.get("code", "?"), reply.body.get("reason", "?"))
        return reply.body

