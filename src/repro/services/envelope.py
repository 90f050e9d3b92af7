"""Signed service messages: one XDR envelope per management call.

An envelope carries an action, simple string parameters, and the
WS-Security-style protection of the paper's services:

- a timestamp and a nonce (replay protection),
- a *token*: the sender's certificate and its chain, in the canonical
  certificate encoding,
- a signature, made with the sender's RSA key over the XDR encoding of
  everything before it: action, parameters (sorted by key), timestamp,
  nonce and token.  Covering the token too means no byte of a request
  can change and still verify, not even a chain certificate that
  validation never reads.

XDR is canonical by construction — parameters travel sorted with unique
keys, and :meth:`Envelope.decode` refuses any other order — so the bytes
a receiver verifies are re-encoded from what it parsed, with no
canonicaliser between.  ``verify_envelope`` checks the signature,
validates the certificate chain against trust anchors, enforces
timestamp freshness, and returns the authenticated (base) grid identity
— proxy certificates resolve to the delegating user, which is how the
DSS acts "as" a user toward the FSSs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.crypto.rsa import CryptoError
from repro.gsi.certs import CertError, Certificate, Credential, ValidationError, validate_chain
from repro.gsi.names import DistinguishedName
from repro.gsi.proxy import effective_identity
from repro.xdr import Packer, Unpacker, XdrError

#: Maximum allowed clock skew / message age in virtual seconds.
MAX_MESSAGE_AGE = 300.0

#: the longest chain a token may carry (proxy of a proxy of a user)
MAX_CHAIN = 8


class ServiceFault(Exception):
    """A fault reply or a security failure while processing a message."""

    def __init__(self, code: str, reason: str):
        super().__init__(f"{code}: {reason}")
        self.code = code
        self.reason = reason

    def envelope(self) -> "Envelope":
        """The (unsigned) fault reply that answers the caller."""
        return Envelope("Fault", {"code": self.code, "reason": self.reason})


@dataclass
class Envelope:
    """One management message, as built or as decoded."""

    action: str
    params: Dict[str, str] = field(default_factory=dict)
    timestamp: float = 0.0
    nonce: str = ""
    signature: bytes = b""
    certificate: Optional[Certificate] = None
    chain: Tuple[Certificate, ...] = ()

    def signed_bytes(self) -> bytes:
        """What the signature covers: every field but the signature."""
        p = Packer()
        p.pack_string(self.action)
        p.pack_uint(len(self.params))
        for key in sorted(self.params):
            p.pack_string(key)
            p.pack_string(self.params[key])
        p.pack_double(self.timestamp)
        p.pack_string(self.nonce)
        p.pack_optional(self.certificate, lambda c: p.pack_opaque(c.to_bytes()))
        p.pack_array([c.to_bytes() for c in self.chain], p.pack_opaque)
        return p.get_bytes()

    def encode(self) -> bytes:
        p = Packer()
        p.pack_encoded(self.signed_bytes())
        p.pack_opaque(self.signature)
        return p.get_bytes()

    @classmethod
    def decode(cls, data: bytes) -> "Envelope":
        """Parse an encoded envelope; raises :class:`XdrError` on
        anything that is not one, a malformed certificate included."""
        u = Unpacker(data)
        action = u.unpack_string()
        params: Dict[str, str] = {}
        key = None
        for _ in range(u.unpack_uint()):
            prev, key = key, u.unpack_string()
            if prev is not None and key <= prev:
                raise XdrError(f"parameter {key!r} out of order")
            params[key] = u.unpack_string()
        timestamp = u.unpack_double()
        nonce = u.unpack_string()
        try:
            certificate = u.unpack_optional(
                lambda: Certificate.from_bytes(u.unpack_opaque())
            )
            chain = tuple(
                Certificate.from_bytes(b)
                for b in u.unpack_array(u.unpack_opaque, max_len=MAX_CHAIN)
            )
        except (CertError, CryptoError, ValueError) as exc:
            raise XdrError(f"bad certificate: {exc}") from None
        signature = u.unpack_opaque()
        u.assert_done()
        return cls(action, params, timestamp, nonce, signature, certificate, chain)


def sign_envelope(
    envelope: Envelope, credential: Credential, now: float, nonce: str
) -> Envelope:
    """Attach timestamp, nonce, token and signature."""
    envelope.timestamp = now
    envelope.nonce = nonce
    envelope.certificate = credential.certificate
    envelope.chain = tuple(credential.chain)
    envelope.signature = credential.keypair.sign(envelope.signed_bytes())
    return envelope


def verify_envelope(
    envelope: Envelope,
    trust_anchors: Iterable[Certificate],
    now: float,
    seen_nonces: Optional[set] = None,
) -> DistinguishedName:
    """Authenticate a received envelope; returns the base grid identity.

    Raises :class:`ServiceFault` on any violation: missing token, bad
    signature, invalid chain, stale timestamp, replayed nonce.
    """
    if envelope.certificate is None:
        raise ServiceFault("Security", "no security token")
    if not envelope.signature:
        raise ServiceFault("Security", "unsigned message")
    if not envelope.certificate.public_key.verify(
        envelope.signed_bytes(), envelope.signature
    ):
        raise ServiceFault("Security", "signature verification failed")
    try:
        identity = validate_chain(
            envelope.certificate, envelope.chain, trust_anchors, now
        )
    except ValidationError as exc:
        raise ServiceFault("Security", f"certificate rejected: {exc}") from None
    if not abs(now - envelope.timestamp) <= MAX_MESSAGE_AGE:  # NaN is stale too
        raise ServiceFault("Security", "message timestamp outside freshness window")
    if seen_nonces is not None:
        if envelope.nonce in seen_nonces:
            raise ServiceFault("Security", "replayed nonce")
        seen_nonces.add(envelope.nonce)
    # Delegation: a proxy certificate authenticates as the base identity.
    if envelope.certificate.is_proxy:
        return effective_identity(envelope.certificate.subject)
    return identity
