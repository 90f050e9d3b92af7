"""Certificates, certificate authorities, and chain validation.

The trust model is GSI's: a certificate binds a DN to an RSA public key
under a CA's signature; validation walks the chain from an end-entity
certificate to a trusted anchor, checking signatures, validity windows,
and CA/proxy constraints along the way.  Times are in seconds on
whatever clock the caller uses (the simulation's virtual clock in
experiments), so certificate expiry and reload can be exercised inside
a run — the paper's §4.2 dynamic-reconfiguration scenario.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, List, Optional, Sequence

from repro.crypto.drbg import Drbg
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.gsi.names import DistinguishedName
from repro.xdr import Packer, Unpacker


class CertError(Exception):
    """Malformed certificate data."""


class ValidationError(CertError):
    """A certificate chain failed validation."""


_serial_counter = itertools.count(1000)


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a subject DN to a public key."""

    subject: DistinguishedName
    issuer: DistinguishedName
    public_key: RsaPublicKey
    serial: int
    not_before: float
    not_after: float
    is_ca: bool = False
    is_proxy: bool = False
    signature: bytes = b""

    # -- canonical encoding -------------------------------------------------
    # Built once per certificate object: every handshake that presents
    # the same chain reuses them.  A certificate parsed off the wire is a
    # new object, so what a receiver verifies is re-encoded from the
    # fields it parsed.

    def tbs_bytes(self) -> bytes:
        """The to-be-signed canonical encoding."""
        return self._tbs

    def to_bytes(self) -> bytes:
        return self._encoded

    @cached_property
    def _tbs(self) -> bytes:
        p = Packer()
        p.pack_string(str(self.subject))
        p.pack_string(str(self.issuer))
        p.pack_opaque(self.public_key.to_bytes())
        p.pack_uhyper(self.serial)
        p.pack_double(self.not_before)
        p.pack_double(self.not_after)
        p.pack_bool(self.is_ca)
        p.pack_bool(self.is_proxy)
        return p.get_bytes()

    @cached_property
    def _encoded(self) -> bytes:
        p = Packer()
        p.pack_opaque(self._tbs)
        p.pack_opaque(self.signature)
        return p.get_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        u = Unpacker(data)
        tbs = u.unpack_opaque()
        signature = u.unpack_opaque()
        u.assert_done()
        t = Unpacker(tbs)
        subject = DistinguishedName.parse(t.unpack_string())
        issuer = DistinguishedName.parse(t.unpack_string())
        public_key = RsaPublicKey.from_bytes(t.unpack_opaque())
        serial = t.unpack_uhyper()
        not_before = t.unpack_double()
        not_after = t.unpack_double()
        is_ca = t.unpack_bool()
        is_proxy = t.unpack_bool()
        t.assert_done()
        return cls(
            subject, issuer, public_key, serial, not_before, not_after,
            is_ca, is_proxy, signature,
        )

    # -- checks --------------------------------------------------------------

    def verify_signature(self, signer_key: RsaPublicKey) -> bool:
        return signer_key.verify(self.tbs_bytes(), self.signature)

    def valid_at(self, now: float) -> bool:
        return self.not_before <= now <= self.not_after

    @property
    def self_signed(self) -> bool:
        return self.subject == self.issuer

    def __str__(self) -> str:  # pragma: no cover
        kind = "CA" if self.is_ca else ("proxy" if self.is_proxy else "EE")
        return f"Cert[{kind}] {self.subject} (by {self.issuer}, #{self.serial})"


class CertificateAuthority:
    """A CA: a keypair plus a self-signed CA certificate.

    ``ca.issue(...)`` signs end-entity (user/host) certificates.  Grid
    deployments trust a set of CA certificates; chain validation is
    :func:`validate_chain`.
    """

    DEFAULT_LIFETIME = 10 * 365 * 24 * 3600.0

    def __init__(
        self,
        dn: DistinguishedName,
        rng: Optional[Drbg] = None,
        key_bits: int = 1024,
        now: float = 0.0,
        lifetime: float = DEFAULT_LIFETIME,
    ):
        self.rng = rng or Drbg(f"ca:{dn}")
        self.keypair: RsaKeyPair = generate_keypair(key_bits, self.rng)
        cert = Certificate(
            subject=dn,
            issuer=dn,
            public_key=self.keypair.public,
            serial=next(_serial_counter),
            not_before=now,
            not_after=now + lifetime,
            is_ca=True,
        )
        self.certificate = replace(
            cert, signature=self.keypair.sign(cert.tbs_bytes())
        )

    @property
    def dn(self) -> DistinguishedName:
        return self.certificate.subject

    def issue(
        self,
        subject: DistinguishedName,
        public_key: RsaPublicKey,
        now: float = 0.0,
        lifetime: float = 365 * 24 * 3600.0,
        is_ca: bool = False,
    ) -> Certificate:
        """Sign a certificate for ``subject`` holding ``public_key``."""
        cert = Certificate(
            subject=subject,
            issuer=self.dn,
            public_key=public_key,
            serial=next(_serial_counter),
            not_before=now,
            not_after=now + lifetime,
            is_ca=is_ca,
        )
        return replace(cert, signature=self.keypair.sign(cert.tbs_bytes()))

    def issue_identity(
        self, subject: DistinguishedName, rng: Optional[Drbg] = None,
        key_bits: int = 1024, now: float = 0.0,
        lifetime: float = 365 * 24 * 3600.0,
    ) -> "Credential":
        """Generate a keypair and certify it — a complete grid identity."""
        rng = rng or self.rng.fork(f"id:{subject}")
        keypair = generate_keypair(key_bits, rng)
        cert = self.issue(subject, keypair.public, now=now, lifetime=lifetime)
        return Credential(cert, keypair, chain=(self.certificate,))


@dataclass(frozen=True)
class Credential:
    """A certificate plus its private key plus the issuing chain."""

    certificate: Certificate
    keypair: RsaKeyPair
    chain: tuple = ()

    @property
    def dn(self) -> DistinguishedName:
        return self.certificate.subject

    def to_bytes(self) -> bytes:
        """Serialize including the private key — for *encrypted* delegation
        transfer only (see repro.crypto.hybrid)."""
        p = Packer()
        p.pack_opaque(self.certificate.to_bytes())
        for v in (self.keypair.public.n, self.keypair.public.e,
                  self.keypair.d, self.keypair.p, self.keypair.q):
            vb = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
            p.pack_opaque(vb)
        p.pack_array([c.to_bytes() for c in self.chain], p.pack_opaque)
        return p.get_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Credential":
        u = Unpacker(data)
        cert = Certificate.from_bytes(u.unpack_opaque())
        n, e, d, pp, q = (int.from_bytes(u.unpack_opaque(), "big") for _ in range(5))
        chain = tuple(
            Certificate.from_bytes(b) for b in u.unpack_array(u.unpack_opaque, max_len=8)
        )
        u.assert_done()
        from repro.crypto.rsa import RsaPublicKey

        return cls(cert, RsaKeyPair(RsaPublicKey(n, e), d, pp, q), chain)


def validate_chain(
    cert: Certificate,
    intermediates: Sequence[Certificate],
    trust_anchors: Iterable[Certificate],
    now: float,
) -> DistinguishedName:
    """Validate ``cert`` up to a trust anchor; return the *base* identity.

    Walks issuer links through ``intermediates`` (proxy certificates and
    intermediate CAs) until a trusted anchor signs the top.  Rules, per
    GSI:

    - every certificate must be inside its validity window,
    - a non-proxy certificate must be signed by a CA certificate,
    - a proxy certificate must be signed by its issuer's key where the
      issuer is the *subject* of the next certificate in the chain (the
      user signs their own proxy), and its subject must extend the
      issuer's DN,
    - the returned identity is the first non-proxy subject found — proxy
      certificates delegate, they do not create new identities.

    Raises :class:`ValidationError` on any violation.
    """
    by_subject = {str(c.subject): c for c in intermediates}
    anchors = {str(a.subject): a for a in trust_anchors}

    identity: Optional[DistinguishedName] = None
    current = cert
    seen: List[int] = []
    for _ in range(16):  # depth guard
        if not current.valid_at(now):
            raise ValidationError(f"certificate expired/not yet valid: {current.subject}")
        if current.serial in seen:
            raise ValidationError("certificate loop")
        seen.append(current.serial)

        if not current.is_proxy and identity is None:
            identity = current.subject

        issuer_str = str(current.issuer)
        anchor = anchors.get(issuer_str)
        if anchor is not None and not current.is_proxy:
            if not anchor.is_ca:
                raise ValidationError(f"trust anchor {anchor.subject} is not a CA")
            if not anchor.valid_at(now):
                raise ValidationError(f"trust anchor expired: {anchor.subject}")
            if not current.verify_signature(anchor.public_key):
                raise ValidationError(f"bad CA signature on {current.subject}")
            assert identity is not None
            return identity

        parent = by_subject.get(issuer_str)
        if parent is None:
            raise ValidationError(
                f"no issuer {issuer_str} in chain and not a trust anchor"
            )
        if current.is_proxy:
            if not current.issuer.is_prefix_of(current.subject):
                raise ValidationError(
                    "proxy subject must extend the issuer DN "
                    f"({current.subject} !< {current.issuer})"
                )
            if not current.verify_signature(parent.public_key):
                raise ValidationError(f"bad delegation signature on {current.subject}")
        else:
            if not parent.is_ca:
                raise ValidationError(
                    f"{parent.subject} signed {current.subject} but is not a CA"
                )
            if not current.verify_signature(parent.public_key):
                raise ValidationError(f"bad signature on {current.subject}")
        current = parent
    raise ValidationError("chain too deep")
