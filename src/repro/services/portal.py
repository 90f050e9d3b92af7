"""Credential portal: single-sign-on delegation for session churn.

The GridCertLib shape (PAPERS.md): users authenticate **once** to a
portal holding (or fetching) their long-term grid credential; every
subsequent session presents a *short-lived delegated proxy certificate*
the portal issues on demand, so long-term keys never travel and an
expired session costs one cheap re-delegation instead of a new
enrollment.

:class:`CredentialPortal` is a :class:`~repro.services.endpoint.ServiceEndpoint`
with one action:

``IssueProxy``
    The caller's signed envelope proves the identity (like every
    management call).  The portal looks up the enrolled long-term
    credential for that identity, issues a proxy certificate with the
    requested (capped) lifetime, optionally **limited** (restricted:
    no ACL/grant management, no further delegation), seals the fresh
    credential to a registered recipient service's public key, and
    returns the blob base64-encoded — exactly the wire form
    FSS ``CreateClientSession`` unwraps.

Determinism and units: all randomness comes from the portal's DRBG
(forked per issuance in enrollment order), lifetimes and timestamps are
virtual seconds, and issuance charges
:data:`~repro.gsi.proxy.DELEGATION_CPU_SECONDS` of portal CPU plus the
usual per-message security cost — same-seed runs issue bit-identical
credentials at bit-identical times.
"""

from __future__ import annotations

import base64
from typing import Dict, Iterable, Optional

from repro.crypto.drbg import Drbg
from repro.crypto.hybrid import seal
from repro.gsi.certs import Certificate, Credential
from repro.gsi.proxy import (
    DEFAULT_PROXY_LIFETIME,
    DELEGATION_CPU_SECONDS,
    issue_proxy_certificate,
)
from repro.services.endpoint import ServiceEndpoint
from repro.services.envelope import ServiceFault
from repro.sim.core import Simulator

#: Hard ceiling on the lifetime a portal will delegate, regardless of
#: what the request asks for: restricted *short-lived* certs are the
#: SSO contract (virtual seconds; 12 h mirrors the globus default).
MAX_PORTAL_LIFETIME = DEFAULT_PROXY_LIFETIME


class CredentialPortal(ServiceEndpoint):
    """Issues short-lived (optionally restricted) proxy credentials.

    ``enroll`` and ``register_recipient`` are local administration
    APIs, standing in for the out-of-band SSO enrollment (Shibboleth in
    GridCertLib) and service-certificate directory.
    """

    def __init__(
        self,
        sim: Simulator,
        host,
        port: int,
        credential: Credential,
        trust_anchors: Iterable[Certificate],
        default_lifetime: float = 3600.0,
        max_lifetime: float = MAX_PORTAL_LIFETIME,
        key_bits: int = 1024,
        rng: Optional[Drbg] = None,
    ):
        super().__init__(
            sim, host, port, credential, trust_anchors, name="portal"
        )
        self.default_lifetime = default_lifetime
        self.max_lifetime = max_lifetime
        self.key_bits = key_bits
        self.rng = rng or Drbg("credential-portal")
        #: DN string -> enrolled long-term credential
        self._users: Dict[str, Credential] = {}
        #: recipient name -> service certificate to seal blobs to
        self._recipients: Dict[str, Certificate] = {}
        #: DN string -> issuance count (first = login, rest = renewals)
        self._issued: Dict[str, int] = {}
        self.proxies_issued = 0
        self.renewals = 0
        self.denials = 0
        self.register("IssueProxy", self._issue_proxy)
        sim.obs.add_fields("portal", self.__getattribute__)

    @property
    def enrolled_users(self) -> int:
        return len(self._users)

    # -- administration (local API) ----------------------------------------

    def enroll(self, credential: Credential) -> None:
        """Store a user's long-term credential for later delegation."""
        self._users[str(credential.dn)] = credential

    def register_recipient(self, name: str, certificate: Certificate) -> None:
        """Register a service certificate blobs may be sealed to."""
        self._recipients[name] = certificate

    # -- actions -------------------------------------------------------------

    def _issue_proxy(self, identity, params):
        dn_text = str(identity)
        user = self._users.get(dn_text)
        if user is None:
            self.denials += 1
            raise ServiceFault("Security", f"{identity} is not enrolled")
        recipient_name = params.get("recipient", "")
        recipient = self._recipients.get(recipient_name)
        if recipient is None:
            self.denials += 1
            raise ServiceFault(
                "Client", f"unknown recipient service {recipient_name!r}"
            )
        lifetime = float(params.get("lifetime", self.default_lifetime))
        if lifetime <= 0:
            self.denials += 1
            raise ServiceFault("Client", f"bad lifetime {lifetime!r}")
        lifetime = min(lifetime, self.max_lifetime)
        limited = params.get("limited", "no") == "yes"
        n = self._issued.get(dn_text, 0)
        self._issued[dn_text] = n + 1

        def issue():
            # The RSA keygen + user-key signature are the measurable
            # cost of a login/renewal (cf. the full TLS handshake).
            yield from self.host.cpu.consume(DELEGATION_CPU_SECONDS, "services")
            proxy = issue_proxy_certificate(
                user, now=self.sim.now, lifetime=lifetime,
                rng=self.rng.fork(f"issue:{dn_text}:{n}"),
                key_bits=self.key_bits, limited=limited,
            )
            self.proxies_issued += 1
            if n:
                self.renewals += 1
            blob = base64.b64encode(
                seal(proxy.to_bytes(), recipient.public_key,
                     self.rng.fork(f"seal:{dn_text}:{n}"))
            ).decode("ascii")
            return {
                "credential": blob,
                "not_after": repr(proxy.certificate.not_after),
                "limited": "yes" if limited else "no",
            }

        return issue()
