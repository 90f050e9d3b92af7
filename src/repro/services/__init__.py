"""Secure management services (paper §3.2, §4.4).

The service plane of SGFS: the original ran WSRF-style web services
(WSRF::Lite) whose messages carry WS-Security signatures over
X.509/GSI certificates.  Here every message is a signed XDR envelope
carried as one ONC RPC call — the protection is the signature, not the
encoding.  Message-level security is expensive but off the data path —
these services run only when sessions are created, reconfigured, or
destroyed.

- :mod:`repro.services.envelope` — the signed envelope: action and
  parameters, the sender's certificate chain as the security token,
  timestamp, nonce and signature,
- :mod:`repro.services.endpoint` — services as an RPC program: verify,
  authorize, dispatch, reply signed; and the calling client,
- :mod:`repro.services.fss` — the File System Service on every client
  and server, controlling the local proxies,
- :mod:`repro.services.dss` — the Data Scheduler Service: session
  scheduling, the per-filesystem ACL database, gridmap generation, and
  delegation handling (a user hands the DSS a proxy credential; the DSS
  acts on the user's behalf toward both FSSs),
- :mod:`repro.services.portal` — the credential portal: single-sign-on
  issuance of short-lived (optionally *limited*) proxy credentials from
  enrolled long-term identities (see docs/CONTROL_PLANE.md).
"""

from repro.services.envelope import Envelope, ServiceFault, sign_envelope, verify_envelope
from repro.services.endpoint import ServiceEndpoint, ServiceClient, ServiceError
from repro.services.fss import FileSystemService
from repro.services.dss import DataSchedulerService, SessionHandle
from repro.services.portal import CredentialPortal, MAX_PORTAL_LIFETIME

__all__ = [
    "Envelope",
    "ServiceFault",
    "sign_envelope",
    "verify_envelope",
    "ServiceEndpoint",
    "ServiceClient",
    "ServiceError",
    "FileSystemService",
    "DataSchedulerService",
    "SessionHandle",
    "CredentialPortal",
    "MAX_PORTAL_LIFETIME",
]
