"""Data Scheduler Service (paper §3.2, §4.4).

The DSS coordinates SGFS sessions across the grid:

- it authenticates requesting users (their envelopes are signed with
  GSI proxy certificates, which resolve to the base identity),
- it authorizes them against its **per-filesystem ACL database**, from
  which it *generates the gridmap files* the server-side proxies
  enforce,
- it acts on the user's behalf toward the client- and server-side FSSs
  using the user's **delegated credential** (signed requests + the
  encrypted credential blob forwarded to the client FSS so the data
  channel can authenticate as the user),
- it hands back a :class:`SessionHandle` naming the loopback port the
  job's kernel NFS client mounts.
"""

from __future__ import annotations

import base64
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.crypto.drbg import Drbg
from repro.crypto.hybrid import seal
from repro.gsi.certs import Certificate, Credential
from repro.gsi.gridmap import Gridmap
from repro.gsi.names import DistinguishedName
from repro.gsi.proxy import is_limited_proxy
from repro.services.endpoint import ServiceClient, ServiceEndpoint
from repro.services.envelope import ServiceFault
from repro.sim.core import Simulator


@dataclass(frozen=True)
class SessionHandle:
    """What a user needs to mount an established session."""

    session_id: str
    #: the registered filesystem whose FSS holds the server session
    filesystem: str
    client_host: str
    client_port: int
    server_session_id: str
    client_session_id: str
    suite: str


@dataclass
class _FilesystemRecord:
    """One exported filesystem registered with the DSS."""

    name: str
    server_host: str
    fss_port: int
    #: DN string -> local account (the DSS ACL database, §4.4)
    acl: Dict[str, str] = field(default_factory=dict)


class DataSchedulerService(ServiceEndpoint):
    """The grid's session scheduler.

    Access-sharing actions (``GrantAccess``/``RevokeAccess``) mutate
    the per-filesystem ACL database and are refused to **limited**
    proxies: a restricted session credential may open sessions but
    never widen anyone's rights.  Session actions remain open to any
    authenticated (possibly limited-proxy) identity.

    Determinism and units: decisions are pure data over the signed
    envelope; virtual time is the per-message
    :data:`~repro.services.endpoint.MESSAGE_SECURITY_CPU` (seconds)
    plus the downstream FSS calls made while orchestrating a session.
    """

    def __init__(
        self,
        sim: Simulator,
        host,
        port: int,
        credential: Credential,
        trust_anchors: Iterable[Certificate],
        client_fss: Dict[str, Tuple[str, int, Certificate]],
    ):
        """``client_fss`` maps a compute host name to its FSS
        (host, port, service certificate) — the certificate is needed to
        seal delegated credentials to that FSS."""

        def authorize(identity, action: str, envelope) -> bool:
            # Limited proxies may create/destroy their own sessions but
            # must not mutate the ACL database (GSI limited-proxy
            # semantics: no privilege management).
            if action in ("GrantAccess", "RevokeAccess"):
                cert = envelope.certificate
                if cert is not None and is_limited_proxy(cert.subject):
                    return False
            return True

        super().__init__(
            sim, host, port, credential, trust_anchors,
            name="dss", authorizer=authorize,
        )
        self.filesystems: Dict[str, _FilesystemRecord] = {}
        self.client_fss = dict(client_fss)
        self.sessions: Dict[str, SessionHandle] = {}
        self._session_ids = itertools.count(1)
        self._svc_client = ServiceClient(sim, host, credential, trust_anchors)
        self.register("CreateSession", self._create_session)
        self.register("DestroySession", self._destroy_session)
        self.register("GrantAccess", self._grant_access)
        self.register("RevokeAccess", self._revoke_access)

    # -- administration (local API; tests use it for setup) ---------------------

    def register_filesystem(
        self, name: str, server_host: str, fss_port: int,
        acl: Optional[Dict[str, str]] = None,
    ) -> None:
        self.filesystems[name] = _FilesystemRecord(
            name=name, server_host=server_host, fss_port=fss_port, acl=dict(acl or {})
        )

    def gridmap_for(self, fs_name: str) -> Gridmap:
        """Generate the gridmap the server proxy will enforce (§4.4)."""
        record = self.filesystems[fs_name]
        gm = Gridmap()
        for dn_text, account in record.acl.items():
            gm.add(DistinguishedName.parse(dn_text), account)
        return gm

    # -- actions -----------------------------------------------------------------

    def _grant_access(self, identity, params):
        """Add ``dn`` → ``account`` to a filesystem's ACL database.

        Bumps the generated gridmap on the next session start; running
        proxies pick the change up through ``ReconfigureSession``.
        """
        fs = self._fs(params)
        # Only already-authorized users may share further (simplified
        # owner model: any mapped user can grant).
        if str(identity) not in fs.acl:
            raise ServiceFault("Security", f"{identity} has no rights on {fs.name}")
        fs.acl[params["dn"]] = params["account"]
        return {"granted": params["dn"]}

    def _revoke_access(self, identity, params):
        """Remove ``dn`` from a filesystem's ACL database (idempotent)."""
        fs = self._fs(params)
        if str(identity) not in fs.acl:
            raise ServiceFault("Security", f"{identity} has no rights on {fs.name}")
        fs.acl.pop(params.get("dn", ""), None)
        return {"revoked": params.get("dn", "")}

    def _fs(self, params) -> _FilesystemRecord:
        name = params.get("filesystem", "")
        record = self.filesystems.get(name)
        if record is None:
            raise ServiceFault("Client", f"unknown filesystem {name!r}")
        return record

    def _create_session(self, identity, params):
        """Orchestrate a session: server proxy, then client proxy.

        Two sequential FSS calls (each a full signed exchange —
        the dominant virtual-time cost of session establishment besides
        the data channel's TLS handshake).
        """
        record = self._fs(params)
        account = record.acl.get(str(identity))
        if account is None:
            raise ServiceFault(
                "Security", f"{identity} is not authorized on {record.name}"
            )
        client_host = params.get("client_host", "")
        if client_host not in self.client_fss:
            raise ServiceFault("Client", f"no FSS registered for host {client_host!r}")
        suite = params.get("suite", "aes-256-cbc-sha1")
        disk_cache = params.get("disk_cache", "off")
        credential_blob = params.get("credential", "")
        if not credential_blob:
            raise ServiceFault("Client", "missing delegated credential")

        def orchestrate():
            # 1. server side: start the proxy with the generated gridmap.
            server_reply = yield from self._svc_client.call(
                record.server_host, record.fss_port, "CreateServerSession",
                {
                    "suite": suite,
                    "gridmap": self.gridmap_for(record.name).dump(),
                },
            )
            # 2. client side: hand over the delegated credential
            #    (re-sealed by the *user* to the client FSS's key — the
            #    DSS never sees the private key in the clear).
            fss_host, fss_port, _fss_cert = self.client_fss[client_host]
            client_reply = yield from self._svc_client.call(
                fss_host, fss_port, "CreateClientSession",
                {
                    "credential": credential_blob,
                    "suite": suite,
                    "server_host": server_reply["host"],
                    "server_port": server_reply["port"],
                    "disk_cache": disk_cache,
                },
            )
            session_id = f"sgfs-session-{next(self._session_ids)}"
            handle = SessionHandle(
                session_id=session_id,
                filesystem=record.name,
                client_host=client_reply["host"],
                client_port=int(client_reply["port"]),
                server_session_id=server_reply["session_id"],
                client_session_id=client_reply["session_id"],
                suite=suite,
            )
            self.sessions[session_id] = handle
            return {
                "session_id": session_id,
                "client_host": handle.client_host,
                "client_port": str(handle.client_port),
            }

        return orchestrate()

    def _destroy_session(self, identity, params):
        session_id = params.get("session_id", "")
        handle = self.sessions.pop(session_id, None)
        if handle is None:
            raise ServiceFault("Client", f"unknown session {session_id!r}")

        def orchestrate():
            fss_host, fss_port, _cert = self.client_fss[handle.client_host]
            yield from self._svc_client.call(
                fss_host, fss_port, "DestroySession",
                {"session_id": handle.client_session_id},
            )
            record = self.filesystems[handle.filesystem]
            yield from self._svc_client.call(
                record.server_host, record.fss_port, "DestroySession",
                {"session_id": handle.server_session_id},
            )
            return {"destroyed": session_id}

        return orchestrate()


def seal_credential_for(
    credential: Credential, recipient_cert: Certificate, rng: Drbg
) -> str:
    """Seal a delegated credential to a service's certificate (base64)."""
    return base64.b64encode(
        seal(credential.to_bytes(), recipient_cert.public_key, rng)
    ).decode("ascii")
