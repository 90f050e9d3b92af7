"""File System Service — runs on every client and server (paper §3.2).

The FSS is the hands of the management plane: it configures and starts
the local SGFS proxies on request from the DSS (or directly from a
user).  A server-side FSS starts server proxies with a supplied gridmap
and cipher suite; a client-side FSS starts client proxies, receiving the
user's *delegated credential* as an encrypted blob and handing it to the
proxy's TLS layer — the proxies then "use this certificate to establish
a secure file system session" (§3.2).
"""

from __future__ import annotations

import base64
import itertools
from typing import Dict, Iterable, Optional

from repro.core.calibration import DEFAULT_CALIBRATION
from repro.core.setups import client_proxy, proxy_dial, serve_proxy
from repro.crypto.drbg import Drbg
from repro.crypto.hybrid import open_sealed
from repro.crypto.rsa import CryptoError
from repro.gsi.certs import (
    CertError, Certificate, Credential, ValidationError, validate_chain,
)
from repro.gsi.gridmap import Gridmap
from repro.gsi.proxy import is_limited_proxy
from repro.proxy.accounts import AccountsDb
from repro.proxy.acl import AclStore, parse_acl_text
from repro.proxy.client_proxy import SgfsClientProxy
from repro.proxy.server_proxy import SgfsServerProxy
from repro.services.endpoint import ServiceEndpoint
from repro.services.envelope import ServiceFault
from repro.sim.core import Simulator
from repro.tls import SecurityConfig
from repro.vfs.fs import VirtualFS
from repro.xdr import XdrError


class FileSystemService(ServiceEndpoint):
    """One host's FSS.

    Construct with either server-side wiring (``fs``, the export the
    host's kernel NFS server serves, ``accounts``, ``host_credential``)
    or client-side wiring (or both; a host can play both roles).  The
    sessions it starts are the ones :mod:`repro.core.setups` assembles,
    under :data:`~repro.core.calibration.DEFAULT_CALIBRATION`.

    Authorization is two-layered: envelope signature verification
    establishes the *base* identity (proxy chains collapse to the
    long-term DN), then the authorizer applies action policy — ACL
    management needs an admin DN, and a **limited** proxy (the
    restricted credentials the portal issues for data sessions) is
    refused ACL management outright, whoever it delegates for.

    Determinism and units: every decision is pure data over the signed
    envelope; the only virtual time charged is the per-message
    :data:`~repro.services.endpoint.MESSAGE_SECURITY_CPU` (seconds) and
    whatever the started proxies consume.  Same-seed runs produce
    bit-identical session ports, decisions, and schedules: session
    ports come from this FSS's own sequence, skipping any port another
    listener on the host holds.
    """

    def __init__(
        self,
        sim: Simulator,
        host,
        port: int,
        credential: Credential,
        trust_anchors: Iterable[Certificate],
        # server-side wiring
        fs: Optional[VirtualFS] = None,
        accounts: Optional[AccountsDb] = None,
        host_credential: Optional[Credential] = None,
        # shared
        authorized_admins: Optional[set] = None,
        max_delegation_lifetime: Optional[float] = None,
    ):
        def authorize(identity, action: str, envelope) -> bool:
            # Session-management actions are open to any authenticated
            # grid user (per-session authz happens in the DSS / gridmap);
            # ACL-management actions require an admin DN and are never
            # allowed to a *limited* proxy, even an admin's.
            if action in ("SetAcl", "RemoveAcl"):
                cert = envelope.certificate
                if cert is not None and is_limited_proxy(cert.subject):
                    return False
                if authorized_admins is not None:
                    return str(identity) in authorized_admins
            return True

        super().__init__(
            sim, host, port, credential, trust_anchors,
            name=f"fss:{host.name}", authorizer=authorize,
        )
        self.fs = fs
        self.accounts = accounts
        self.host_credential = host_credential
        #: refuse delegated credentials valid longer than this many
        #: virtual seconds (None = no ceiling) — long-lived delegation
        #: defeats the point of short-lived SSO proxies
        self.max_delegation_lifetime = max_delegation_lifetime
        self.server_sessions: Dict[str, SgfsServerProxy] = {}
        self.client_sessions: Dict[str, SgfsClientProxy] = {}
        self._session_ids = itertools.count(100)

        self.register("CreateServerSession", self._create_server_session)
        self.register("CreateClientSession", self._create_client_session)
        self.register("DestroySession", self._destroy_session)
        self.register("ReconfigureSession", self._reconfigure_session)
        self.register("SetAcl", self._set_acl)
        self.register("RemoveAcl", self._remove_acl)

    # -- server side -----------------------------------------------------------

    def _create_server_session(self, identity, params):
        if self.fs is None or self.accounts is None or self.host_credential is None:
            raise ServiceFault("Server", "this FSS has no server-side wiring")
        suite = params.get("suite", "aes-256-cbc-sha1")
        gridmap = Gridmap.parse(params.get("gridmap", ""))
        port = int(params.get("port", 0)) or self._session_port(24000)
        security = SecurityConfig.for_session(
            self.host_credential, self.trust_anchors, suite,
            rng=Drbg(f"{self.name}:{self.port}/server-session-{port}"),
        )
        proxy = serve_proxy(self.host, port, self.fs, None, self.accounts, gridmap,
                            DEFAULT_CALIBRATION, security)
        session_id = f"srv-{port}"
        self.server_sessions[session_id] = proxy
        return {"session_id": session_id, "port": str(port), "host": self.host.name}

    # -- client side ------------------------------------------------------------

    def _create_client_session(self, identity, params):
        """Start a client proxy with a delegated credential.

        The sealed blob is unwrapped with this FSS's private key, its
        chain validated to a trust anchor **at the current virtual
        time** (an expired delegation fails here, forcing the caller to
        re-delegate), and its remaining lifetime checked against
        :attr:`max_delegation_lifetime`.
        """
        blob_b64 = params.get("credential")
        if not blob_b64:
            raise ServiceFault("Client", "missing delegated credential")
        try:
            blob = open_sealed(base64.b64decode(blob_b64), self.credential.keypair)
            user_cred = Credential.from_bytes(blob)
        except (ValueError, CryptoError, XdrError, CertError) as exc:
            raise ServiceFault("Security", f"cannot unwrap credential: {exc}") from None
        # Possession of a delegated credential is the authority (GSI
        # semantics): validate its chain up to a trusted CA.  The caller
        # may be the user directly, or the DSS acting on the user's
        # behalf (§3.2).
        try:
            validate_chain(
                user_cred.certificate, user_cred.chain, self.trust_anchors, self.sim.now
            )
        except ValidationError as exc:
            raise ServiceFault("Security", f"delegated credential invalid: {exc}") from None
        if self.max_delegation_lifetime is not None:
            remaining = user_cred.certificate.not_after - self.sim.now
            if remaining > self.max_delegation_lifetime:
                raise ServiceFault(
                    "Security",
                    f"delegated credential lives {remaining:g}s, "
                    f"limit is {self.max_delegation_lifetime:g}s",
                )
        suite = params.get("suite", "aes-256-cbc-sha1")
        server_host = params["server_host"]
        server_port = int(params["server_port"])
        port = int(params.get("port", 0)) or self._session_port(25000)
        client_cfg = SecurityConfig.for_session(
            user_cred, self.trust_anchors, suite,
            rng=Drbg(f"{self.name}:{self.port}/client-session-{port}"),
        )
        proxy = client_proxy(self.host, port, [server_host],
                             proxy_dial(self.host, server_port, client_cfg),
                             DEFAULT_CALIBRATION,
                             disk_cache=params.get("disk_cache", "off") == "on")

        def handler_body():
            yield from proxy.start()
            session_id = f"cli-{port}"
            self.client_sessions[session_id] = proxy
            return {"session_id": session_id, "port": str(port), "host": self.host.name}

        return handler_body()

    def _session_port(self, base: int) -> int:
        """The next port of this FSS's sequence that is free on its host
        (two FSSs may share one)."""
        port = base + next(self._session_ids)
        while port in self.host._ports:
            port = base + next(self._session_ids)
        return port

    # -- lifecycle ----------------------------------------------------------------

    def stop(self) -> None:
        """Stop every session this FSS started, then the service itself."""
        for proxy in [*self.client_sessions.values(), *self.server_sessions.values()]:
            proxy.stop()
        super().stop()

    def _destroy_session(self, identity, params):
        session_id = params.get("session_id", "")
        proxy = self.server_sessions.pop(session_id, None)
        if proxy is not None:
            # the session's authority ends: stop accepting and close
            # every session the proxy accepted
            proxy.stop()
            return {"destroyed": session_id}
        cproxy = self.client_sessions.pop(session_id, None)
        if cproxy is not None:

            def drain():
                yield from cproxy.writeback()
                cproxy.stop()  # the mount's connections and the legs too
                return {"destroyed": session_id}

            return drain()
        raise ServiceFault("Client", f"unknown session {session_id!r}")

    def _reconfigure_session(self, identity, params):
        """Dynamic reconfiguration (§4.2): reload gridmap / rekey."""
        session_id = params.get("session_id", "")
        proxy = self.server_sessions.get(session_id)
        if proxy is None:
            raise ServiceFault("Client", f"unknown session {session_id!r}")
        if "gridmap" in params:
            proxy.reload(gridmap=Gridmap.parse(params["gridmap"]))
        return {"reconfigured": session_id}

    # -- fine-grained ACL management (§4.4) -------------------------------------------

    def _set_acl(self, identity, params):
        store, dir_id, name = self._acl_target(params)
        store.set_acl(dir_id, name, parse_acl_text(params.get("acl", "")))
        self._invalidate_sessions()
        return {"acl_set": params.get("path", "")}

    def _remove_acl(self, identity, params):
        store, dir_id, name = self._acl_target(params)
        store.remove_acl(dir_id, name)
        self._invalidate_sessions()
        return {"acl_removed": params.get("path", "")}

    def _acl_target(self, params):
        """(a store over the export, directory fileid, name) of ``path``."""
        if self.fs is None:
            raise ServiceFault("Server", "no server-side wiring")
        parent, _, name = params.get("path", "").rpartition("/")
        return AclStore(self.fs), self.fs.resolve(parent or "/").fileid, name

    def _invalidate_sessions(self) -> None:
        # Every live server proxy over this export caches ACLs: each one
        # drops its cache and bumps its epoch, so a revoked DN stops
        # authorising in every session at once.
        for proxy in self.server_sessions.values():
            proxy.acls.invalidate()
