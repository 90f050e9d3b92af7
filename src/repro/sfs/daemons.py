"""SFS client/server daemons.

Subclasses of the SGFS proxies (the client daemon's upstream is a
:func:`repro.core.setups.session_router`), with SFS's distinguishing
knobs — and the handshake, :func:`sfs_dialer` and ``_accept``:

- the client daemon caches attributes and access permissions **in
  memory** aggressively (no data caching, no write-back),
- forwarding is **asynchronous** — multiple outstanding RPCs pipeline
  through the daemon, which is why SFS tops the blocking SGFS prototype
  under IOzone,
- per-message processing cost is substantially higher than the SGFS
  proxies' (the paper measures >30 % CPU for the SFS daemons vs ≤8 %
  for SGFS); the constants live in :mod:`repro.core.calibration`.
"""

from __future__ import annotations

from typing import Set

from repro.crypto.drbg import Drbg
from repro.crypto.rsa import RsaKeyPair
from repro.proxy.session_config import ProxyCacheConfig
from repro.proxy.client_proxy import SgfsClientProxy
from repro.proxy.server_proxy import SgfsServerProxy
from repro.rpc.costs import CostProfile
from repro.rpc.transport import DIAL_ERRORS
from repro.sfs.channel import sfs_client_channel, sfs_server_channel
from repro.sfs.paths import SelfCertifyingPath


def sfs_dialer(host, path: SelfCertifyingPath, port: int, user_key: RsaKeyPair,
               rng: Drbg):
    """The client daemon's dial: a process generator that connects
    ``host`` to the server ``path`` names and returns the channel its
    SFS handshake yields (the server is authenticated by the HostID in
    ``path``, the user by ``user_key``)."""

    def dial():
        sock = yield from host.connect(path.location, port)
        return (yield from sfs_client_channel(
            host.sim, sock, path, user_key, rng, cpu=host.cpu, account="sfsd"))

    return dial


class SfsClientDaemon(SgfsClientProxy):
    """The SFS client daemon: async + in-memory metadata caching, over
    an ``upstream`` router whose leg dials with :func:`sfs_dialer`."""

    def __init__(self, host, listen_port: int, upstream, cost: CostProfile):
        super().__init__(
            host.sim, host, listen_port, upstream, cost=cost, account="sfsd",
            # SFS caches metadata, not data blocks, in memory
            cache=ProxyCacheConfig(enabled=True, cache_data=False, write_back=False),
            blocking=False,             # asynchronous RPCs — SFS's edge
        )


class SfsServerDaemon(SgfsServerProxy):
    """The SFS server daemon: authenticates users by registered key."""

    def __init__(self, host, listen_port: int, nfs_server_port: int, accounts,
                 gridmap, fs, cost: CostProfile, session_identity,
                 server_key: RsaKeyPair, authorized_users: Set[bytes]):
        super().__init__(
            host.sim, host, listen_port, nfs_server_port, accounts=accounts,
            gridmap=gridmap, fs=fs, cost=cost, account="sfssd",
            security=None,              # SFS has its own handshake: _accept
            blocking=False,             # async on the server side too
            enable_acls=False,          # SFS uses its own group ACLs, not grid ACLs
            session_identity=session_identity,
        )
        self.server_key = server_key
        self.authorized_users = authorized_users

    def _accept(self, sock):
        """SFS handshake instead of TLS: a registered user key admits
        the peer as ``session_identity``.  Everything after accepting is
        the server proxy's."""
        try:
            transport = yield from sfs_server_channel(
                self.sim, sock, self.server_key, self.authorized_users,
                cpu=self.host.cpu, account=self.account,
            )
        except DIAL_ERRORS:
            return None
        return transport, self.session_identity
