"""SFS client/server daemons.

Built from the same interposition machinery as the SGFS proxies, with
SFS's distinguishing knobs:

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
from repro.grid.router import GridRouter
from repro.proxy.session_config import ProxyCacheConfig
from repro.proxy.client_proxy import SgfsClientProxy
from repro.proxy.server_proxy import SgfsServerProxy
from repro.proxy.upstream import UpstreamSession
from repro.rpc.costs import CostProfile
from repro.rpc.transport import DIAL_ERRORS
from repro.sfs.channel import sfs_client_channel, sfs_server_channel
from repro.sfs.paths import SelfCertifyingPath
from repro.sim.core import Simulator


class SfsClientDaemon(SgfsClientProxy):
    """The SFS client daemon: async + in-memory metadata caching."""

    def __init__(
        self,
        sim: Simulator,
        host,
        listen_port: int,
        path: SelfCertifyingPath,
        server_port: int,
        user_key: RsaKeyPair,
        rng: Drbg,
        cost: CostProfile,
    ):
        def dial():
            sock = yield from host.connect(path.location, server_port)
            channel = yield from sfs_client_channel(
                sim, sock, path, user_key, rng,
                cpu=host.cpu, account="sfsd",
            )
            return channel

        super().__init__(
            sim, host, listen_port,
            GridRouter(sim, [UpstreamSession(sim, dial)]),
            cost=cost,
            account="sfsd",
            cache=ProxyCacheConfig(
                enabled=True,
                cache_data=False,      # SFS caches metadata, not data blocks
                write_back=False,
                block_size=32768,
            ),
            disk=None,                  # memory-resident caches
            blocking=False,             # asynchronous RPCs — SFS's edge
        )


class SfsServerDaemon(SgfsServerProxy):
    """The SFS server daemon: authenticates users by registered key."""

    def __init__(
        self,
        sim: Simulator,
        host,
        listen_port: int,
        nfs_server_port: int,
        server_key: RsaKeyPair,
        authorized_users: Set[bytes],
        accounts,
        gridmap,
        fs,
        cost: CostProfile,
        session_identity,
    ):
        super().__init__(
            sim, host, listen_port, nfs_server_port,
            accounts=accounts, gridmap=gridmap, fs=fs,
            security=None,              # SFS has its own handshake: _accept
            cost=cost,
            account="sfssd",
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
