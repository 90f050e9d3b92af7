"""The eight file-system setups of the evaluation (§6.1).

Each ``setup_*`` function assembles one DFS stack on a built
:class:`~repro.core.topology.Testbed` and returns a :class:`Mount`
whose ``client`` is a kernel-like :class:`~repro.nfs.client.NfsClient`
— the mountpoint the (unmodified) workloads drive.  Stack shapes:

====== ==============================================================
nfs-v3  kernel client ── kernel server
nfs-v4  kernel client ── kernel server (COMPOUND shim, no delegation)
gfs     kernel client ─ client proxy ─(plain)─ server proxy ─ kernel server
sgfs    same, with the SSL-like channel between the proxies (suite
        selectable per session: sgfs-sha / sgfs-rc / sgfs-aes)
gfs-ssh gfs, with the proxy-to-proxy leg through an SSH tunnel
        (double user-level forwarding)
sfs     kernel client ─ SFS client daemon ─(RC4ish)─ SFS server
        daemon ─ kernel server, self-certifying pathname
====== ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.calibration import Calibration
from repro.core.topology import (
    CLIENT_PROXY_PORT,
    NFS_PORT,
    SERVER_PROXY_PORT,
    SFS_PORT,
    SSH_LOCAL_PORT,
    SSH_TUNNEL_PORT,
    Testbed,
)
from repro.crypto.drbg import Drbg
from repro.gsi import CertificateAuthority, DistinguishedName, Gridmap
from repro.gsi.gridmap import UnmappedPolicy
from repro.nfs import protocol as pr
from repro.nfs.client import NfsClient
from repro.nfs.v4 import NFS_V4
from repro.proxy.accounts import Account
from repro.proxy.block_cache import ProxyCacheConfig
from repro.proxy.client_proxy import SgfsClientProxy
from repro.proxy.server_proxy import SgfsServerProxy
from repro.rpc.auth import AuthSys
from repro.rpc.client import RpcClient
from repro.rpc.transport import StreamTransport
from repro.sfs import SelfCertifyingPath, SfsClientDaemon, SfsServerDaemon
from repro.sshtun import SshTunnelClient, SshTunnelServer
from repro.tls import SecurityConfig
from repro.tls.channel import client_handshake
from repro.vfs import DiskModel

#: The canonical grid identities of the examples and experiments.
USER_DN = DistinguishedName.parse("/C=US/O=UFL/OU=ACIS/CN=Ming Zhao")
SERVER_DN = DistinguishedName.parse("/C=US/O=UFL/OU=ACIS/CN=fileserver.acis.ufl.edu")
CA_DN = DistinguishedName.parse("/C=US/O=GridCA/CN=Certification Authority")

FILE_ACCOUNT = Account("ming", 901, 901)
JOB_ACCOUNT = Account("job7", 5001, 5001)


@dataclass
class Mount:
    """A mounted file system plus the machinery behind it."""

    label: str
    tb: Testbed
    client: NfsClient
    client_proxy: Optional[SgfsClientProxy] = None
    server_proxy: Optional[SgfsServerProxy] = None
    extras: Dict[str, object] = field(default_factory=dict)

    def finish(self):
        """Process generator: drain async I/O and write back dirty data.

        Returns (writeback_seconds, blocks, bytes) — the paper reports
        the end-of-run write-back time separately (Figs. 9–10 captions).
        """
        yield from self.client.drain()
        t0 = self.tb.sim.now
        blocks = nbytes = 0
        if self.client_proxy is not None:
            blocks, nbytes = yield from self.client_proxy.writeback()
        return self.tb.sim.now - t0, blocks, nbytes


def _kernel_client(tb: Testbed, connect_host: str, port: int, cred: AuthSys,
                   cache_bytes: Optional[int], vers: int = pr.NFS_V3,
                   host=None, root_fh=None) -> "object":
    """Process generator: build the kernel-like NFS client.

    ``host`` is the simulated machine the client runs on (defaults to
    the testbed's primary ``client``; fleets pass their own per-client
    hosts).  ``root_fh`` overrides the mount root (defaults to the
    export root; fleets mount per-client subdirectories)."""
    cal = tb.cal
    if host is None:
        host = tb.client
    if root_fh is None:
        root_fh = tb.nfs_program.root_handle()

    def connect_rpc():
        sock = yield from host.connect(connect_host, port)
        return RpcClient(
            tb.sim, StreamTransport(sock), pr.NFS_PROGRAM, vers,
            cpu=host.cpu, cost=cal.kernel_client_cost, account="kernel-nfs",
        )

    rpc = yield from connect_rpc()
    client = NfsClient(
        tb.sim, rpc, root_fh, cred,
        block_size=cal.block_size,
        cache_bytes=cache_bytes if cache_bytes is not None else cal.client_cache_bytes,
        read_ahead_blocks=cal.read_ahead_blocks,
        max_async_io=cal.max_async_io,
        ac_reg_min=cal.ac_reg_min,
        ac_reg_max=cal.ac_reg_max,
        reconnect=connect_rpc,  # hard-mount: survive connection loss
    )
    return client


# ---------------------------------------------------------------------------
# native kernel NFS
# ---------------------------------------------------------------------------


def setup_nfs_v3(tb: Testbed, cache_bytes: Optional[int] = None) -> Mount:
    """Native NFSv3: the kernel client talks straight to the server."""
    cred = AuthSys(uid=FILE_ACCOUNT.uid, gid=FILE_ACCOUNT.gid, machinename="client")

    def build():
        client = yield from _kernel_client(tb, "server", NFS_PORT, cred, cache_bytes)
        return client

    client = tb.run(build(), name="mount-nfs3")
    return Mount("nfs-v3", tb, client)


def setup_nfs_v4(tb: Testbed, cache_bytes: Optional[int] = None) -> Mount:
    """Native NFSv4 (COMPOUND shim; no delegation — §6.2.2)."""
    cred = AuthSys(uid=FILE_ACCOUNT.uid, gid=FILE_ACCOUNT.gid, machinename="client")

    def build():
        client = yield from _kernel_client(
            tb, "server", NFS_PORT, cred, cache_bytes, vers=NFS_V4
        )
        return client

    client = tb.run(build(), name="mount-nfs4")
    return Mount("nfs-v4", tb, client)


# ---------------------------------------------------------------------------
# proxy plumbing shared by gfs / sgfs / gfs-ssh
# ---------------------------------------------------------------------------


def _make_session_pki(tb: Testbed, suite: str, fast_ciphers: bool = True,
                      renegotiate_interval: Optional[float] = None,
                      session_tickets: bool = False):
    """CA + user & server credentials + the two SecurityConfigs."""
    rng = Drbg("sgfs-session")
    ca = CertificateAuthority(CA_DN, rng=rng.fork("ca"), key_bits=1024, now=tb.sim.now)
    user = ca.issue_identity(USER_DN, rng=rng.fork("user"), key_bits=1024, now=tb.sim.now)
    host = ca.issue_identity(SERVER_DN, rng=rng.fork("host"), key_bits=1024, now=tb.sim.now)
    client_cfg = SecurityConfig.for_session(
        user, [ca.certificate], suite, fast_ciphers=fast_ciphers,
        rng=rng.fork("client-tls"), renegotiate_interval=renegotiate_interval,
        session_tickets=session_tickets,
    )
    server_cfg = SecurityConfig.for_session(
        host, [ca.certificate], suite, fast_ciphers=fast_ciphers,
        rng=rng.fork("server-tls"), session_tickets=session_tickets,
    )
    return ca, user, host, client_cfg, server_cfg


def _session_gridmap() -> Gridmap:
    gm = Gridmap(unmapped=UnmappedPolicy.DENY)
    gm.add(USER_DN, FILE_ACCOUNT.name)
    return gm


def _ensure_accounts(tb: Testbed) -> None:
    if FILE_ACCOUNT.name not in tb.server_accounts:
        tb.server_accounts.add(FILE_ACCOUNT)
    if JOB_ACCOUNT.name not in tb.client_accounts:
        tb.client_accounts.add(JOB_ACCOUNT)


def _cache_config(tb: Testbed, disk_cache: bool, write_back: bool = True,
                  cache_capacity: Optional[int] = None) -> ProxyCacheConfig:
    kw = {}
    if cache_capacity is not None:
        kw["capacity_bytes"] = cache_capacity
    return ProxyCacheConfig(
        enabled=disk_cache,
        cache_data=True,
        cache_attrs=True,
        cache_access=True,
        write_back=write_back,
        block_size=tb.cal.block_size,
        **kw,
    )


def _cache_disk(tb: Testbed, disk_cache: bool) -> Optional[DiskModel]:
    if not disk_cache:
        return None
    cal = tb.cal
    return DiskModel(
        tb.sim, name="proxy-cache-disk",
        access_latency=cal.cache_disk_access,
        read_bandwidth=cal.cache_disk_read_bw,
        write_bandwidth=cal.cache_disk_write_bw,
    )


def _proxied_mount(tb: Testbed, label: str, upstream_factory,
                   server_security, disk_cache: bool,
                   cache_bytes: Optional[int], enable_acls: bool = True,
                   blocking: bool = True, write_back: bool = True,
                   acl_cache_enabled: bool = True, cryptor=None,
                   streams: int = 1,
                   cache_capacity: Optional[int] = None) -> Mount:
    """Build server proxy + client proxy + kernel client."""
    _ensure_accounts(tb)
    server_proxy = SgfsServerProxy(
        tb.sim, tb.server, SERVER_PROXY_PORT, NFS_PORT,
        accounts=tb.server_accounts, gridmap=_session_gridmap(), fs=tb.fs,
        security=server_security, cost=tb.cal.proxy_cost, account="proxy",
        blocking=blocking, enable_acls=enable_acls,
        session_identity=USER_DN if server_security is None else None,
        acl_cache_enabled=acl_cache_enabled, acl_disk=tb.server_disk,
    )
    server_proxy.start()

    client_proxy = SgfsClientProxy(
        tb.sim, tb.client, CLIENT_PROXY_PORT,
        upstream_factory=upstream_factory,
        cost=tb.cal.proxy_cost, account="proxy",
        cache=_cache_config(tb, disk_cache, write_back=write_back,
                            cache_capacity=cache_capacity),
        disk=_cache_disk(tb, disk_cache),
        blocking=blocking,
        cryptor=cryptor,
        streams=streams,
    )

    cred = AuthSys(uid=JOB_ACCOUNT.uid, gid=JOB_ACCOUNT.gid, machinename="client")

    def build():
        yield from client_proxy.start()
        client = yield from _kernel_client(
            tb, tb.client.name, CLIENT_PROXY_PORT, cred, cache_bytes
        )
        return client

    client = tb.run(build(), name=f"mount-{label}")
    return Mount(label, tb, client, client_proxy=client_proxy,
                 server_proxy=server_proxy)


def setup_gfs(tb: Testbed, disk_cache: bool = False,
              cache_bytes: Optional[int] = None,
              streams: int = 1,
              cache_capacity: Optional[int] = None) -> Mount:
    """The basic (insecure) grid file system [16]: user-level proxies
    with credential mapping, no channel protection."""

    def upstream_factory():
        sock = yield from tb.client.connect("server", SERVER_PROXY_PORT)
        return StreamTransport(sock)

    return _proxied_mount(tb, "gfs", upstream_factory, server_security=None,
                          disk_cache=disk_cache, cache_bytes=cache_bytes,
                          streams=streams, cache_capacity=cache_capacity)


def setup_sgfs(tb: Testbed, suite: str = "aes-256-cbc-sha1",
               disk_cache: bool = False, cache_bytes: Optional[int] = None,
               fast_ciphers: bool = True,
               renegotiate_interval: Optional[float] = None,
               blocking: bool = True, write_back: bool = True,
               acl_cache_enabled: bool = True, at_rest: bool = False,
               streams: int = 1, session_tickets: bool = False,
               cache_capacity: Optional[int] = None) -> Mount:
    """SGFS: the paper's contribution.  ``suite`` picks the per-session
    security configuration — "null-sha1" (sgfs-sha), "rc4-128-sha1"
    (sgfs-rc) or "aes-256-cbc-sha1" (sgfs-aes).

    ``streams > 1`` opens that many parallel proxy-to-proxy
    sub-channels; session tickets are forced on so channels 1..N-1
    resume the keys channel 0 negotiated instead of paying N full RSA
    handshakes."""
    _ca, _user, _host, client_cfg, server_cfg = _make_session_pki(
        tb, suite, fast_ciphers=fast_ciphers,
        renegotiate_interval=renegotiate_interval,
        session_tickets=session_tickets or streams > 1,
    )
    cryptor = None
    if at_rest:
        from repro.proxy.cryptofs import BlockCryptor

        # the at-rest key never leaves the user's session
        cryptor = BlockCryptor(Drbg("sgfs-at-rest-key").randbytes(32))

    def upstream_factory():
        sock = yield from tb.client.connect("server", SERVER_PROXY_PORT)
        channel = yield from client_handshake(
            tb.sim, sock, client_cfg, cpu=tb.client.cpu, account="proxy"
        )
        return channel

    label = {
        "null-sha1": "sgfs-sha",
        "rc4-128-sha1": "sgfs-rc",
        "aes-256-cbc-sha1": "sgfs-aes",
    }.get(suite, f"sgfs-{suite}")
    mount = _proxied_mount(tb, label, upstream_factory,
                           server_security=server_cfg,
                           disk_cache=disk_cache, cache_bytes=cache_bytes,
                           blocking=blocking, write_back=write_back,
                           acl_cache_enabled=acl_cache_enabled,
                           cryptor=cryptor, streams=streams,
                           cache_capacity=cache_capacity)
    mount.extras["client_security"] = client_cfg
    mount.extras["server_security"] = server_cfg
    if cryptor is not None:
        mount.extras["cryptor"] = cryptor
    return mount


def setup_gfs_ssh(tb: Testbed, disk_cache: bool = False,
                  cache_bytes: Optional[int] = None,
                  fast_ciphers: bool = True) -> Mount:
    """gfs-ssh [45]: plain proxies, but the proxy-to-proxy leg rides an
    SSH tunnel — two extra user-level forwarders on the data path."""
    session_key = Drbg("gfs-ssh-session-key").randbytes(32)
    tunnel_server = SshTunnelServer(
        tb.sim, tb.server, SSH_TUNNEL_PORT, SERVER_PROXY_PORT, session_key,
        cost=tb.cal.ssh_cost, fast_ciphers=fast_ciphers,
    )
    tunnel_server.start()
    tunnel_client = SshTunnelClient(
        tb.sim, tb.client, SSH_LOCAL_PORT, "server", SSH_TUNNEL_PORT, session_key,
        cost=tb.cal.ssh_cost, fast_ciphers=fast_ciphers,
    )
    tunnel_client.start()

    def upstream_factory():
        # The client proxy connects to the local tunnel entrance.
        sock = yield from tb.client.connect(tb.client.name, SSH_LOCAL_PORT)
        return StreamTransport(sock)

    mount = _proxied_mount(tb, "gfs-ssh", upstream_factory, server_security=None,
                           disk_cache=disk_cache, cache_bytes=cache_bytes)
    mount.extras["tunnel_client"] = tunnel_client
    mount.extras["tunnel_server"] = tunnel_server
    return mount


def setup_sfs(tb: Testbed, cache_bytes: Optional[int] = None,
              fast_ciphers: bool = True) -> Mount:
    """SFS [34]: self-certifying pathname, async daemons, metadata caching."""
    _ensure_accounts(tb)
    rng = Drbg("sfs-session")
    from repro.crypto.rsa import generate_keypair

    server_key = generate_keypair(1024, rng.fork("server"))
    user_key = generate_keypair(1024, rng.fork("user"))
    path = SelfCertifyingPath.for_server("server", server_key.public)

    server_daemon = SfsServerDaemon(
        tb.sim, tb.server, SFS_PORT, NFS_PORT,
        server_key=server_key,
        authorized_users={user_key.public.to_bytes()},
        accounts=tb.server_accounts, gridmap=_session_gridmap(), fs=tb.fs,
        cost=tb.cal.sfs_cost, session_identity=USER_DN,
        fast_ciphers=fast_ciphers,
    )
    server_daemon.start()

    client_daemon = SfsClientDaemon(
        tb.sim, tb.client, CLIENT_PROXY_PORT, path, SFS_PORT,
        user_key=user_key, rng=rng.fork("client"), cost=tb.cal.sfs_cost,
        fast_ciphers=fast_ciphers,
    )

    cred = AuthSys(uid=JOB_ACCOUNT.uid, gid=JOB_ACCOUNT.gid, machinename="client")

    def build():
        yield from client_daemon.start()
        client = yield from _kernel_client(
            tb, tb.client.name, CLIENT_PROXY_PORT, cred, cache_bytes
        )
        return client

    client = tb.run(build(), name="mount-sfs")
    mount = Mount("sfs", tb, client, client_proxy=client_daemon,
                  server_proxy=server_daemon)
    mount.extras["path"] = path
    return mount


#: name -> builder, for table-driven harnesses.
SETUP_BUILDERS: Dict[str, Callable[..., Mount]] = {
    "nfs-v3": setup_nfs_v3,
    "nfs-v4": setup_nfs_v4,
    "gfs": setup_gfs,
    "sgfs-sha": lambda tb, **kw: setup_sgfs(tb, suite="null-sha1", **kw),
    "sgfs-rc": lambda tb, **kw: setup_sgfs(tb, suite="rc4-128-sha1", **kw),
    "sgfs-aes": lambda tb, **kw: setup_sgfs(tb, suite="aes-256-cbc-sha1", **kw),
    "sgfs": lambda tb, **kw: setup_sgfs(tb, suite="aes-256-cbc-sha1", **kw),
    "gfs-ssh": setup_gfs_ssh,
    "sfs": setup_sfs,
}
