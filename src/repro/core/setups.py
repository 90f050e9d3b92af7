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

The proxied stacks are the paper's **session** (§3.2: server-side
proxy, client-side proxy, per-session security configuration, gridmap),
assembled by the code below for a list of seats (:class:`Seat`) — its
server side by :func:`serve_sessions`, each seat's client side by
:func:`client_proxy`.  The ``setup_*`` functions apply it to the
paper's one user (:func:`paper_seat`);
:func:`repro.harness.fleet.fleet_run` applies it to N, and the FSS
(:mod:`repro.services.fss`) to each session it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.calibration import Calibration
from repro.core.topology import (
    CLIENT_PROXY_PORT,
    EXPORT_OWNER,
    GRID_META_PORT,
    NFS_PORT,
    SERVER_PROXY_PORT,
    SFS_PORT,
    SSH_LOCAL_PORT,
    SSH_TUNNEL_PORT,
    Testbed,
)
from repro.crypto.drbg import Drbg
from repro.grid import (
    GridMetadataClient,
    GridMetadataProgram,
    GridMetadataService,
    GridRouter,
)
from repro.grid.layout import DEFAULT_BLOCK_SIZE
from repro.gsi import CertificateAuthority, DistinguishedName, Gridmap
from repro.gsi.gridmap import UnmappedPolicy
from repro.net import Host
from repro.nfs import protocol as pr
from repro.nfs.client import NfsClient
from repro.nfs.protocol import FileHandle
from repro.nfs.v4 import NFS_V4
from repro.proxy.accounts import Account, AccountsDb
from repro.proxy.session_config import ProxyCacheConfig
from repro.proxy.client_proxy import SgfsClientProxy
from repro.proxy.server_proxy import SgfsServerProxy
from repro.proxy.upstream import UpstreamSession, dialer
from repro.rpc.auth import AuthSys
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcServer
from repro.rpc.transport import StreamTransport
from repro.sfs import SelfCertifyingPath, SfsClientDaemon, SfsServerDaemon, sfs_dialer
from repro.sshtun import SshTunnelClient, SshTunnelServer
from repro.tls import SecurityConfig
from repro.vfs import DiskModel, VirtualFS

#: The canonical grid identities of the examples and experiments.
USER_DN = DistinguishedName.parse("/C=US/O=UFL/OU=ACIS/CN=Ming Zhao")
SERVER_DN = DistinguishedName.parse("/C=US/O=UFL/OU=ACIS/CN=fileserver.acis.ufl.edu")
CA_DN = DistinguishedName.parse("/C=US/O=GridCA/CN=Certification Authority")

FILE_ACCOUNT = EXPORT_OWNER
JOB_ACCOUNT = Account("job7", 5001, 5001)

#: setup name -> the cipher suite its sessions negotiate
SUITES = {
    "sgfs-sha": "null-sha1",
    "sgfs-rc": "rc4-128-sha1",
    "sgfs-aes": "aes-256-cbc-sha1",
    "sgfs": "aes-256-cbc-sha1",
}
#: the setups whose client side is an SGFS proxy, which can keep its
#: block cache on disk (the SFS daemon caches attributes only)
PROXY_CACHE_SETUPS = ("gfs", "gfs-ssh", *SUITES)


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


# ---------------------------------------------------------------------------
# the session's parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Seat:
    """Where a session's client side sits and whom it runs as."""

    #: the machine the job, its kernel client and its client proxy run on
    host: Host
    #: the grid identity the session authenticates as …
    dn: DistinguishedName
    #: … and the file-server account the gridmap maps it to
    account: Account
    #: backend index -> the handle this seat mounts as its root there
    roots: Dict[int, FileHandle]
    #: what tells this seat's DRBG fork labels from its neighbours'
    suffix: str = ""

    @property
    def name(self) -> str:
        return self.host.name


def paper_seat(tb: Testbed) -> Seat:
    """The paper's one user: on host ``client``, at the export root."""
    return Seat(tb.client, USER_DN, FILE_ACCOUNT,
                {0: tb.nfs_program.root_handle()})


class SessionPki:
    """One CA, the file server's host identity, and a
    :class:`SecurityConfig` per party.

    Every key and every TLS random is drawn from a stream forked off
    ``seed`` by label.  The seed and the labels are the wire: change one
    and every handshake byte — and each pinned result — changes."""

    def __init__(self, tb: Testbed, seed: str, suite: str,
                 session_tickets: bool = False, fast_ciphers: bool = True):
        self.rng = Drbg(seed)
        self._sim = tb.sim
        self.ca = CertificateAuthority(
            CA_DN, rng=self.rng.fork("ca"), key_bits=1024, now=tb.sim.now
        )
        self.host = self.ca.issue_identity(
            SERVER_DN, rng=self.rng.fork("host"), key_bits=1024, now=tb.sim.now
        )
        self._session = dict(suite_name=suite, fast_ciphers=fast_ciphers,
                             session_tickets=session_tickets)

    def client_config(self, seat: Seat, **kw) -> SecurityConfig:
        """What the seat's client proxy presents: a fresh long-term user
        credential for ``seat.dn`` (a delegating harness swaps a proxy
        certificate derived from it onto ``.credential``)."""
        user = self.ca.issue_identity(
            seat.dn, rng=self.rng.fork(f"user{seat.suffix}"), key_bits=1024,
            now=self._sim.now,
        )
        return SecurityConfig.for_session(
            user, [self.ca.certificate],
            rng=self.rng.fork(f"client-tls{seat.suffix}"), **self._session, **kw,
        )

    def server_config(self, backend: int = 0) -> SecurityConfig:
        """What backend ``backend``'s server proxy presents."""
        label = f"server-tls-s{backend}" if backend else "server-tls"
        return SecurityConfig.for_session(
            self.host, [self.ca.certificate], rng=self.rng.fork(label),
            **self._session,
        )


def session_pki(tb: Testbed, seed: str, suite: Optional[str], streams: int = 1,
                session_tickets: bool = False,
                fast_ciphers: bool = True) -> Optional[SessionPki]:
    """The PKI of sessions negotiating ``suite``; None (no suite) is a
    plain gfs session.  ``streams > 1`` forces session tickets on, so
    sub-channels 1..N-1 of a leg resume the keys channel 0 negotiated
    instead of paying N full RSA handshakes."""
    if suite is None:
        return None
    return SessionPki(tb, seed, suite, fast_ciphers=fast_ciphers,
                      session_tickets=session_tickets or streams > 1)


def admit(tb: Testbed, gridmap: Gridmap, seat: Seat) -> None:
    """Enter the seat in the session's gridmap, and its account in the
    file servers' account database if it is new there."""
    gridmap.add(seat.dn, seat.account.name)
    if seat.account.name not in tb.server_accounts:
        tb.server_accounts.add(seat.account)


def _session_gridmap(tb: Testbed, seats: List[Seat]) -> Gridmap:
    gridmap = Gridmap(unmapped=UnmappedPolicy.DENY)
    for seat in seats:
        admit(tb, gridmap, seat)
    return gridmap


def serve_proxy(host: Host, port: int, fs: VirtualFS, disk: Optional[DiskModel],
                accounts: AccountsDb, gridmap: Gridmap, cal: Calibration,
                security: Optional[SecurityConfig] = None,
                acl_cache_enabled: bool = True) -> SgfsServerProxy:
    """Start the server-side proxy on ``host:port`` in front of the
    kernel NFS server exporting ``fs`` on the same host; ACL reads pay
    ``disk`` (None: free).  Without ``security`` the channel is plain
    and every session is taken to be the management user's (gfs)."""
    proxy = SgfsServerProxy(
        host.sim, host, port, NFS_PORT, accounts=accounts, gridmap=gridmap, fs=fs,
        security=security, cost=cal.proxy_cost, account="proxy",
        session_identity=USER_DN if security is None else None,
        acl_cache_enabled=acl_cache_enabled, acl_disk=disk,
    )
    proxy.start()
    return proxy


def serve_sessions(tb: Testbed, seats: List[Seat], pki: Optional[SessionPki] = None,
                   replicas: int = 1, block_size: int = DEFAULT_BLOCK_SIZE,
                   acl_cache_enabled: bool = True) -> List[SgfsServerProxy]:
    """The server side of the ``seats``' sessions, started: one gridmap
    that admits every seat and denies everyone else, then one server
    proxy per backend (``pki`` None: plain channels, gfs), then — over
    several backends — the grid catalogue on the home server, striping
    ``block_size`` ranges over ``replicas`` backends each.  Proxy N
    joins nfsd N's name, ``server-proxy`` for N = 0."""
    gridmap = _session_gridmap(tb, seats)
    proxies = [
        serve_proxy(b.host, SERVER_PROXY_PORT, b.fs, b.disk, tb.server_accounts,
                    gridmap, tb.cal, None if pki is None else pki.server_config(b.index),
                    acl_cache_enabled)
        for b in tb.backends
    ]
    for b, proxy in zip(tb.backends, proxies):
        tb.register(f"backend{b.index}" if b.index else "server-proxy", proxy)
    if len(tb.backends) > 1:
        service = GridMetadataService(width=len(tb.backends), replicas=replicas,
                                      block_size=block_size, obs=tb.obs)
        rpc = RpcServer(tb.sim, cpu=tb.server.cpu, cost=tb.cal.kernel_server_cost,
                        account="grid-meta", name="grid-meta")
        rpc.register(GridMetadataProgram(service))
        rpc.serve_listener(tb.server.listen(GRID_META_PORT))
        tb.register("grid-meta", rpc)
    return proxies


def proxy_dial(host: Host, port: int, security: Optional[SecurityConfig] = None):
    """``host``'s dial: ``target`` -> the :func:`dialer` of the server
    proxy listening on ``target:port`` (a TLS handshake iff ``security``)."""
    return lambda target: dialer(host.sim, host, target, port, security)


def session_router(host: Host, backends: List[str], dial,
                   roots: Optional[Dict[int, FileHandle]] = None, streams: int = 1,
                   replicas: int = 1, block_size: int = DEFAULT_BLOCK_SIZE) -> GridRouter:
    """The upstream of a session whose client side runs on ``host``: a
    :class:`~repro.grid.GridRouter` over one
    :class:`~repro.proxy.upstream.UpstreamSession` leg of ``streams``
    channels per backend, each leg dialed by ``dial(backend host name)``
    (see :func:`proxy_dial`); over several backends, a client of the
    catalogue :func:`serve_sessions` started on the home one places the
    stripes in ``roots`` (backend index -> the directory there)."""
    sim = host.sim
    grid = len(backends) > 1
    # Leg 0 (home/namespace) keeps the patient hard-mount retry budget;
    # data legs fail fast so a crashed backend surfaces as an RpcError
    # the router can fail over from, instead of minutes of backoff.  A
    # lone leg keeps the name of a plain mount's.
    fail_fast = dict(retry_max=2, retry_base=0.25, retry_cap=2.0)
    legs = [
        UpstreamSession(sim, dial(name), streams=streams,
                        name=f"leg{b}" if grid else "up", **(fail_fast if b else {}))
        for b, name in enumerate(backends)
    ]
    meta = GridMetadataClient(sim, host, backends[0], GRID_META_PORT) if grid else None
    return GridRouter(sim, legs, meta, roots, replicas=replicas,
                      block_size=block_size, obs=sim.obs)


def client_proxy(host: Host, port: int, backends: List[str], dial, cal: Calibration,
                 roots: Optional[Dict[int, FileHandle]] = None, streams: int = 1,
                 replicas: int = 1, block_size: int = DEFAULT_BLOCK_SIZE,
                 disk_cache: bool = False, write_back: bool = True,
                 cache_capacity: Optional[int] = None, cryptor=None) -> SgfsClientProxy:
    """The client-side proxy on ``host:port``, not yet started, over the
    :func:`session_router` of ``backends`` (cache and cache disk included)."""
    capacity = {} if cache_capacity is None else {"capacity_bytes": cache_capacity}
    disk = DiskModel(
        host.sim, name="proxy-cache-disk", access_latency=cal.cache_disk_access,
        read_bandwidth=cal.cache_disk_read_bw, write_bandwidth=cal.cache_disk_write_bw,
    ) if disk_cache else None
    return SgfsClientProxy(
        host.sim, host, port,
        session_router(host, backends, dial, roots, streams, replicas, block_size),
        cost=cal.proxy_cost, account="proxy",
        cache=ProxyCacheConfig(enabled=disk_cache, write_back=write_back,
                               block_size=cal.block_size, **capacity),
        disk=disk, cryptor=cryptor,
    )


def _kernel_client(tb: Testbed, connect_host: str, port: int, cred: AuthSys,
                   cache_bytes: Optional[int], vers: int = pr.NFS_V3,
                   host=None, root_fh=None) -> "object":
    """Process generator: build the kernel-like NFS client on ``host``
    (default: the testbed's primary ``client``), mounted at ``root_fh``
    (default: the export root)."""
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


def mount_through_proxy(tb: Testbed, seat: Seat,
                        cache_bytes: Optional[int] = None):
    """Process generator: the seat's kernel client, mounted through the
    client-side proxy (or daemon) already started on its host.  The job
    runs under its local account; the server side maps the session."""
    cred = AuthSys(uid=JOB_ACCOUNT.uid, gid=JOB_ACCOUNT.gid, machinename=seat.name)
    return (yield from _kernel_client(
        tb, seat.name, CLIENT_PROXY_PORT, cred, cache_bytes,
        host=seat.host, root_fh=seat.roots[0],
    ))


def mount_kernel_server(tb: Testbed, seat: Seat,
                        cache_bytes: Optional[int] = None,
                        vers: int = pr.NFS_V3):
    """Process generator: the seat's kernel client, mounted straight at
    the home kernel NFS server under the seat's file account."""
    cred = AuthSys(uid=seat.account.uid, gid=seat.account.gid,
                   machinename=seat.name)
    return (yield from _kernel_client(
        tb, "server", NFS_PORT, cred, cache_bytes, vers=vers,
        host=seat.host, root_fh=seat.roots[0],
    ))


# ---------------------------------------------------------------------------
# the parts composed for the paper's seat: the setups of §6.1
# ---------------------------------------------------------------------------


def setup_nfs_v3(tb: Testbed, cache_bytes: Optional[int] = None) -> Mount:
    """Native NFSv3: the kernel client talks straight to the server."""
    client = tb.run(mount_kernel_server(tb, paper_seat(tb), cache_bytes),
                    name="mount-nfs3")
    return Mount("nfs-v3", tb, client)


def setup_nfs_v4(tb: Testbed, cache_bytes: Optional[int] = None) -> Mount:
    """Native NFSv4 (COMPOUND shim; no delegation — §6.2.2)."""
    client = tb.run(
        mount_kernel_server(tb, paper_seat(tb), cache_bytes, vers=NFS_V4),
        name="mount-nfs4",
    )
    return Mount("nfs-v4", tb, client)


def _paper_proxy(tb: Testbed, dial, **options) -> SgfsClientProxy:
    """The paper's seat's client proxy, over every backend of ``tb``."""
    seat = paper_seat(tb)
    return client_proxy(seat.host, CLIENT_PROXY_PORT, [b.name for b in tb.backends],
                        dial, tb.cal, seat.roots, **options)


def _paper_mount(tb: Testbed, label: str, proxy, server_proxy,
                 cache_bytes: Optional[int]) -> Mount:
    """Start the paper's seat's client proxy (or daemon), registered as
    ``client-proxy:client``, then mount its kernel client through it."""
    tb.register(f"client-proxy:{paper_seat(tb).name}", proxy)

    def build():
        yield from proxy.start()
        return (yield from mount_through_proxy(tb, paper_seat(tb), cache_bytes))

    client = tb.run(build(), name=f"mount-{label}")
    return Mount(label, tb, client, client_proxy=proxy, server_proxy=server_proxy)


def setup_gfs(tb: Testbed, disk_cache: bool = False,
              cache_bytes: Optional[int] = None,
              streams: int = 1,
              cache_capacity: Optional[int] = None) -> Mount:
    """The basic (insecure) grid file system [16]: user-level proxies
    with credential mapping, no channel protection."""
    seat = paper_seat(tb)
    server_proxy, = serve_sessions(tb, [seat])
    proxy = _paper_proxy(tb, proxy_dial(seat.host, SERVER_PROXY_PORT), streams=streams,
                         disk_cache=disk_cache, cache_capacity=cache_capacity)
    return _paper_mount(tb, "gfs", proxy, server_proxy, cache_bytes)


def setup_sgfs(tb: Testbed, suite: str = "aes-256-cbc-sha1",
               disk_cache: bool = False, cache_bytes: Optional[int] = None,
               fast_ciphers: bool = True,
               renegotiate_interval: Optional[float] = None,
               write_back: bool = True,
               acl_cache_enabled: bool = True, at_rest: bool = False,
               streams: int = 1, session_tickets: bool = False,
               cache_capacity: Optional[int] = None) -> Mount:
    """SGFS: the paper's contribution.  ``suite`` picks the per-session
    security configuration — "null-sha1" (sgfs-sha), "rc4-128-sha1"
    (sgfs-rc) or "aes-256-cbc-sha1" (sgfs-aes).  ``streams > 1`` opens
    that many parallel proxy-to-proxy sub-channels (see
    :func:`session_pki` for their keys)."""
    seat = paper_seat(tb)
    pki = session_pki(tb, "sgfs-session", suite, streams, session_tickets,
                      fast_ciphers=fast_ciphers)
    client_cfg = pki.client_config(seat, renegotiate_interval=renegotiate_interval)
    cryptor = None
    if at_rest:
        from repro.proxy.cryptofs import BlockCryptor

        # the at-rest key never leaves the user's session
        cryptor = BlockCryptor(Drbg("sgfs-at-rest-key").randbytes(32))

    label = next((name for name, s in SUITES.items() if s == suite),
                 f"sgfs-{suite}")
    server_proxy, = serve_sessions(tb, [seat], pki,
                                   acl_cache_enabled=acl_cache_enabled)
    proxy = _paper_proxy(tb, proxy_dial(seat.host, SERVER_PROXY_PORT, client_cfg),
                         streams=streams, disk_cache=disk_cache, write_back=write_back,
                         cache_capacity=cache_capacity, cryptor=cryptor)
    mount = _paper_mount(tb, label, proxy, server_proxy, cache_bytes)
    mount.extras["client_security"] = client_cfg
    mount.extras["server_security"] = server_proxy.security
    if cryptor is not None:
        mount.extras["cryptor"] = cryptor
    return mount


def setup_gfs_ssh(tb: Testbed, disk_cache: bool = False,
                  cache_bytes: Optional[int] = None) -> Mount:
    """gfs-ssh [45]: plain proxies, but the proxy-to-proxy leg rides an
    SSH tunnel — two extra user-level forwarders on the data path."""
    session_key = Drbg("gfs-ssh-session-key").randbytes(32)
    tunnel_server = SshTunnelServer(
        tb.sim, tb.server, SSH_TUNNEL_PORT, SERVER_PROXY_PORT, session_key,
        cost=tb.cal.ssh_cost,
    )
    tunnel_server.start()
    tunnel_client = SshTunnelClient(
        tb.sim, tb.client, SSH_LOCAL_PORT, "server", SSH_TUNNEL_PORT, session_key,
        cost=tb.cal.ssh_cost,
    )
    tunnel_client.start()

    seat = paper_seat(tb)
    server_proxy, = serve_sessions(tb, [seat])
    tb.register("ssh-server", tunnel_server)
    tb.register("ssh-client", tunnel_client)
    # The client proxy dials the local tunnel entrance.
    tunnel = dialer(tb.sim, tb.client, tb.client.name, SSH_LOCAL_PORT)
    proxy = _paper_proxy(tb, lambda _target: tunnel, disk_cache=disk_cache)
    mount = _paper_mount(tb, "gfs-ssh", proxy, server_proxy, cache_bytes)
    return mount


def setup_sfs(tb: Testbed, cache_bytes: Optional[int] = None) -> Mount:
    """SFS [34]: self-certifying pathname, async daemons, metadata caching."""
    rng = Drbg("sfs-session")
    from repro.crypto.rsa import generate_keypair

    server_key = generate_keypair(1024, rng.fork("server"))
    user_key = generate_keypair(1024, rng.fork("user"))
    path = SelfCertifyingPath.for_server("server", server_key.public)

    server_daemon = SfsServerDaemon(
        tb.server, SFS_PORT, NFS_PORT, accounts=tb.server_accounts,
        gridmap=_session_gridmap(tb, [paper_seat(tb)]), fs=tb.fs,
        cost=tb.cal.sfs_cost, session_identity=USER_DN, server_key=server_key,
        authorized_users={user_key.public.to_bytes()},
    )
    server_daemon.start()
    tb.register("server-proxy", server_daemon)

    dial = sfs_dialer(tb.client, path, SFS_PORT, user_key, rng.fork("client"))
    client_daemon = SfsClientDaemon(
        tb.client, CLIENT_PROXY_PORT,
        session_router(tb.client, [path.location], lambda _target: dial),
        tb.cal.sfs_cost,
    )
    mount = _paper_mount(tb, "sfs", client_daemon, server_daemon, cache_bytes)
    mount.extras["path"] = path
    return mount


#: name -> builder, for table-driven harnesses.
SETUP_BUILDERS: Dict[str, Callable[..., Mount]] = {
    "nfs-v3": setup_nfs_v3,
    "nfs-v4": setup_nfs_v4,
    "gfs": setup_gfs,
    **{name: (lambda tb, _suite=suite, **kw: setup_sgfs(tb, suite=_suite, **kw))
       for name, suite in SUITES.items()},
    "gfs-ssh": setup_gfs_ssh,
    "sfs": setup_sfs,
}
