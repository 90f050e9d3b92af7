"""Scale-out harness: N concurrent clients against one server.

The paper evaluates SGFS with one client per session, but the system's
point is *grid-wide* sharing — many users mounting one server through
per-user secured sessions.  :func:`run_fleet` builds that scenario on a
single deterministic simulation:

- one server (kernel NFS + one shared server-side proxy for the proxied
  setups) — the same :class:`~repro.core.topology.Testbed` server every
  single-client run builds;
- N client *hosts* (``c0`` … ``cN-1``), each with its own kernel-like
  NFS client, client proxy, TLS session, proxy cache, and DRBG stream
  — per-client certificates are issued by one CA and mapped through the
  shared gridmap to per-client accounts, so the server proxy enforces
  gridmap/ACL policy per session;
- per-client workload instances over per-client subdirectories
  (``/c0`` … ) of the shared export, with a synchronized or staggered
  start schedule.

Determinism: client processes are spawned in index order, every queue in
the stack is FIFO, and all randomness flows from ``session_seed``
through forked DRBG streams — two same-seed runs are bit-identical,
including under ``faults=`` (packet-level fault schedules are seeded by
``fault_seed`` exactly as in :func:`repro.harness.runner.run_workload`).

All times are **virtual seconds**; all sizes are **bytes**.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.setups import (
    CA_DN,
    FILE_ACCOUNT,
    JOB_ACCOUNT,
    SERVER_DN,
    USER_DN,
    Mount,
    _cache_config,
    _cache_disk,
    _kernel_client,
)
from repro.core.topology import (
    CLIENT_PROXY_PORT,
    GRID_META_PORT,
    NFS_PORT,
    SERVER_PROXY_PORT,
    Testbed,
)
from repro.crypto.drbg import Drbg
from repro.faults import FaultPlan, resolve_fault_preset
from repro.grid import (
    GridMetadataClient,
    GridMetadataProgram,
    GridMetadataService,
    GridRouter,
)
from repro.grid.layout import DEFAULT_BLOCK_SIZE
from repro.gsi import (
    CertificateAuthority,
    DELEGATION_CPU_SECONDS,
    DistinguishedName,
    Gridmap,
    issue_proxy_certificate,
)
from repro.gsi.gridmap import UnmappedPolicy
from repro.nfs import protocol as pr
from repro.nfs.protocol import FileHandle
from repro.nfs.v4 import NFS_V4
from repro.proxy.accounts import Account
from repro.proxy.client_proxy import SgfsClientProxy
from repro.proxy.server_proxy import SgfsServerProxy
from repro.proxy.upstream import UpstreamSession
from repro.rpc.auth import AuthSys
from repro.rpc.server import RpcServer
from repro.rpc.transport import StreamTransport
from repro.sim import Interrupt
from repro.sim.sync import Channel
from repro.tls import SecurityConfig
from repro.tls.channel import client_handshake
from repro.vfs.fs import ROOT_CRED, Credentials

#: first uid of the per-client grid accounts (``grid00`` = 9100, …)
FLEET_UID_BASE = 9100

_SUITES = {
    "sgfs-sha": "null-sha1",
    "sgfs-rc": "rc4-128-sha1",
    "sgfs-aes": "aes-256-cbc-sha1",
    "sgfs": "aes-256-cbc-sha1",
}


@dataclass
class FleetClientResult:
    """One fleet member's outcome (virtual seconds)."""

    name: str
    start: float
    end: float
    phases: Dict[str, float] = field(default_factory=dict)
    #: payload bytes this client's workload actually moved, when the
    #: workload reports them (``workload.bytes_moved``); None otherwise
    bytes_moved: Optional[int] = None

    @property
    def total(self) -> float:
        return self.end - self.start


@dataclass
class FleetResult:
    """Aggregate outcome of a fleet run.

    ``makespan`` is launch-to-last-finish in virtual seconds (staggered
    starts included); ``per_client`` is ordered by client index.
    ``stats`` is the merged cross-layer registry snapshot — colliding
    per-session collector names are summed, see
    :func:`repro.obs.merge_metric`.
    """

    setup: str
    clients: int
    makespan: float
    per_client: List[FleetClientResult] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)
    #: fleet-wide bottleneck-attribution report (profile=True runs);
    #: its ``clients`` section breaks span self-time down per member
    profile: Optional[Dict[str, object]] = None
    #: the span tracer when the run was traced/profiled — client tracks
    #: are namespace-prefixed (``c0:...``), so Chrome-trace and flame
    #: exports keep the N clients apart
    tracer: Optional[object] = None

    def aggregate_throughput(self, bytes_per_client: Optional[int] = None) -> float:
        """Fleet-wide rate in bytes per virtual second.

        With no argument, computes the rate from the **actual** bytes
        each client reported moving (``per_client[i].bytes_moved``) —
        correct for mixed workloads and runs where some clients moved
        fewer bytes than planned (e.g. under fault schedules).

        Passing ``bytes_per_client`` keeps the historical convenience
        estimate ``clients * bytes_per_client / makespan``, which
        **over-reports** whenever clients don't all move exactly that
        many bytes; use it only for uniform workloads that don't report
        ``bytes_moved``.
        """
        if self.makespan <= 0.0:
            return 0.0
        if bytes_per_client is None:
            counts = [c.bytes_moved for c in self.per_client]
            if any(b is None for b in counts):
                missing = [c.name for c in self.per_client if c.bytes_moved is None]
                raise ValueError(
                    f"clients {missing} did not report bytes_moved; pass "
                    f"bytes_per_client for the per-client estimate instead"
                )
            return sum(counts) / self.makespan
        return self.clients * bytes_per_client / self.makespan

    @property
    def mean_client_seconds(self) -> float:
        if not self.per_client:
            return 0.0
        return sum(c.total for c in self.per_client) / len(self.per_client)


class _ScopedFs:
    """A view of the shared VFS rooted at one client's subdirectory.

    Workload ``prepare`` hooks address the export through ``tb.fs.root``;
    handing them this view (via a shallow testbed copy) makes the same
    unmodified workload land its dataset inside the client's directory.
    """

    def __init__(self, fs, root_inode):
        self._fs = fs
        self.root = root_inode

    def __getattr__(self, name):
        return getattr(self._fs, name)


class _ScopedTestbed:
    """Testbed facade whose ``fs`` is a :class:`_ScopedFs`."""

    def __init__(self, tb: Testbed, scoped_fs: _ScopedFs):
        self._tb = tb
        self.fs = scoped_fs

    def __getattr__(self, name):
        return getattr(self._tb, name)


def _client_dn(i: int) -> DistinguishedName:
    return DistinguishedName.parse(f"/C=US/O=UFL/OU=ACIS/CN=Grid User {i:02d}")


def run_fleet(
    setup: str,
    workload_factory: Callable[..., object],
    clients: int = 4,
    rtt: float = 0.0,
    cal: Calibration = DEFAULT_CALIBRATION,
    stagger: float = 0.0,
    setup_kwargs: Optional[dict] = None,
    telemetry: bool = True,
    tracing: bool = False,
    profile: bool = False,
    faults=None,
    fault_seed: str = "faults",
    session_seed: str = "fleet",
    server_cores: int = 1,
    session_tickets: bool = False,
    reconnect_interval: Optional[float] = None,
    servers: int = 1,
    replicas: int = 1,
    grid_block_size: int = DEFAULT_BLOCK_SIZE,
    streams: int = 1,
    delegation_lifetime: Optional[float] = None,
) -> FleetResult:
    """Run ``clients`` concurrent workload instances against one server.

    ``setup`` is a :data:`~repro.core.setups.SETUP_BUILDERS` family:
    ``nfs-v3`` / ``nfs-v4`` (kernel clients straight at the server),
    ``gfs`` (proxied, plain channel, every session mapped to the
    management account), or ``sgfs-sha`` / ``sgfs-rc`` / ``sgfs-aes`` /
    ``sgfs`` (proxied, per-client TLS sessions with per-client
    certificates and gridmap entries).  ``sfs`` and ``gfs-ssh`` are
    single-session designs and raise ``ValueError``.

    ``workload_factory`` builds one workload per client; it may take
    zero arguments or the client index (for per-client workload mixes).
    ``stagger`` spaces client starts that many virtual seconds apart
    (0 = synchronized start).

    Returns a :class:`FleetResult`; all reported times are virtual
    seconds.  Two calls with identical arguments produce bit-identical
    results (same ``makespan``, ``per_client``, and ``stats``).

    ``profile=True`` (or a dict of ``build_report`` keyword arguments)
    attaches the fleet-wide bottleneck-attribution report to
    ``result.profile`` and the namespaced span tracer to
    ``result.tracer``; neither affects virtual-time results.

    Scale-out knobs (all default to the paper's single-core behavior):
    ``server_cores=N`` gives the server host N deterministic cores, with
    each secure session's record crypto pinned to one of them;
    ``session_tickets=True`` turns on TLS session resumption between the
    proxies; ``reconnect_interval=T`` makes every client cycle its
    upstream session every T virtual seconds (exercising resumption).

    ``servers=N`` (with N > 1) shards the data plane: N backend NFS
    servers each behind their own server-side proxy, one metadata
    service on the home server mapping each grid-created file's
    ``grid_block_size`` block ranges round-robin across them, and every
    client striping block I/O over N upstream sessions
    (:mod:`repro.grid`).  ``replicas=K`` writes each block to K
    consecutive backends, so a crashed backend's blocks stay readable.
    ``servers=1`` takes the exact single-server code path — results are
    bit-identical to a build without the knob.

    ``streams=N`` opens N parallel proxy-to-proxy channels per upstream
    leg: bulk block traffic round-robins across them and the proxy
    cache's read-ahead/write-behind windows grow to the measured RTT
    (at most 64 blocks).  Secure setups with N > 1 force session
    tickets on so channels resume rather than repeat the full
    handshake.  ``streams=1`` is the degenerate configuration of the
    same code — one channel, a window of one block: the paper's
    stop-and-wait proxy.

    ``delegation_lifetime=T`` (secure setups only) switches every client
    to SSO-style **delegated credentials**: each session authenticates
    with a short-lived *limited* proxy certificate (lifetime T virtual
    seconds) delegated from the client's long-term identity instead of
    the identity itself.  A reconnect after expiry first re-delegates —
    charging :data:`~repro.gsi.proxy.DELEGATION_CPU_SECONDS` and
    re-entering the gridmap (bumping its epoch, so the server proxy's
    authz cache revalidates) — then handshakes; with session tickets on,
    that handshake still resumes abbreviated, so renewal costs one
    delegation rather than a full RSA exchange.  Counters
    ``gsi.delegations`` / ``gsi.renewals`` record the churn.  ``None``
    is the exact historical code path.
    """
    if clients < 1:
        raise ValueError("fleet needs at least one client")
    if setup in ("sfs", "gfs-ssh"):
        raise ValueError(f"{setup} is a single-session design; fleets unsupported")
    if setup not in ("nfs-v3", "nfs-v4", "gfs") and setup not in _SUITES:
        raise ValueError(f"unknown fleet setup {setup!r}")
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if not 1 <= replicas <= servers:
        raise ValueError(f"replicas must be in [1, servers]; got {replicas}")
    grid = servers > 1
    if grid and setup in ("nfs-v3", "nfs-v4"):
        raise ValueError("sharded data plane (servers > 1) requires a proxied setup")
    if delegation_lifetime is not None:
        if setup not in _SUITES:
            raise ValueError("delegation_lifetime requires a secure (sgfs*) setup")
        if delegation_lifetime <= 0:
            raise ValueError("delegation_lifetime must be positive")
    kw = dict(setup_kwargs or {})
    cache_bytes = kw.pop("cache_bytes", None)
    disk_cache = kw.pop("disk_cache", False)
    if kw:
        raise ValueError(f"unsupported fleet setup_kwargs: {sorted(kw)}")

    if profile:
        telemetry = tracing = True
    tb = Testbed.build(
        rtt=rtt, cal=cal, telemetry=telemetry, tracing=tracing,
        profile=profile, server_cores=server_cores, servers=servers,
    )
    sim = tb.sim
    proxied = setup not in ("nfs-v3", "nfs-v4")
    secure = setup in _SUITES
    streams = max(1, int(streams))
    if streams > 1 and secure:
        # sub-channels 1..N-1 resume channel 0's session keys
        session_tickets = True

    # -- per-client identities, accounts, and the shared policy ------------
    rng = Drbg(session_seed)
    names = [f"c{i}" for i in range(clients)]
    hosts = [tb.add_client(n) for n in names]
    if secure:
        owners = [
            Account(f"grid{i:02d}", FLEET_UID_BASE + i, FLEET_UID_BASE + i)
            for i in range(clients)
        ]
    else:
        owners = [FILE_ACCOUNT] * clients

    # SSO delegation state (populated only for delegation_lifetime runs;
    # the counters are registered lazily so legacy runs' stat schemas are
    # untouched).
    base_identities: List[Optional[object]] = [None] * clients
    delegation_counts = [0] * clients
    if delegation_lifetime is not None:
        c_delegations = tb.obs.counter("gsi", "delegations")
        c_renewals = tb.obs.counter("gsi", "renewals")

    server_proxy = None
    client_cfgs: List[Optional[SecurityConfig]] = [None] * clients
    if proxied:
        gridmap = Gridmap(unmapped=UnmappedPolicy.DENY)
        server_cfg = None
        if secure:
            suite = _SUITES[setup]
            ca = CertificateAuthority(
                CA_DN, rng=rng.fork("ca"), key_bits=1024, now=sim.now
            )
            host_id = ca.issue_identity(
                SERVER_DN, rng=rng.fork("host"), key_bits=1024, now=sim.now
            )
            server_cfg = SecurityConfig.for_session(
                host_id, [ca.certificate], suite, fast_ciphers=True,
                rng=rng.fork("server-tls"),
                session_tickets=session_tickets,
            )
            for i in range(clients):
                dn = _client_dn(i)
                user = ca.issue_identity(
                    dn, rng=rng.fork(f"user{i}"), key_bits=1024, now=sim.now
                )
                session_cred = user
                if delegation_lifetime is not None:
                    # SSO: the session holds a short-lived limited proxy,
                    # never the long-term key (the "login").
                    base_identities[i] = user
                    session_cred = issue_proxy_certificate(
                        user, now=sim.now, lifetime=delegation_lifetime,
                        rng=rng.fork(f"delegate{i}:0"), key_bits=1024,
                        limited=True,
                    )
                    delegation_counts[i] = 1
                    c_delegations.inc()
                client_cfgs[i] = SecurityConfig.for_session(
                    session_cred, [ca.certificate], suite, fast_ciphers=True,
                    rng=rng.fork(f"client-tls{i}"),
                    session_tickets=session_tickets,
                )
                gridmap.add(dn, owners[i].name)
                tb.server_accounts.add(owners[i])
        else:
            gridmap.add(USER_DN, FILE_ACCOUNT.name)
        if FILE_ACCOUNT.name not in tb.server_accounts:
            tb.server_accounts.add(FILE_ACCOUNT)
        server_proxy = SgfsServerProxy(
            sim, tb.server, SERVER_PROXY_PORT, NFS_PORT,
            accounts=tb.server_accounts, gridmap=gridmap, fs=tb.fs,
            security=server_cfg, cost=cal.proxy_cost, account="proxy",
            blocking=True, enable_acls=True,
            session_identity=None if secure else USER_DN,
            acl_disk=tb.server_disk,
        )
        server_proxy.start()

    # -- sharded data plane: backend proxies + the metadata service --------
    backend_proxies: List[Optional[SgfsServerProxy]] = [server_proxy]
    if grid:
        for b in range(1, servers):
            backend = tb.backends[b]
            bcfg = None
            if secure:
                bcfg = SecurityConfig.for_session(
                    host_id, [ca.certificate], suite, fast_ciphers=True,
                    rng=rng.fork(f"server-tls-s{b}"),
                    session_tickets=session_tickets,
                )
            bproxy = SgfsServerProxy(
                sim, backend.host, SERVER_PROXY_PORT, NFS_PORT,
                accounts=tb.server_accounts, gridmap=gridmap, fs=backend.fs,
                security=bcfg, cost=cal.proxy_cost, account="proxy",
                blocking=True, enable_acls=True,
                session_identity=None if secure else USER_DN,
                acl_disk=backend.disk,
            )
            bproxy.start()
            backend_proxies.append(bproxy)
        grid_service = GridMetadataService(
            width=servers, replicas=replicas, block_size=grid_block_size,
            obs=tb.obs,
        )
        meta_rpc = RpcServer(
            sim, cpu=tb.server.cpu, cost=cal.kernel_server_cost,
            account="grid-meta", name="grid-meta",
        )
        meta_rpc.register(GridMetadataProgram(grid_service))
        meta_rpc.serve_listener(tb.server.listen(GRID_META_PORT))

    # -- per-client namespaces and workload preparation --------------------
    # Subdirectories are created out of band (setup scripts run as root
    # server-side), then chowned to the session owner, so every client's
    # dataset is isolated while living in one shared export.
    workloads = []
    takes_index = bool(inspect.signature(workload_factory).parameters)
    root_fid = tb.fs.root.fileid
    for i, name in enumerate(names):
        node = tb.fs.mkdir(root_fid, name, ROOT_CRED)
        tb.fs.setattr(node.fileid, ROOT_CRED, uid=owners[i].uid, gid=owners[i].gid)
        workload = workload_factory(i) if takes_index else workload_factory()
        scoped = _ScopedTestbed(tb, _ScopedFs(tb.fs, node))
        if hasattr(workload, "prepare"):
            workload.prepare(scoped)
        workloads.append((workload, node))

    # Mirror the per-client subdirectories onto every extra backend (out
    # of band, like the home-side mkdirs above) and record each client's
    # per-backend root handles for the stripe router.
    grid_roots: List[Dict[int, FileHandle]] = []
    if grid:
        for i, name in enumerate(names):
            node = workloads[i][1]
            handles = {0: FileHandle(tb.fs.fsid, node.fileid, node.generation)}
            for b in range(1, servers):
                bfs = tb.backends[b].fs
                bnode = bfs.mkdir(bfs.root.fileid, name, ROOT_CRED)
                bfs.setattr(bnode.fileid, ROOT_CRED,
                            uid=owners[i].uid, gid=owners[i].gid)
                handles[b] = FileHandle(bfs.fsid, bnode.fileid, bnode.generation)
            grid_roots.append(handles)

    # -- faults -------------------------------------------------------------
    plan = None
    fault_spec = resolve_fault_preset(faults)
    if fault_spec is not None:
        plan = FaultPlan(sim, fault_spec, seed=fault_seed)
        plan.install(tb.net)
        handlers = {"server": (tb.crash_nfs_server, tb.restart_nfs_server)}
        if server_proxy is not None and hasattr(server_proxy, "crash"):
            handlers["server-proxy"] = (server_proxy.crash, server_proxy.restart)
        if grid:
            # "backendN" crashes backend N's whole stack: its kernel NFS
            # server and its server-side proxy go down together
            for b in range(1, servers):
                def _crash(b=b, p=backend_proxies[b]):
                    tb.crash_backend(b)
                    if p is not None:
                        p.crash()

                def _restart(b=b, p=backend_proxies[b]):
                    tb.restart_backend(b)
                    if p is not None:
                        p.restart()

                handlers[f"backend{b}"] = (_crash, _restart)
        plan.schedule(handlers)

    # -- client processes ---------------------------------------------------
    t0 = sim.now
    results: List[Optional[FleetClientResult]] = [None] * clients
    errors: List[BaseException] = []
    done = Channel(sim, name="fleet-done")

    def client_proc(i: int):
        host, name = hosts[i], names[i]
        workload, node = workloads[i]
        cycler_proc = None
        try:
            if stagger and i:
                yield sim.timeout(stagger * i)
            start = sim.now
            root_fh = FileHandle(tb.fs.fsid, node.fileid, node.generation)
            if proxied:
                cfg = client_cfgs[i]

                def make_factory(target, cfg=cfg, host=host, i=i):
                    def upstream_factory():
                        if (
                            cfg is not None
                            and delegation_lifetime is not None
                            and cfg.credential.certificate.not_after <= sim.now
                        ):
                            # Delegation expired: re-delegate before the
                            # handshake (the server would reject the stale
                            # chain).  The fresh gridmap add bumps the
                            # epoch, so the server proxy's authz cache
                            # revalidates this DN under churn.
                            n = delegation_counts[i]
                            delegation_counts[i] = n + 1
                            yield from host.cpu.consume(
                                DELEGATION_CPU_SECONDS, "proxy"
                            )
                            cfg.credential = issue_proxy_certificate(
                                base_identities[i], now=sim.now,
                                lifetime=delegation_lifetime,
                                rng=rng.fork(f"delegate{i}:{n}"),
                                key_bits=1024, limited=True,
                            )
                            gridmap.add(_client_dn(i), owners[i].name)
                            c_delegations.inc()
                            c_renewals.inc()
                        sock = yield from host.connect(target, SERVER_PROXY_PORT)
                        if cfg is None:
                            return StreamTransport(sock)
                        channel = yield from client_handshake(
                            sim, sock, cfg, cpu=host.cpu, account="proxy"
                        )
                        return channel

                    return upstream_factory

                router = None
                if grid:
                    # Leg 0 (home/namespace) keeps the patient hard-mount
                    # retry budget; data legs fail fast so a crashed
                    # backend surfaces as an RpcError the router can
                    # fail over from, instead of minutes of backoff.
                    legs = [
                        UpstreamSession(
                            sim, make_factory(tb.backends[b].name),
                            streams=streams, name=f"leg{b}",
                        )
                        if b == 0 else
                        UpstreamSession(
                            sim, make_factory(tb.backends[b].name),
                            retry_max=2, retry_base=0.25, retry_cap=2.0,
                            streams=streams, name=f"leg{b}",
                        )
                        for b in range(servers)
                    ]
                    meta = GridMetadataClient(
                        sim, host, "server", GRID_META_PORT
                    )
                    router = GridRouter(
                        sim, legs, meta, width=servers, replicas=replicas,
                        block_size=grid_block_size, obs=tb.obs,
                    )
                    router.add_root(node.fileid, grid_roots[i])
                proxy = SgfsClientProxy(
                    sim, host, CLIENT_PROXY_PORT,
                    upstream_factory=None if grid else make_factory("server"),
                    cost=cal.proxy_cost, account="proxy",
                    cache=_cache_config(tb, disk_cache),
                    disk=_cache_disk(tb, disk_cache),
                    blocking=True,
                    streams=streams,
                    grid=router,
                )
                yield from proxy.start()
                if reconnect_interval:
                    # Periodic session refresh: tears the upstream TLS
                    # session down and re-handshakes (abbreviated, when
                    # tickets are on) until this client's workload ends,
                    # at which point the finally below interrupts it —
                    # no cycle may fire after the workload completes.
                    def cycler(proxy=proxy):
                        try:
                            while True:
                                yield sim.timeout(reconnect_interval)
                                yield from proxy.cycle_upstream()
                        except Interrupt:
                            return

                    cycler_proc = sim.spawn(
                        cycler(), name=f"session-cycler:{name}"
                    )
                cred = AuthSys(uid=JOB_ACCOUNT.uid, gid=JOB_ACCOUNT.gid,
                               machinename=name)
                client = yield from _kernel_client(
                    tb, name, CLIENT_PROXY_PORT, cred, cache_bytes,
                    host=host, root_fh=root_fh,
                )
            else:
                proxy = None
                cred = AuthSys(uid=owners[i].uid, gid=owners[i].gid,
                               machinename=name)
                client = yield from _kernel_client(
                    tb, "server", NFS_PORT, cred, cache_bytes,
                    host=host, root_fh=root_fh,
                    vers=NFS_V4 if setup == "nfs-v4" else pr.NFS_V3,
                )
            if fault_spec is not None:
                if fault_spec.client_timeo is not None and hasattr(client, "timeo"):
                    client.timeo = fault_spec.client_timeo
                if fault_spec.proxy_timeo is not None and proxy is not None:
                    proxy.upstream_timeo = fault_spec.proxy_timeo
            mount = Mount(f"{setup}:{name}", tb, client, client_proxy=proxy,
                          server_proxy=server_proxy)
            yield from workload.run(mount)
            yield from mount.finish()
            results[i] = FleetClientResult(
                name=name, start=start, end=sim.now,
                phases=dict(getattr(workload, "results", {})),
                bytes_moved=getattr(workload, "bytes_moved", None),
            )
        except BaseException as exc:  # surfaced after the join below
            errors.append(exc)
        finally:
            # Tear the session cycler down *before* signaling completion:
            # a cycle firing after the workload finished would quiesce a
            # session nothing will use again and perturb shutdown order.
            if cycler_proc is not None and cycler_proc.alive:
                cycler_proc.interrupt("client workload complete")
            done.put(i)

    for i in range(clients):
        proc = sim.spawn(client_proc(i), name=f"fleet-{names[i]}")
        # Namespace the client's span tracks: every process spawned
        # inside the subtree inherits this via sim.current.
        proc.trace_ns = names[i]

    def supervisor():
        for _ in range(clients):
            yield done.get()

    sim.run_until_complete(sim.spawn(supervisor(), name="fleet-join"))
    if plan is not None:
        plan.uninstall()
    if errors:
        raise errors[0]

    result = FleetResult(
        setup=setup, clients=clients,
        makespan=max(r.end for r in results) - t0,
        per_client=list(results),
    )
    result.stats.update(tb.obs.snapshot())
    if plan is not None:
        result.stats["faults"] = dict(plan.stats)
    if tracing:
        result.tracer = tb.tracer
    if profile:
        from repro.obs.profile import build_report

        kwargs = profile if isinstance(profile, dict) else {}
        result.profile = build_report(
            tb, t0=t0, t_end=max(r.end for r in results), **kwargs
        )
    return result
