"""Scale-out harness: N concurrent clients against one server.

The paper evaluates SGFS with one client per session, but the system's
point is *grid-wide* sharing — many users mounting one server through
per-user secured sessions.  :func:`fleet_run` (``run(Scenario(...,
clients=N), ...)``) builds that scenario on a single deterministic
simulation:

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
``fault_seed`` exactly as for the paper's seat).

All times are **virtual seconds**; all sizes are **bytes**.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.core.setups import (
    FILE_ACCOUNT,
    SUITES,
    USER_DN,
    Mount,
    Seat,
    SessionPki,
    admit,
    client_proxy,
    mount_kernel_server,
    mount_through_proxy,
    proxy_dial,
    serve_sessions,
    session_pki,
)
from repro.core.topology import CLIENT_PROXY_PORT, SERVER_PROXY_PORT, Testbed
from repro.gsi import (
    DELEGATION_CPU_SECONDS,
    DistinguishedName,
    Gridmap,
    issue_proxy_certificate,
)
from repro.harness.runner import apply_fault_timeouts, collect, install_faults
from repro.nfs import protocol as pr
from repro.nfs.protocol import FileHandle
from repro.nfs.v4 import NFS_V4
from repro.proxy.accounts import Account
from repro.sim import Interrupt
from repro.sim.sync import Channel
from repro.vfs.fs import ROOT_CRED

#: first uid of the per-client grid accounts (``grid00`` = 9100, …)
FLEET_UID_BASE = 9100

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
    per-session keys merge by their declared kind, see
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

    def aggregate_throughput(self) -> float:
        """Fleet-wide rate in bytes per virtual second, from the bytes
        each client reported moving (``per_client[i].bytes_moved``) —
        correct for mixed workloads and runs where some clients moved
        fewer bytes than planned (e.g. under fault schedules).  A fleet
        whose workload reports no byte counts has no rate: ``ValueError``.
        """
        if self.makespan <= 0.0:
            return 0.0
        missing = [c.name for c in self.per_client if c.bytes_moved is None]
        if missing:
            raise ValueError(f"clients {missing} did not report bytes_moved")
        return sum(c.bytes_moved for c in self.per_client) / self.makespan

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


def _fleet_seat(tb: Testbed, i: int, secure: bool) -> Seat:
    """Fleet member ``i``: its own host ``c{i}`` and its own subdirectory
    ``/c{i}`` of every backend's export.  Secure setups give each member
    a grid identity and a file account of its own; plain gfs and native
    NFS run every member as the management user.

    The subdirectories are made out of band (setup scripts run as root
    server-side), then chowned to the seat's account, so every client's
    dataset is isolated while living in one shared export."""
    name = f"c{i}"
    dn, account = USER_DN, FILE_ACCOUNT
    if secure:
        dn = DistinguishedName.parse(f"/C=US/O=UFL/OU=ACIS/CN=Grid User {i:02d}")
        account = Account(f"grid{i:02d}", FLEET_UID_BASE + i, FLEET_UID_BASE + i)
    roots = {}
    for b in tb.backends:
        node = b.fs.mkdir(b.fs.root.fileid, name, ROOT_CRED)
        b.fs.setattr(node.fileid, ROOT_CRED, uid=account.uid, gid=account.gid)
        roots[b.index] = FileHandle(b.fs.fsid, node.fileid, node.generation)
    return Seat(tb.add_client(name), dn, account, roots, suffix=str(i))


def _delegating(tb: Testbed, pki: SessionPki, gridmap: Gridmap, seat: Seat,
                cfg, lifetime: float, dial):
    """SSO: make ``cfg`` present a short-lived *limited* proxy delegated
    from its long-term identity (the "login") instead of the identity
    itself.  Returns ``dial`` made to renew it when due."""
    sim, base = tb.sim, cfg.credential
    delegations = tb.obs.counter("gsi", "delegations")
    renewals = tb.obs.counter("gsi", "renewals")
    issued = itertools.count()

    def delegate(n: int) -> None:
        delegations.inc()
        cfg.credential = issue_proxy_certificate(
            base, now=sim.now, lifetime=lifetime, key_bits=1024, limited=True,
            rng=pki.rng.fork(f"delegate{seat.suffix}:{n}"),
        )

    delegate(next(issued))

    def renewing(target):
        inner = dial(target)

        def dial_renewed():
            if cfg.credential.certificate.not_after <= sim.now:
                # Delegation expired: re-delegate before the handshake
                # (the server would reject the stale chain).  The fresh
                # gridmap add bumps the epoch, so the server proxy's
                # authz cache revalidates this DN under churn.
                n = next(issued)  # numbered in dial order, before the wait
                yield from seat.host.cpu.consume(DELEGATION_CPU_SECONDS, "proxy")
                delegate(n)
                admit(tb, gridmap, seat)
                renewals.inc()
            return (yield from inner())

        return dial_renewed

    return renewing


def _session_cycler(sim, proxy, interval: float):
    """Periodic session refresh: tears the upstream TLS session down and
    re-handshakes (abbreviated, when tickets are on) until interrupted."""
    try:
        while True:
            yield sim.timeout(interval)
            yield from proxy.cycle_upstream()
    except Interrupt:
        return


def fleet_run(s, workload_factory: Callable[..., object], telemetry: bool,
              tracing: bool, profile) -> FleetResult:
    """:func:`repro.harness.run` for a fleet: ``s.clients`` seats, each
    running the workload ``workload_factory`` builds (given the seat's
    index, when it takes a parameter), against one server.  Faults are
    armed and the clock starts before any session opens, so the makespan
    includes the mounts and handshakes."""
    setup, clients = s.setup, s.clients
    secure = setup in SUITES
    proxied = secure or setup == "gfs"

    tb = Testbed.build(
        rtt=s.rtt, cal=s.cal, telemetry=telemetry, tracing=tracing,
        profile=profile, server_cores=s.server_cores, servers=s.servers,
    )
    with tb:
        sim = tb.sim

        # -- seats, and each one's workload prepared inside its namespace --
        seats: List[Seat] = []
        workloads = []
        takes_index = bool(inspect.signature(workload_factory).parameters)
        for i in range(clients):
            seat = _fleet_seat(tb, i, secure)
            workload = workload_factory(i) if takes_index else workload_factory()
            if hasattr(workload, "prepare"):
                home = tb.backends[0]
                scoped = _ScopedFs(home.fs, home.fs.inode(seat.roots[0].fileid))
                workload.prepare(replace(tb, backends=[replace(home, fs=scoped)]))
            seats.append(seat)
            workloads.append(workload)

        # -- the sessions' server side, then each seat's dial -----------------
        # Spawn order decides ties: server proxies, then the grid metadata
        # service, then the client processes in index order.
        server_proxies: list = []
        dials: List[Callable] = []
        if proxied:
            pki = session_pki(tb, s.session_seed, SUITES.get(setup), s.streams,
                              s.session_tickets)
            server_proxies = serve_sessions(tb, seats, pki, replicas=s.replicas,
                                            block_size=s.grid_block_size)
            for seat in seats:
                cfg = None if pki is None else pki.client_config(seat)
                dial = proxy_dial(seat.host, SERVER_PROXY_PORT, cfg)
                if s.delegation_lifetime is not None:
                    dial = _delegating(tb, pki, server_proxies[0].gridmap, seat, cfg,
                                       s.delegation_lifetime, dial)
                dials.append(dial)

        # Faults are armed and the clock starts *before* any session opens:
        # a fleet's makespan includes its mounts and handshakes.
        plan = install_faults(tb, s.faults, s.fault_seed)
        t0 = sim.now
        results: List[Optional[FleetClientResult]] = [None] * clients
        errors: List[BaseException] = []
        done = Channel(sim, name="fleet-done")

        def client_proc(i: int):
            seat, workload = seats[i], workloads[i]
            cycler = None
            try:
                if s.stagger and i:
                    yield sim.timeout(s.stagger * i)
                start = sim.now
                proxy = None
                if proxied:
                    proxy = client_proxy(seat.host, CLIENT_PROXY_PORT,
                                         [b.name for b in tb.backends], dials[i], tb.cal,
                                         seat.roots, streams=s.streams,
                                         replicas=s.replicas, block_size=s.grid_block_size,
                                         disk_cache=s.disk_cache,
                                         cache_capacity=s.cache_capacity)
                    tb.register(f"client-proxy:{seat.name}", proxy)
                    yield from proxy.start()
                    if s.reconnect_interval:
                        # Spawned between the proxy's start and the kernel
                        # client's dial (the order is pinned), and stopped by
                        # the finally below when this client's workload ends.
                        cycler = sim.spawn(
                            _session_cycler(sim, proxy, s.reconnect_interval),
                            name=f"session-cycler:{seat.name}",
                        )
                    client = yield from mount_through_proxy(tb, seat, s.cache_bytes)
                else:
                    client = yield from mount_kernel_server(
                        tb, seat, s.cache_bytes,
                        vers=NFS_V4 if setup == "nfs-v4" else pr.NFS_V3,
                    )
                mount = Mount(f"{setup}:{seat.name}", tb, client, client_proxy=proxy,
                              server_proxy=server_proxies[0] if proxied else None)
                apply_fault_timeouts(plan, mount)
                yield from workload.run(mount)
                yield from mount.finish()
                results[i] = FleetClientResult(
                    name=seat.name, start=start, end=sim.now,
                    phases=dict(getattr(workload, "results", {})),
                    bytes_moved=getattr(workload, "bytes_moved", None),
                )
            except BaseException as exc:  # surfaced after the join below
                errors.append(exc)
            finally:
                # Tear the session cycler down *before* signaling completion:
                # a cycle firing after the workload finished would quiesce a
                # session nothing will use again and perturb shutdown order.
                if cycler is not None and cycler.alive:
                    cycler.interrupt("client workload complete")
                done.put(i)

        for i, seat in enumerate(seats):
            proc = sim.spawn(client_proc(i), name=f"fleet-{seat.name}")
            # Namespace the client's span tracks: every process spawned
            # inside the subtree inherits this via sim.current.
            proc.trace_ns = seat.name

        def supervisor():
            for _ in range(clients):
                yield done.get()

        sim.run_until_complete(sim.spawn(supervisor(), name="fleet-join"))
        if errors:
            raise errors[0]

        t_end = max(r.end for r in results)
        result = FleetResult(setup=setup, clients=clients, makespan=t_end - t0,
                             per_client=list(results))
        return collect(result, tb, plan, tracing, profile, t0, t_end)
