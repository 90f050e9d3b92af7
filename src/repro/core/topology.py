"""Testbed: the client / router / server topology of §6.1.

``Testbed.build(rtt=...)`` assembles the simulator, the three network
nodes (compute client, NIST-Net-style delay router, file server), the
exported VirtualFS with its disk, the kernel NFS server, and the account
databases — everything the eight setups build on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.net import DelayRouter, Host, Network
from repro.nfs.server import NfsServerProgram
from repro.obs import NULL_REGISTRY, NULL_TRACER, Registry, SpanTracer
from repro.proxy.accounts import Account, AccountsDb
from repro.rpc.server import RpcServer
from repro.sim import Simulator
from repro.vfs import DiskModel, VirtualFS

#: Well-known ports on the simulated hosts.
NFS_PORT = 2049
SERVER_PROXY_PORT = 4444
CLIENT_PROXY_PORT = 4445
SSH_TUNNEL_PORT = 4422
SSH_LOCAL_PORT = 4423
SFS_PORT = 4446
GRID_META_PORT = 4447


@dataclass
class Backend:
    """One data-plane NFS server of a sharded (``servers > 1``) testbed.

    Backend 0 aliases the home server — the same host/fs/program the
    single-server topology builds — so ``servers=1`` runs are untouched;
    backends 1..N-1 are additional hosts hanging off the same router.
    """

    index: int
    name: str
    host: Host
    fs: VirtualFS
    disk: DiskModel
    nfs_program: NfsServerProgram
    rpc_server: RpcServer
    listener: object = None


@dataclass
class Testbed:
    """A built testbed ready for setups and workloads."""

    __test__ = False  # not a pytest class, despite the name

    sim: Simulator
    net: Network
    client: Host
    server: Host
    router: DelayRouter
    fs: VirtualFS
    server_disk: DiskModel
    nfs_program: NfsServerProgram
    nfs_rpc_server: RpcServer
    server_accounts: AccountsDb
    client_accounts: AccountsDb
    cal: Calibration
    #: telemetry (repro.obs): the registry/tracer every layer hooks into.
    #: The null singletons when the testbed was built without telemetry.
    obs: "Registry" = NULL_REGISTRY
    tracer: "SpanTracer" = NULL_TRACER
    #: the kernel NFS server's listener, kept so crash injection can close it
    nfs_listener: object = None
    #: data-plane servers of a sharded testbed; entry 0 aliases the home
    #: server, so ``len(backends)`` is the grid width (1 = unsharded)
    backends: list = field(default_factory=list)
    _port_alloc: "itertools.count" = field(default_factory=lambda: itertools.count(20000))

    @classmethod
    def build(
        cls,
        rtt: float = 0.0,
        cal: Calibration = DEFAULT_CALIBRATION,
        export_owner: str = "ming",
        export_uid: int = 901,
        telemetry: bool = False,
        tracing: bool = False,
        profile: bool = False,
        server_cores: int = 1,
        servers: int = 1,
    ) -> "Testbed":
        """Create the §6.1 topology.

        ``rtt`` is the NIST-Net-emulated round-trip time *added* by the
        router (0 for the LAN runs; the base LAN RTT of ~0.3 ms comes
        from the links themselves), in virtual seconds.

        ``telemetry`` enables the cross-layer metrics registry;
        ``tracing`` additionally records causal spans for Chrome-trace
        export.  Both are off by default and cost one attribute check
        per instrumented call site when off.  Neither consumes virtual
        time, so enabling them never changes simulated results.

        Every kernel NFS server dispatches through the
        :class:`~repro.rpc.server.RpcServer` worker pool and takes
        per-fileid reader/writer locks, whether one client mounts it or
        a fleet does.

        ``server_cores=N`` gives the server host a deterministic
        N-core CPU (:class:`repro.sim.cpu.CPU`): independent sessions'
        crypto and request processing overlap across cores instead of
        serializing.  The default ``1`` reproduces the paper's 1-vCPU
        server bit-for-bit.

        ``servers=N`` builds a sharded data plane: N-1 extra backend
        hosts ``s1..s{N-1}`` hang off the same router, each with its own
        VirtualFS, disk, and kernel NFS server (the home server is
        backend 0).  The grid layer (:mod:`repro.grid`) stripes file
        blocks across them.  ``servers=1`` (the default) builds exactly
        the single-server topology — bit-identical to before the knob
        existed.

        ``profile=True`` arms the bottleneck-attribution layer
        (:mod:`repro.obs.profile`): it forces telemetry *and* tracing on
        and additionally records per-direction link occupancy intervals
        and RPC worker-queue depth timelines.  Like the other
        observability knobs it consumes no virtual time.
        """
        if profile:
            telemetry = tracing = True
        obs = Registry() if telemetry or tracing else NULL_REGISTRY
        sim = Simulator(obs=obs)
        sim.profile = profile
        if tracing:
            sim.tracer = SpanTracer(
                clock=lambda: sim.now, current_track=lambda: sim.current
            )
        net = Network(sim)
        net.record_occupancy = profile
        client = Host(sim, net, "client")
        server = Host(sim, net, "server", cpu_cores=server_cores)
        router = DelayRouter(sim, net, "router", one_way_delay=rtt / 2.0)
        net.connect("client", "router", latency=cal.lan_link_latency,
                    bandwidth=cal.lan_bandwidth)
        net.connect("router", "server", latency=cal.lan_link_latency,
                    bandwidth=cal.lan_bandwidth)

        # The exported filesystem /GFS, owned by the management account.
        fs = VirtualFS(clock=lambda: sim.now, root_uid=export_uid,
                       root_gid=export_uid, root_mode=0o755)
        server_disk = DiskModel(
            sim, name="server-disk",
            access_latency=cal.server_disk_access,
            read_bandwidth=cal.server_disk_read_bw,
            write_bandwidth=cal.server_disk_write_bw,
        )
        nfs_program = NfsServerProgram(sim, fs, server_disk)
        nfs_rpc_server = RpcServer(
            sim, cpu=server.cpu, cost=cal.kernel_server_cost, account="kernel-nfs",
            name="nfsd",
        )
        nfs_rpc_server.register(nfs_program)
        from repro.nfs.v4 import NfsV4ServerProgram

        nfs_rpc_server.register(
            NfsV4ServerProgram(sim, fs, server_disk,
                               compound_overhead=cal.v4_compound_overhead)
        )
        nfs_listener = server.listen(NFS_PORT)
        nfs_rpc_server.serve_listener(nfs_listener)

        server_accounts = AccountsDb()
        server_accounts.add(Account(export_owner, export_uid, export_uid))
        client_accounts = AccountsDb()

        if servers < 1:
            raise ValueError("servers must be >= 1")
        backends = [
            Backend(
                index=0, name="server", host=server, fs=fs, disk=server_disk,
                nfs_program=nfs_program, rpc_server=nfs_rpc_server,
                listener=nfs_listener,
            )
        ]
        for i in range(1, servers):
            bname = f"s{i}"
            bhost = Host(sim, net, bname, cpu_cores=server_cores)
            net.connect(bname, "router", latency=cal.lan_link_latency,
                        bandwidth=cal.lan_bandwidth)
            bfs = VirtualFS(clock=lambda: sim.now, root_uid=export_uid,
                            root_gid=export_uid, root_mode=0o755)
            bdisk = DiskModel(
                sim, name=f"{bname}-disk",
                access_latency=cal.server_disk_access,
                read_bandwidth=cal.server_disk_read_bw,
                write_bandwidth=cal.server_disk_write_bw,
            )
            bprog = NfsServerProgram(sim, bfs, bdisk)
            brpc = RpcServer(
                sim, cpu=bhost.cpu, cost=cal.kernel_server_cost,
                account="kernel-nfs", name=f"nfsd-{bname}",
            )
            brpc.register(bprog)
            blistener = bhost.listen(NFS_PORT)
            brpc.serve_listener(blistener)
            backends.append(Backend(
                index=i, name=bname, host=bhost, fs=bfs, disk=bdisk,
                nfs_program=bprog, rpc_server=brpc, listener=blistener,
            ))

        return cls(
            sim=sim, net=net, client=client, server=server, router=router,
            fs=fs, server_disk=server_disk, nfs_program=nfs_program,
            nfs_rpc_server=nfs_rpc_server,
            server_accounts=server_accounts, client_accounts=client_accounts,
            cal=cal, obs=sim.obs, tracer=sim.tracer, nfs_listener=nfs_listener,
            backends=backends,
        )

    # -- conveniences ------------------------------------------------------------

    def add_client(self, name: str) -> Host:
        """Attach another compute client to the topology.

        The new host hangs off the same delay router as the primary
        ``client`` (a LAN-grade link; the router adds the emulated WAN
        RTT on the way to the server), so every fleet member sees the
        same path characteristics and contends for the shared
        router-to-server link.  Returns the new :class:`Host`; ports on
        it are independent of every other host's."""
        host = Host(self.sim, self.net, name)
        self.net.connect(name, "router", latency=self.cal.lan_link_latency,
                         bandwidth=self.cal.lan_bandwidth)
        return host

    def alloc_port(self) -> int:
        return next(self._port_alloc)

    def set_rtt(self, rtt: float) -> None:
        """Reconfigure the emulated WAN RTT (re-running NIST Net)."""
        self.router.set_rtt(rtt)

    @property
    def measured_rtt(self) -> float:
        return self.net.rtt("client", "server")

    def crash_nfs_server(self) -> None:
        """Crash injection: the kernel NFS server stops listening and
        severs all connections.  Its DRC survives, modeling the stable
        reply cache of a restarting nfsd."""
        if self.nfs_listener is not None:
            self.nfs_listener.close()
            self.nfs_listener = None
        self.nfs_rpc_server.disconnect_all()

    def restart_nfs_server(self) -> None:
        """Come back up after :meth:`crash_nfs_server`."""
        if self.nfs_listener is None:
            self.nfs_listener = self.server.listen(NFS_PORT)
            self.nfs_rpc_server.serve_listener(self.nfs_listener)

    def crash_backend(self, index: int) -> None:
        """Crash one data-plane backend's kernel NFS server (see
        :meth:`crash_nfs_server`; index 0 is the home server)."""
        if index == 0:
            self.crash_nfs_server()
            self.backends[0].listener = None
            return
        backend = self.backends[index]
        if backend.listener is not None:
            backend.listener.close()
            backend.listener = None
        backend.rpc_server.disconnect_all()

    def restart_backend(self, index: int) -> None:
        """Come back up after :meth:`crash_backend`."""
        if index == 0:
            self.restart_nfs_server()
            self.backends[0].listener = self.nfs_listener
            return
        backend = self.backends[index]
        if backend.listener is None:
            backend.listener = backend.host.listen(NFS_PORT)
            backend.rpc_server.serve_listener(backend.listener)

    def run(self, generator, name: str = "workload"):
        """Spawn a process and run the simulation until it completes."""
        proc = self.sim.spawn(generator, name=name)
        return self.sim.run_until_complete(proc)

    def run_all(self) -> float:
        """Drain every pending event; returns the final virtual time."""
        return self.sim.run()
