"""Testbed: the client / router / server topology of §6.1.

``Testbed.build(rtt=...)`` assembles the simulator, the three network
nodes (compute client, NIST-Net-style delay router, file server), the
exported VirtualFS with its disk, the kernel NFS server, and the account
databases — everything the eight setups build on — and knows the run's
daemons by name (:meth:`Testbed.register`) until :meth:`Testbed.close`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.net import DelayRouter, Host, Network
from repro.nfs.server import NfsServerProgram
from repro.nfs.v4 import NfsV4ServerProgram
from repro.obs import NULL_REGISTRY, NULL_TRACER, Registry, SpanTracer
from repro.proxy.accounts import Account, AccountsDb
from repro.rpc.server import RpcServer
from repro.sim import SimError, Simulator
from repro.vfs import DiskModel, VirtualFS

#: Well-known ports on the simulated hosts.
NFS_PORT = 2049
SERVER_PROXY_PORT = 4444
CLIENT_PROXY_PORT = 4445
SSH_TUNNEL_PORT = 4422
SSH_LOCAL_PORT = 4423
SFS_PORT = 4446
GRID_META_PORT = 4447

#: The exported filesystem /GFS belongs to the management account.
EXPORT_OWNER = Account("ming", 901, 901)


@dataclass
class Backend:
    """One file server: a host, its exported VirtualFS and disk, and the
    kernel NFS server in front of them.

    Backend 0 is the home server ``server`` (the paper's one file
    server; it alone also speaks NFSv4); backends 1..N-1 are the extra
    data-plane hosts ``s1``… of a sharded (``servers > 1``) testbed,
    hanging off the same router.
    """

    index: int
    name: str
    host: Host
    fs: VirtualFS
    disk: DiskModel
    nfs_program: NfsServerProgram
    #: the kernel NFS server, and its daemon (``stop``/``crash``/``restart``)
    rpc_server: RpcServer


@dataclass
class Testbed:
    """A built testbed ready for setups and workloads."""

    __test__ = False  # not a pytest class, despite the name

    sim: Simulator
    net: Network
    client: Host
    router: DelayRouter
    server_accounts: AccountsDb
    cal: Calibration
    #: every file server; entry 0 is the home server, so
    #: ``len(backends)`` is the grid width (1 = unsharded)
    backends: list
    #: telemetry (repro.obs): the registry/tracer every layer hooks into.
    #: The null singletons when the testbed was built without telemetry.
    obs: "Registry" = NULL_REGISTRY
    tracer: "SpanTracer" = NULL_TRACER
    #: name -> the daemons registered under it (:meth:`register`)
    daemons: Dict[str, list] = field(default_factory=dict)

    # The home server's parts, by their historical names.
    server = property(lambda self: self.backends[0].host)
    fs = property(lambda self: self.backends[0].fs)
    server_disk = property(lambda self: self.backends[0].disk)
    nfs_program = property(lambda self: self.backends[0].nfs_program)
    nfs_rpc_server = property(lambda self: self.backends[0].rpc_server)

    @classmethod
    def build(
        cls,
        rtt: float = 0.0,
        cal: Calibration = DEFAULT_CALIBRATION,
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

        ``server_cores=N`` gives every server host a deterministic
        N-core CPU (:class:`repro.sim.cpu.CPU`): independent sessions'
        crypto and request processing overlap across cores instead of
        serializing.  The default ``1`` is the paper's 1-vCPU server.

        ``servers=N`` builds a sharded data plane: N-1 extra backend
        hosts ``s1..s{N-1}`` hang off the same router, each with its own
        VirtualFS, disk, and kernel NFS server (the home server is
        backend 0).  The grid layer (:mod:`repro.grid`) stripes file
        blocks across them.

        ``profile=True`` arms the bottleneck-attribution layer
        (:mod:`repro.obs.profile`): it forces telemetry *and* tracing on
        and additionally records per-direction link occupancy intervals
        and RPC worker-queue depth timelines.  Like the other
        observability knobs it consumes no virtual time.
        """
        if servers < 1:
            raise ValueError("servers must be >= 1")
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
        router = DelayRouter(sim, net, "router", one_way_delay=rtt / 2.0)
        net.connect("client", "router", latency=cal.lan_link_latency,
                    bandwidth=cal.lan_bandwidth)

        backends = []
        for i in range(servers):
            name = "server" if i == 0 else f"s{i}"
            host = Host(sim, net, name, cpu_cores=server_cores)
            # A link is named after its endpoints in connect() order and
            # the name labels its stats: the home link stays
            # "router<->server", as the pinned snapshots spell it.
            ends = ("router", name) if i == 0 else (name, "router")
            net.connect(*ends, latency=cal.lan_link_latency,
                        bandwidth=cal.lan_bandwidth)
            fs = VirtualFS(clock=lambda: sim.now, root_uid=EXPORT_OWNER.uid,
                           root_gid=EXPORT_OWNER.gid, root_mode=0o755)
            disk = DiskModel(
                sim, name=f"{name}-disk",
                access_latency=cal.server_disk_access,
                read_bandwidth=cal.server_disk_read_bw,
                write_bandwidth=cal.server_disk_write_bw,
            )
            nfs_program = NfsServerProgram(sim, fs, disk)
            rpc_server = RpcServer(
                sim, cpu=host.cpu, cost=cal.kernel_server_cost,
                account="kernel-nfs", name="nfsd" if i == 0 else f"nfsd-{name}",
            )
            rpc_server.register(nfs_program)
            if i == 0:
                rpc_server.register(
                    NfsV4ServerProgram(sim, fs, disk,
                                       compound_overhead=cal.v4_compound_overhead)
                )
            rpc_server.serve_listener(host.listen(NFS_PORT))
            backends.append(Backend(
                index=i, name=name, host=host, fs=fs, disk=disk,
                nfs_program=nfs_program, rpc_server=rpc_server,
            ))

        server_accounts = AccountsDb()
        server_accounts.add(EXPORT_OWNER)
        return cls(
            sim=sim, net=net, client=client, router=router,
            server_accounts=server_accounts, cal=cal, backends=backends,
            obs=sim.obs, tracer=sim.tracer,
            daemons={f"backend{b.index}" if b.index else "server": [b.rpc_server]
                     for b in backends},
        )

    # -- the run's daemons ---------------------------------------------------------

    def register(self, name: str, daemon) -> None:
        """Enter ``daemon`` (``stop()``, and ``crash()``/``restart()`` if
        it can die) under ``name``, the target a fault's crash names.
        ``backendN`` holds nfsd N and its server proxy: they go down
        together."""
        self.daemons.setdefault(name, []).append(daemon)

    def __enter__(self) -> "Testbed":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        try:
            self.close()
        except SimError:
            if exc is None:  # a run that raised keeps its own error
                raise

    def close(self) -> None:
        """End the run: close the fault plan, stop every daemon — the
        last registered first, so client proxies go before the servers
        they talk to — and drain.  Raises ``SimError`` naming what is
        left unless no process is alive and no event pending."""
        if self.net.fault_plan is not None:
            self.net.fault_plan.close()
        for group in reversed(self.daemons.values()):
            for daemon in reversed(group):
                daemon.stop()
        self.sim.run()
        alive = Counter(proc.name for proc in self.sim.processes)
        if alive or self.sim.peek() != float("inf"):
            raise SimError(f"the closed run is not empty: processes alive "
                           f"{dict(sorted(alive.items()))}, next event at "
                           f"{self.sim.peek()}")

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

    def set_rtt(self, rtt: float) -> None:
        """Reconfigure the emulated WAN RTT (re-running NIST Net)."""
        self.router.set_rtt(rtt)

    @property
    def measured_rtt(self) -> float:
        return self.net.rtt("client", "server")

    def run(self, generator, name: str = "workload"):
        """Spawn a process and run the simulation until it completes."""
        proc = self.sim.spawn(generator, name=name)
        return self.sim.run_until_complete(proc)
