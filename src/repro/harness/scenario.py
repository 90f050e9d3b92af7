"""One experiment as one value: :class:`Scenario`, and :func:`run`.

Each of the paper's §6 experiments is one point: a setup (§6.1's eight)
x an RTT x a workload, plus cache and scale-out options.  A
:class:`Scenario` names the point, :meth:`Scenario.check` says whether
it exists, and :func:`run` runs a workload there on a fresh testbed::

    from repro.harness import Scenario, run
    from repro.workloads.postmark import PostMark
    result = run(Scenario("sgfs", rtt=0.040, disk_cache=True), PostMark)

``clients=None`` (the default) is the paper's one user on host
``client``; ``clients=N`` is a fleet of N seats ``c0`` … ``cN-1``.  The
two are different runs (seat names, session seed, when the clock
starts), so a fleet of one is not the paper's seat.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, fields
from typing import Callable, Optional

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.setups import (
    DEFAULT_BLOCK_SIZE,
    PROXY_CACHE_SETUPS,
    SETUP_BUILDERS,
    SUITES,
)
from repro.harness.fleet import fleet_run
from repro.harness.runner import paper_seat_run


@dataclass(frozen=True)
class Scenario:
    """One point of setup x options.  Times are virtual seconds, sizes
    bytes; every field's default is the paper's behaviour, and a field at
    its default is never refused."""

    #: a :data:`~repro.core.setups.SETUP_BUILDERS` name: ``nfs-v3`` /
    #: ``nfs-v4`` (kernel clients straight at the server), ``gfs``
    #: (proxied, plain channel), ``sgfs-sha`` / ``sgfs-rc`` / ``sgfs-aes``
    #: / ``sgfs`` (proxied, TLS sessions), ``gfs-ssh`` and ``sfs``
    #: (single-session designs: no fleets)
    setup: str
    _: KW_ONLY
    #: emulated WAN round-trip time (0 = the LAN)
    rtt: float = 0.0
    cal: Calibration = DEFAULT_CALIBRATION
    #: a :data:`repro.faults.FAULT_PRESETS` name (e.g. ``"lossy-wan"``) or
    #: a :class:`repro.faults.FaultSpec`; its schedule is a pure function
    #: of ``fault_seed``, and its packet statistics land in
    #: ``result.stats["faults"]``
    faults: object = None
    fault_seed: str = "faults"

    # -- the client side of a session ------------------------------------------
    #: the client proxy keeps a block cache on its disk (proxied setups)
    disk_cache: bool = False
    #: that cache's size (gfs/sgfs; None = the calibration's)
    cache_capacity: Optional[int] = None
    #: the kernel client's page cache (None = the calibration's)
    cache_bytes: Optional[int] = None
    #: False makes the paper's sgfs proxy write through
    write_back: bool = True
    #: parallel proxy-to-proxy channels per upstream leg (gfs/sgfs): bulk
    #: block traffic round-robins across them and the read-ahead and
    #: write-behind windows grow to the RTT.  Secure setups with N > 1
    #: force session tickets on, so channels resume rather than repeat
    #: the full handshake.  1 is the paper's stop-and-wait proxy.
    streams: int = 1
    #: TLS session resumption between the proxies (sgfs*)
    session_tickets: bool = False

    # -- a fleet: N seats against one server ---------------------------------
    #: None = the paper's seat; N = N seats, each with its own host,
    #: kernel client, client proxy, TLS session, proxy cache, DRBG stream,
    #: grid identity and account (secure setups), and subdirectory
    #: ``/c{i}`` of the shared export.  The workload factory may then take
    #: the seat's index (per-seat workload mixes).
    clients: Optional[int] = None
    #: seat i starts ``stagger * i`` after seat 0 (0 = together)
    stagger: float = 0.0
    #: what every session key and TLS random is forked from
    session_seed: str = "fleet"
    #: the server's cores; each secure session's record crypto is pinned
    #: to one of them
    server_cores: int = 1
    #: every seat cycles its upstream session this often (proxied setups;
    #: with tickets on, the re-handshakes resume)
    reconnect_interval: Optional[float] = None
    #: N > 1 shards the data plane (proxied setups): N backend servers,
    #: each behind its own server proxy, one metadata service at home
    #: mapping each grid-created file's ``grid_block_size`` ranges
    #: round-robin across them, every seat striping over N legs
    #: (:mod:`repro.grid`)
    servers: int = 1
    #: each block is written to this many consecutive backends, so a
    #: crashed backend's blocks stay readable
    replicas: int = 1
    grid_block_size: int = DEFAULT_BLOCK_SIZE
    #: SSO (sgfs*): each session authenticates with a short-lived limited
    #: proxy certificate of this lifetime, delegated from the seat's
    #: long-term identity.  A reconnect after expiry first re-delegates
    #: (:data:`~repro.gsi.proxy.DELEGATION_CPU_SECONDS`, a gridmap
    #: re-entry that bumps its epoch), then handshakes; counted by
    #: ``gsi.delegations`` / ``gsi.renewals``.
    delegation_lifetime: Optional[float] = None

    def check(self) -> None:
        """Raise ``ValueError`` unless this point exists: a field away
        from its default on a path with no part for it is refused before
        anything is built, never ignored."""
        setup = self.setup
        if setup not in SETUP_BUILDERS:
            raise ValueError(
                f"unknown setup {setup!r}; setups are {sorted(SETUP_BUILDERS)}")
        secure = setup in SUITES
        # the proxy pair with a dialed channel of its own: what sub-channels,
        # session cycling and grid legs are made of
        proxied = secure or setup == "gfs"
        if self.clients is None:
            for name in _FLEET_FIELDS:
                if getattr(self, name) != _DEFAULTS[name]:
                    raise ValueError(f"{name} requires a fleet (clients=N)")
            if not self.write_back and not secure:
                raise ValueError("write_back applies only to sgfs setups")
        else:
            if self.clients < 1:
                raise ValueError("fleet needs at least one client")
            if setup in ("sfs", "gfs-ssh"):
                raise ValueError(f"{setup} is a single-session design; fleets unsupported")
            if not self.write_back:
                raise ValueError("unsupported on a fleet: write_back=False")
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if not 1 <= self.replicas <= self.servers:
            raise ValueError(f"replicas must be in [1, servers]; got {self.replicas}")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if self.streams > 1 and not proxied:
            raise ValueError("streams applies only to proxied gfs/sgfs setups")
        if self.disk_cache and setup not in PROXY_CACHE_SETUPS:
            raise ValueError("disk_cache applies only to proxied setups")
        if self.cache_capacity is not None and not proxied:
            raise ValueError("cache_capacity applies only to proxied gfs/sgfs setups")
        if self.servers > 1 and not proxied:
            raise ValueError("sharded data plane (servers > 1) requires a proxied setup")
        if self.stagger < 0:
            raise ValueError("stagger must be >= 0")
        if self.session_tickets and not secure:
            raise ValueError("session_tickets requires a secure (sgfs*) setup")
        if self.reconnect_interval is not None:
            if not proxied:
                raise ValueError("reconnect_interval requires a proxied setup")
            if self.reconnect_interval <= 0:
                raise ValueError("reconnect_interval must be positive")
        if self.delegation_lifetime is not None:
            if not secure:
                raise ValueError("delegation_lifetime requires a secure (sgfs*) setup")
            if self.delegation_lifetime <= 0:
                raise ValueError("delegation_lifetime must be positive")


_DEFAULTS = {f.name: f.default for f in fields(Scenario)}
#: the fields only a fleet has a part for
_FLEET_FIELDS = ("stagger", "session_seed", "server_cores", "reconnect_interval",
                 "servers", "replicas", "grid_block_size", "delegation_lifetime")
#: the fields the paper's seat hands its builder, each only away from its
#: default (:meth:`Scenario.check` has refused it where the builder has
#: no part for it)
_BUILDER_FIELDS = ("disk_cache", "cache_capacity", "cache_bytes", "write_back",
                   "streams", "session_tickets")


def run(scenario: Scenario, workload_factory: Callable[..., object], *,
        telemetry: bool = True, tracing: bool = False, profile=False):
    """Run the workload ``workload_factory`` builds at ``scenario`` on a
    fresh testbed (cold caches: the paper unmounts and flushes between
    runs) and return an :class:`~repro.harness.runner.ExperimentResult`
    for the paper's seat, a :class:`~repro.harness.fleet.FleetResult`
    for a fleet.

    Every duration in a result is **virtual seconds** of the
    deterministic simulation, every size bytes.  The run is a pure
    function of its arguments: all randomness flows from seeded DRBG
    streams and every queue in the stack is FIFO, so two calls with equal
    arguments give bit-identical results.

    ``telemetry`` (default on) fills ``result.stats`` from the
    cross-layer metrics registry; ``tracing`` also records causal spans
    (``result.tracer``).  ``profile=True`` implies both and attaches the
    bottleneck-attribution report (``result.profile``, see
    :func:`repro.obs.profile.build_report`); a dict instead of ``True``
    is passed to ``build_report`` as keyword arguments (e.g.
    ``profile={"window": 2.0, "top": 5}``).  None of the three affects
    virtual-time results.

    The call returns once :meth:`~repro.core.topology.Testbed.close` has
    ended the run: no process of it alive, no event pending.
    """
    scenario.check()
    if profile:
        telemetry = tracing = True
    if scenario.clients is not None:
        return fleet_run(scenario, workload_factory, telemetry, tracing, profile)
    options = {name: getattr(scenario, name) for name in _BUILDER_FIELDS
               if getattr(scenario, name) != _DEFAULTS[name]}
    return paper_seat_run(scenario, workload_factory, options, telemetry, tracing,
                          profile)
