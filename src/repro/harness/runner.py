"""Experiment runner.

Every run builds a **fresh** testbed (cold caches — the paper unmounts
and flushes between runs), mounts one setup, executes one workload, and
collects:

- per-phase and total virtual runtimes,
- the end-of-run write-back time (reported separately, like the paper),
- per-account CPU-utilization series from both hosts' ledgers
  (Figs. 5–6),
- cache/proxy statistics for analysis, populated from a
  :class:`repro.obs.Registry` snapshot (``telemetry=True``, the
  default) — every layer reports through the same registry instead of
  hand-collected dicts,
- optionally (``tracing=True``) the full causal span trace, exportable
  as Chrome-trace JSON via :meth:`ExperimentResult.trace_json`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.setups import PROXY_CACHE_SETUPS, SETUP_BUILDERS, SUITES, Mount
from repro.core.topology import Testbed
from repro.faults import FaultPlan, resolve_fault_preset
from repro.sim import ProcessDied
from repro.workloads.iozone import IOzoneReadReread
from repro.workloads.mab import ModifiedAndrewBenchmark
from repro.workloads.postmark import PostMark, PostMarkConfig
from repro.workloads.seismic import Seismic, SeismicConfig


@dataclass
class ExperimentResult:
    setup: str
    rtt: float
    total: float
    phases: Dict[str, float] = field(default_factory=dict)
    writeback_seconds: float = 0.0
    writeback_bytes: int = 0
    client_cpu: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    server_cpu: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: registry snapshot (component -> metric -> value)
    stats: Dict[str, object] = field(default_factory=dict)
    #: the testbed's span tracer when the run was traced (tracing=True)
    tracer: Optional[object] = None
    #: bottleneck-attribution report (repro.obs.profile) when the run
    #: was profiled (profile=True)
    profile: Optional[Dict[str, object]] = None

    def trace_json(self, indent: Optional[int] = None) -> str:
        """The run's Chrome-trace export (requires ``tracing=True``)."""
        if self.tracer is None:
            raise ValueError("run was not traced; pass tracing=True")
        return self.tracer.to_json(indent=indent)

    def cpu_mean(self, side: str, account: str) -> float:
        series = (self.client_cpu if side == "client" else self.server_cpu).get(account, [])
        if not series:
            return 0.0
        return sum(pct for _t, pct in series) / len(series)


#: accounts whose utilization we sample (proxy == SGFS/GFS proxies and
#: their crypto; sfsd/sfssd == SFS daemons; ssh == tunnel endpoints).
_CPU_ACCOUNTS = ("proxy", "sfsd", "sfssd", "ssh", "sshd", "kernel-nfs", "app")
#: width of one utilization sample, in virtual seconds
_CPU_WINDOW = 5.0


def install_faults(tb: Testbed, faults, fault_seed: str) -> Optional[FaultPlan]:
    """Arm ``faults`` (preset name, spec or None) on a built testbed and
    return the plan, if any.  A crash event naming no daemon of
    ``tb.daemons`` that can crash raises ``ValueError`` before the run."""
    spec = resolve_fault_preset(faults)
    if spec is None:
        return None
    plan = FaultPlan(tb.sim, spec, seed=fault_seed)
    plan.schedule(tb.daemons)
    return plan.install(tb.net)


def apply_fault_timeouts(plan: Optional[FaultPlan], mount: Mount) -> None:
    """Give a mount's retransmission timers teeth under ``plan``: silent
    loss must trigger same-xid retries rather than waiting on the stream
    RTO chain."""
    if plan is None:
        return
    spec = plan.spec
    if spec.client_timeo is not None and hasattr(mount.client, "timeo"):
        mount.client.timeo = spec.client_timeo
    if spec.proxy_timeo is not None and hasattr(mount.client_proxy, "upstream_timeo"):
        mount.client_proxy.upstream_timeo = spec.proxy_timeo


def collect(result, tb: Testbed, plan: Optional[FaultPlan], tracing, profile,
            t0: float, t_end: float):
    """Fill a run's result with what the testbed observed: the registry
    snapshot, the fault plan's packet statistics, the tracer, and the
    bottleneck-attribution report over ``[t0, t_end]``.

    A run in which some process died of an exception nobody observed
    has no result: :class:`~repro.sim.ProcessDied` names the first."""
    for proc in tb.sim.unobserved_deaths():
        raise ProcessDied(proc.name) from proc.completion.exception
    result.stats.update(tb.obs.snapshot())
    if plan is not None:
        result.stats["faults"] = dict(plan.stats)
    if tracing:
        result.tracer = tb.tracer
    if profile:
        from repro.obs.profile import build_report

        kwargs = profile if isinstance(profile, dict) else {}
        result.profile = build_report(tb, t0=t0, t_end=t_end, **kwargs)
    return result


def check_scenario(setup: str, clients: int = 1, *, disk_cache: bool = False,
                   cache_capacity: Optional[int] = None, streams: int = 1,
                   servers: int = 1, replicas: int = 1,
                   stagger: float = 0.0, session_tickets: bool = False,
                   reconnect_interval: Optional[float] = None,
                   delegation_lifetime: Optional[float] = None,
                   fleet: bool = False) -> None:
    """Raise ``ValueError`` unless this point of setup x options exists.

    The one statement of what each setup supports, called by
    :func:`run_workload` and :func:`repro.harness.fleet.run_fleet`
    (``fleet=True``) before anything is built: an option the stack has
    no part for is refused, never ignored."""
    if setup not in SETUP_BUILDERS:
        raise ValueError(
            f"unknown setup {setup!r}; setups are {sorted(SETUP_BUILDERS)}")
    if clients < 1:
        raise ValueError("fleet needs at least one client")
    if fleet and setup in ("sfs", "gfs-ssh"):
        raise ValueError(f"{setup} is a single-session design; fleets unsupported")
    secure = setup in SUITES
    # the proxy pair with a dialed channel of its own: what sub-channels,
    # session cycling and grid legs are made of
    proxied = secure or setup == "gfs"
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if not 1 <= replicas <= servers:
        raise ValueError(f"replicas must be in [1, servers]; got {replicas}")
    if streams < 1:
        raise ValueError("streams must be >= 1")
    if streams > 1 and not proxied:
        raise ValueError("streams applies only to proxied gfs/sgfs setups")
    if disk_cache and setup not in PROXY_CACHE_SETUPS:
        raise ValueError("disk_cache applies only to proxied setups")
    if cache_capacity is not None and not proxied:
        raise ValueError("cache_capacity applies only to proxied gfs/sgfs setups")
    if servers > 1 and not proxied:
        raise ValueError("sharded data plane (servers > 1) requires a proxied setup")
    if stagger < 0:
        raise ValueError("stagger must be >= 0")
    if session_tickets and not secure:
        raise ValueError("session_tickets requires a secure (sgfs*) setup")
    if reconnect_interval is not None:
        if not proxied:
            raise ValueError("reconnect_interval requires a proxied setup")
        if reconnect_interval <= 0:
            raise ValueError("reconnect_interval must be positive")
    if delegation_lifetime is not None:
        if not secure:
            raise ValueError("delegation_lifetime requires a secure (sgfs*) setup")
        if delegation_lifetime <= 0:
            raise ValueError("delegation_lifetime must be positive")


def run_workload(
    setup: str,
    workload_factory: Callable[[], object],
    rtt: float = 0.0,
    cal: Calibration = DEFAULT_CALIBRATION,
    setup_kwargs: Optional[dict] = None,
    telemetry: bool = True,
    tracing: bool = False,
    profile: bool = False,
    faults=None,
    fault_seed: str = "faults",
) -> ExperimentResult:
    """Build testbed + mount + run one workload; return the result.

    Units: every duration in the result (``total``, ``phases``,
    ``writeback_seconds``, ``rtt``) is **virtual seconds** from the
    deterministic simulation — wall-clock time plays no part — and every
    size (``writeback_bytes``, byte counters in ``stats``) is bytes.

    Determinism: the run is a pure function of its arguments.  Two
    calls with identical arguments produce bit-identical results —
    same virtual times, same stats, same fault schedule — because all
    randomness flows from seeded DRBG streams and every queue in the
    stack is FIFO.  For N concurrent clients, see
    :func:`repro.harness.fleet.run_fleet`.

    ``telemetry`` (default on) populates ``result.stats`` from the
    cross-layer metrics registry; ``tracing`` additionally records
    causal spans (``result.tracer`` / ``result.trace_json()``).
    ``profile=True`` implies both and attaches the bottleneck
    attribution report (``result.profile``, see
    :func:`repro.obs.profile.build_report`); passing a dict instead of
    ``True`` forwards it as keyword arguments to ``build_report``
    (e.g. ``profile={"window": 2.0, "top": 5}``).  None of the three
    affects virtual-time results.

    ``faults`` turns the network adversarial: a preset name from
    :data:`repro.faults.FAULT_PRESETS` (e.g. ``"lossy-wan"``) or a
    :class:`repro.faults.FaultSpec`.  The schedule is fully determined
    by ``fault_seed``, so same-seed runs are byte-identical.  The plan's
    packet statistics land in ``result.stats["faults"]``.

    The call returns once :meth:`Testbed.close` has ended the run: no
    process of it alive, no event pending.
    """
    kw = setup_kwargs or {}
    check_scenario(setup, disk_cache=kw.get("disk_cache", False),
                   cache_capacity=kw.get("cache_capacity"),
                   streams=kw.get("streams", 1),
                   session_tickets=kw.get("session_tickets", False))
    if profile:
        telemetry = tracing = True
    tb = Testbed.build(rtt=rtt, cal=cal, telemetry=telemetry, tracing=tracing,
                       profile=profile)
    with tb:
        workload = workload_factory()
        if hasattr(workload, "prepare"):
            workload.prepare(tb)
        mount: Mount = SETUP_BUILDERS[setup](tb, **kw)

        # The mount comes first: faults are armed and the clock starts on
        # a mounted session (the paper reports runtimes without the mount).
        plan = install_faults(tb, faults, fault_seed)
        apply_fault_timeouts(plan, mount)
        t0 = tb.sim.now
        tb.run(workload.run(mount), name=f"{setup}-workload")
        total = tb.sim.now - t0
        wb_seconds, _wb_blocks, wb_bytes = tb.run(mount.finish(), name="finish")
        t_end = tb.sim.now

        result = ExperimentResult(
            setup=setup,
            rtt=rtt,
            total=total,
            phases=dict(getattr(workload, "results", {})),
            writeback_seconds=wb_seconds,
            writeback_bytes=wb_bytes,
        )
        for account in _CPU_ACCOUNTS:
            cl = tb.client.cpu.ledger.utilization_series(account, t_end, _CPU_WINDOW)
            sv = tb.server.cpu.ledger.utilization_series(account, t_end, _CPU_WINDOW)
            if any(pct for _t, pct in cl):
                result.client_cpu[account] = cl
            if any(pct for _t, pct in sv):
                result.server_cpu[account] = sv
        return collect(result, tb, plan, tracing, profile, 0.0, t_end)


# -- canned experiments ------------------------------------------------------


def run_iozone(setup: str, rtt: float = 0.0, file_size: int = 16 * 1024 * 1024,
               cal: Calibration = DEFAULT_CALIBRATION,
               setup_kwargs: Optional[dict] = None,
               **obs_kwargs) -> ExperimentResult:
    return run_workload(
        setup, lambda: IOzoneReadReread(file_size=file_size), rtt=rtt, cal=cal,
        setup_kwargs=setup_kwargs, **obs_kwargs,
    )


def run_iozone_wr(setup: str, rtt: float = 0.0, file_size: int = 256 * 1024,
                  cal: Calibration = DEFAULT_CALIBRATION,
                  setup_kwargs: Optional[dict] = None,
                  **obs_kwargs) -> ExperimentResult:
    from repro.workloads.iozone import IOzoneWriteRead

    return run_workload(
        setup, lambda: IOzoneWriteRead(file_size=file_size), rtt=rtt, cal=cal,
        setup_kwargs=setup_kwargs, **obs_kwargs,
    )


def run_postmark(setup: str, rtt: float = 0.0,
                 config: Optional[PostMarkConfig] = None,
                 cal: Calibration = DEFAULT_CALIBRATION,
                 setup_kwargs: Optional[dict] = None,
                 **obs_kwargs) -> ExperimentResult:
    return run_workload(
        setup, lambda: PostMark(config), rtt=rtt, cal=cal,
        setup_kwargs=setup_kwargs, **obs_kwargs,
    )


def run_mab(setup: str, rtt: float = 0.0,
            cal: Calibration = DEFAULT_CALIBRATION,
            setup_kwargs: Optional[dict] = None,
            **obs_kwargs) -> ExperimentResult:
    return run_workload(
        setup, ModifiedAndrewBenchmark, rtt=rtt, cal=cal,
        setup_kwargs=setup_kwargs, **obs_kwargs,
    )


def run_seismic(setup: str, rtt: float = 0.0,
                config: Optional[SeismicConfig] = None,
                cal: Calibration = DEFAULT_CALIBRATION,
                setup_kwargs: Optional[dict] = None,
                **obs_kwargs) -> ExperimentResult:
    return run_workload(
        setup, lambda: Seismic(config), rtt=rtt, cal=cal,
        setup_kwargs=setup_kwargs, **obs_kwargs,
    )
