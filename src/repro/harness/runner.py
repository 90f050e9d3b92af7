"""The paper's seat's run, and what every run collects.

A run of the paper's seat (:func:`paper_seat_run`, reached through
:func:`repro.harness.run`) builds a **fresh** testbed, mounts one setup,
executes one workload, and collects:

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

from repro.core.setups import SETUP_BUILDERS, Mount
from repro.core.topology import Testbed
from repro.faults import FaultPlan, resolve_fault_preset
from repro.sim import ProcessDied


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


def paper_seat_run(s, workload_factory: Callable[[], object], options: dict,
                   telemetry: bool, tracing: bool, profile) -> ExperimentResult:
    """:func:`repro.harness.run` for the paper's seat: build the testbed,
    mount ``s.setup`` on host ``client`` through its
    :data:`SETUP_BUILDERS` builder, given ``options``, and run one
    workload."""
    tb = Testbed.build(rtt=s.rtt, cal=s.cal, telemetry=telemetry, tracing=tracing,
                       profile=profile)
    with tb:
        workload = workload_factory()
        if hasattr(workload, "prepare"):
            workload.prepare(tb)
        mount: Mount = SETUP_BUILDERS[s.setup](tb, **options)

        # The mount comes first: faults are armed and the clock starts on
        # a mounted session (the paper reports runtimes without the mount).
        plan = install_faults(tb, s.faults, s.fault_seed)
        apply_fault_timeouts(plan, mount)
        t0 = tb.sim.now
        tb.run(workload.run(mount), name=f"{s.setup}-workload")
        total = tb.sim.now - t0
        wb_seconds, _wb_blocks, wb_bytes = tb.run(mount.finish(), name="finish")
        t_end = tb.sim.now

        result = ExperimentResult(
            setup=s.setup,
            rtt=s.rtt,
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
