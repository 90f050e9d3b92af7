"""Deterministic packet-level fault injection.

A :class:`FaultPlan` is the network's adversary: installed on a
:class:`repro.net.network.Network`, it is consulted once per packet and
rules it dropped, corrupted, duplicated, delayed, or passed.  All
randomness comes from :class:`repro.crypto.drbg.Drbg` streams forked
from one seed, and draws happen in virtual-time event order, so the
same ``(topology, workload, seed)`` triple always produces the same
drop schedule — faulty runs replay bit-for-bit.

Determinism rules:

- exactly **one** uniform draw per packet when any probabilistic fault
  is enabled (the draw is partitioned into drop/corrupt/duplicate/delay
  bands); zero draws when all rates are 0, so flap-only or crash-only
  plans perturb nothing else;
- link **flaps** are pure virtual-time window checks (no entropy);
- **crash/restart** events fire at fixed virtual times via the plan's
  scheduler;
- a corrupted segment fails its checksum and is discarded — the same
  outcome as a drop, with no entropy of its own.

Loopback traffic (single-node paths) is exempt: faults model the WAN,
not the host's own kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.drbg import Drbg
from repro.obs.schema import zeros
from repro.sim.core import Interrupt
from repro.sim.process import Process


@dataclass(frozen=True)
class LinkFlap:
    """A window of total loss on every path, [start, start + duration)."""

    start: float
    duration: float


@dataclass(frozen=True)
class CrashEvent:
    """Take ``target`` down at virtual time ``at`` for ``down_for`` seconds.

    ``target`` names daemons registered on the run's testbed — e.g.
    ``"server"``, ``"server-proxy"`` or ``"backend1"``.
    """

    at: float
    target: str
    down_for: float


@dataclass(frozen=True)
class FaultSpec:
    """The static description of an adversarial network."""

    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    #: extra one-way delay drawn uniformly from [delay_min, delay_max)
    delay_min: float = 0.005
    delay_max: float = 0.05
    #: modeled sender RTO for lost reliable-transport segments
    rto_base: float = 0.2
    rto_max: float = 2.0
    #: explicit loss windows, plus an optional periodic generator
    flaps: Tuple[LinkFlap, ...] = ()
    flap_period: float = 0.0
    flap_duration: float = 0.0
    flap_count: int = 0
    #: scheduled process crash/restart events
    crashes: Tuple[CrashEvent, ...] = ()
    #: reply timeouts the harness applies to the NFS client and the
    #: client proxy's upstream forwarding when this spec is active
    client_timeo: Optional[float] = None
    proxy_timeo: Optional[float] = None

    def all_flaps(self) -> Tuple[LinkFlap, ...]:
        flaps = list(self.flaps)
        for i in range(self.flap_count):
            flaps.append(
                LinkFlap(start=(i + 1) * self.flap_period, duration=self.flap_duration)
            )
        return tuple(sorted(flaps, key=lambda f: f.start))

    @property
    def total_rate(self) -> float:
        return (
            self.drop_rate + self.corrupt_rate + self.duplicate_rate + self.delay_rate
        )


class FaultPlan:
    """A seeded, installable instance of a :class:`FaultSpec`."""

    def __init__(self, sim, spec: FaultSpec, seed="faults"):
        if spec.total_rate >= 1.0:
            raise ValueError("fault rates must sum to < 1")
        self.sim = sim
        self.spec = spec
        root = Drbg(seed) if not isinstance(seed, Drbg) else seed
        self._rng = root.fork("packets")
        self._flaps = spec.all_flaps()
        self._net = None
        #: the crash/restart processes :meth:`schedule` spawned
        self._procs: List[Process] = []
        self.stats: Dict[str, int] = zeros("faults")

    # -- lifecycle -------------------------------------------------------

    def install(self, net) -> "FaultPlan":
        net.fault_plan = self
        self._net = net
        return self

    def close(self) -> None:
        """The run is over: the plan leaves the network, and each
        crash/restart process still waiting is interrupted, to stop where
        it is (a target it crashed stays down) and take its timer off the
        queue as it resumes."""
        for proc in self._procs:
            proc.interrupt("the run ended")
        if self._net is not None and self._net.fault_plan is self:
            self._net.fault_plan = None
        self._net = None

    def schedule(self, daemons: Dict[str, List]) -> None:
        """Spawn crash/restart processes for this plan's CrashEvents.

        ``daemons`` is ``Testbed.daemons``: an event takes down every
        daemon of its target's name.  An event naming no target whose
        daemons can all crash raises ``ValueError`` before anything is
        spawned: a crash aimed at nothing would run clean, saying nothing.
        """
        crashable = {name for name, group in daemons.items()
                     if all(hasattr(d, "crash") for d in group)}
        missing = sorted({ev.target for ev in self.spec.crashes} - crashable)
        if missing:
            raise ValueError(f"no crash target named {', '.join(missing)}; "
                             f"this run has {', '.join(sorted(crashable))}")
        self._procs = [
            self.sim.spawn(self._crash_proc(ev, daemons[ev.target]),
                           name=f"fault-crash:{ev.target}")
            for ev in self.spec.crashes
        ]

    def _crash_proc(self, ev: CrashEvent, group: List):
        timer = self.sim.timeout(ev.at)
        try:
            yield timer
            self.stats["crashes"] += 1
            for daemon in group:
                daemon.crash()
            timer = self.sim.timeout(ev.down_for)
            yield timer
            for daemon in group:
                daemon.restart()
        except Interrupt:  # :meth:`close`
            self.sim.cancel(timer)

    # -- per-packet decision ---------------------------------------------

    def verdict(self, path, nbytes: int, kind: str) -> Tuple[str, float]:
        """Classify one packet: (verdict, extra_delay).

        Verdicts: ``"pass"``, ``"drop"``, ``"corrupt"``, ``"duplicate"``,
        ``"delay"`` (extra_delay > 0 only for delay).
        """
        self.stats["packets"] += 1
        now = self.sim.now
        for flap in self._flaps:
            if flap.start <= now < flap.start + flap.duration:
                self.stats["flap_drops"] += 1
                return ("drop", 0.0)
            if now < flap.start:
                break
        spec = self.spec
        if spec.total_rate == 0.0:
            return ("pass", 0.0)
        u = self._rng.random()
        edge = spec.drop_rate
        if u < edge:
            self.stats["dropped"] += 1
            return ("drop", 0.0)
        edge += spec.corrupt_rate
        if u < edge:
            self.stats["corrupted"] += 1
            return ("corrupt", 0.0)
        edge += spec.duplicate_rate
        if u < edge:
            self.stats["duplicated"] += 1
            return ("duplicate", 0.0)
        edge += spec.delay_rate
        if u < edge:
            self.stats["delayed"] += 1
            extra = spec.delay_min + self._rng.random() * (
                spec.delay_max - spec.delay_min
            )
            return ("delay", extra)
        return ("pass", 0.0)

    def rto(self, attempt: int) -> float:
        """Modeled sender retransmission timeout, doubling per attempt."""
        return min(self.spec.rto_max, self.spec.rto_base * (2.0 ** attempt))

    def note_retransmit(self) -> None:
        self.stats["retransmits"] += 1
