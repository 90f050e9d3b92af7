"""CPU resource with per-activity time accounting.

The paper reports the *user CPU time* consumed by the user-level
proxies/daemons, sampled every 5 seconds during the IOzone run (Figs. 5
and 6).  To reproduce that, every simulated host owns a :class:`CPU`;
code that models computation calls ``yield cpu.consume(seconds, account)``
which (a) serializes compute through a core like a real CPU and (b)
records the busy interval under the given account name in a
:class:`CpuLedger`.

The ledger can then answer "what fraction of the window [t, t+5) was
spent in account 'proxy'?" — exactly the series the paper plots.

The CPU is a deterministic run queue served by ``cores`` cores.  The
paper's testbed is 1-vCPU VMs, so ``cores=1`` is the default; there the
rules below reduce to one strict-arrival-order FIFO (every waiter, pinned
or not, contends for core 0):

- un-pinned work takes the lowest-numbered idle core, or joins a global
  FIFO when all cores are busy;
- pinned work (``consume(..., affinity=k)``) runs on core ``k % N``
  only, queueing behind that core's other pinned work — how the server
  proxy keeps each session's cipher stream on one core;
- when a core frees, it serves whichever eligible waiter (its pinned
  lane vs. the global queue) enqueued first — stable (ready-time, seq)
  dispatch, so two same-seed runs schedule identically.

The ledger records which core served each interval; per-core interval
lists stay sorted (one core runs one thing at a time), keeping windowed
queries exact under parallelism.
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.sim.core import Event, SimError, Simulator
from repro.sim.sync import wait_instruments


class CpuLedger:
    """Records (start, end) busy intervals per account name and core.

    Within one core, intervals are appended in nondecreasing start order
    (a core runs one activity at a time), which keeps queries cheap.

    Accounts are **hierarchical**: ``proxy/seal:aes-256-cbc-sha1`` is a
    sub-account of ``proxy``, and every query for ``proxy`` aggregates
    its own intervals plus all ``proxy/...`` children.  The crypto
    layers charge their bulk/handshake work to sub-accounts so the
    profiler can attribute "how much of the proxy's CPU is cipher work"
    while the paper's utilization figures (which sample the parent
    account) are unchanged.

    A parent→children index, updated when an account first records, maps
    each slash-boundary prefix to the ledger keys beneath it, so
    hierarchical queries never rescan the whole key space (profiler
    report generation used to be quadratic in account count).
    """

    def __init__(self) -> None:
        #: account -> core id -> interval list (sorted per core)
        self._intervals: Dict[str, Dict[int, List[Tuple[float, float]]]] = {}
        #: slash-boundary prefix -> ledger keys at/under it, in
        #: first-record order (matches the old linear-scan order, so
        #: float accumulation order — and thus sums — are unchanged)
        self._children: Dict[str, List[str]] = {}

    def record(self, account: str, start: float, end: float, core: int = 0) -> None:
        if end < start:
            raise SimError(f"negative busy interval for {account!r}")
        if end > start:
            by_core = self._intervals.get(account)
            if by_core is None:
                by_core = self._intervals[account] = {}
                self._index(account)
            by_core.setdefault(core, []).append((start, end))

    def _index(self, account: str) -> None:
        """Register a new ledger key under itself and every ``/`` prefix."""
        self._children.setdefault(account, []).append(account)
        key = account
        while True:
            cut = key.rfind("/")
            if cut < 0:
                return
            key = key[:cut]
            self._children.setdefault(key, []).append(account)

    def accounts(self) -> Iterator[str]:
        return iter(self._intervals)

    def _keys_for(self, account: str) -> List[str]:
        """The ledger keys matching an account: itself + sub-accounts."""
        return self._children.get(account, [])

    def total(self, account: str) -> float:
        """Total busy seconds charged to an account (children included)."""
        return sum(e - s
                   for k in self._keys_for(account)
                   for ivs in self._intervals[k].values()
                   for s, e in ivs)

    def total_exact(self, account: str) -> float:
        """Total busy seconds of one exact ledger key, no children."""
        by_core = self._intervals.get(account)
        if not by_core:
            return 0.0
        return sum(e - s for ivs in by_core.values() for s, e in ivs)

    def totals(self) -> Dict[str, float]:
        """Exact per-key busy totals, sorted by key — the profiler's
        per-account attribution table."""
        return {k: self.total_exact(k) for k in sorted(self._intervals)}

    @staticmethod
    def _overlap(ivs: List[Tuple[float, float]], t0: float, t1: float) -> float:
        """Overlap of a sorted disjoint interval list with [t0, t1)."""
        # Find the first interval that could overlap (end > t0).
        starts = [s for s, _ in ivs]
        i = bisect.bisect_left(starts, t0)
        # Step back: the previous interval may straddle t0.
        while i > 0 and ivs[i - 1][1] > t0:
            i -= 1
        busy = 0.0
        for s, e in ivs[i:]:
            if s >= t1:
                break
            busy += max(0.0, min(e, t1) - max(s, t0))
        return busy

    def _busy_one(self, key: str, t0: float, t1: float) -> float:
        by_core = self._intervals.get(key)
        if not by_core:
            return 0.0
        busy = 0.0
        for ivs in by_core.values():
            busy += self._overlap(ivs, t0, t1)
        return busy

    def busy_in_window(self, account: str, t0: float, t1: float) -> float:
        """Busy core-seconds of ``account`` (plus sub-accounts) in [t0, t1).

        Summing per-(key, core) overlaps is exact because one core never
        runs two activities at once — intervals within a core are
        disjoint in time.  With N cores the result can reach
        ``N * (t1 - t0)``.
        """
        if t1 <= t0:
            return 0.0
        return sum(self._busy_one(k, t0, t1) for k in self._keys_for(account))

    def busy_all_in_window(self, t0: float, t1: float) -> float:
        """Busy core-seconds of every account in [t0, t1)."""
        if t1 <= t0:
            return 0.0
        return sum(self._busy_one(k, t0, t1) for k in self._intervals)

    def busy_by_core(self, t0: float, t1: float) -> Dict[int, float]:
        """Busy seconds per core in [t0, t1) — the profiler's per-core
        utilization rows.  Only cores that ever recorded appear."""
        out: Dict[int, float] = {}
        if t1 <= t0:
            return out
        for by_core in self._intervals.values():
            for core, ivs in by_core.items():
                busy = self._overlap(ivs, t0, t1)
                if busy > 0.0:
                    out[core] = out.get(core, 0.0) + busy
        return out

    def utilization_series(
        self, account: str, t_end: float, window: float = 5.0
    ) -> List[Tuple[float, float]]:
        """Per-window utilization percentages.

        Returns ``[(window_end_time, percent), ...]`` covering [0, t_end),
        mirroring the paper's every-5-seconds sampling of user CPU time.
        """
        out: List[Tuple[float, float]] = []
        t = 0.0
        while t < t_end:
            hi = min(t + window, t_end)
            span = hi - t
            pct = 100.0 * self.busy_in_window(account, t, hi) / span if span > 0 else 0.0
            out.append((hi, pct))
            t += window
        return out


class _Job(Event):
    """One busy interval of one core, and the event its caller waits on.

    The CPU schedules the job when it grants a core; firing books the
    interval and passes the core on *before* the waiting process
    resumes, so the core comes back whether or not anyone still waits.
    """

    __slots__ = ("cpu", "account", "seconds", "core", "start")

    def __init__(self, cpu: "CPU", account: str, seconds: float):
        super().__init__(cpu.sim, cpu._job_name)
        self._value = None  # like a Timeout: certain to fire, carries nothing
        self.cpu = cpu
        self.account = account
        self.seconds = seconds

    def _fire(self) -> None:
        cpu = self.cpu
        cpu.ledger.record(self.account, self.start, self.sim.now, core=self.core)
        cpu._release(self.core)
        super()._fire()


class CPU:
    """One or more cores that serialize and account simulated compute.

    ``consume(seconds, account)`` returns a generator suitable for
    ``yield from`` inside a process: it queues for a core (FIFO),
    holds it for ``seconds`` of virtual time, and logs the busy interval.

    A ``speed`` factor scales all durations — a host twice as fast
    executes the same work in half the virtual time — which is how the
    calibration layer expresses different machine classes without
    touching call sites.

    See the module docstring for the dispatch rules.
    """

    def __init__(self, sim: Simulator, name: str = "cpu", speed: float = 1.0,
                 cores: int = 1):
        if speed <= 0:
            raise SimError("CPU speed must be positive")
        if cores < 1:
            raise SimError("CPU needs at least one core")
        self.sim = sim
        self.name = name
        self.speed = speed
        self.cores = cores
        self.ledger = CpuLedger()
        #: queued acquisitions (contention indicator, mirrors Semaphore)
        self.wait_count = 0
        self._job_name = f"busy:{name}.core"
        self._busy = [False] * cores
        #: global FIFO of un-pinned waiters: (job, enqueued_at, seq)
        self._run_queue: Deque[Tuple[_Job, float, int]] = deque()
        #: per-core FIFO lanes for affinity-pinned waiters
        self._lanes: List[Deque[Tuple[_Job, float, int]]] = [
            deque() for _ in range(cores)
        ]
        #: arrival ticket; with nondecreasing enqueue times this
        #: totally orders waiters by (ready-time, seq)
        self._ticket = itertools.count()
        # sync/sem_wait histogram and sync/sem_waits counter, bound lazily
        self._h_wait = self._c_wait = None

    def consume(self, seconds: float, account: str = "other",
                affinity: Optional[int] = None):
        """Generator: occupy a core for ``seconds / speed`` virtual time.

        ``affinity`` pins the work to core ``affinity % cores``, so a
        session's cipher stream stays on one core while other sessions'
        work overlaps.

        The CPU owns the interval, not the caller: one event, scheduled
        the moment a core is granted, books the ledger and hands the
        core on.  A caller interrupted while queued or running stops
        waiting, but its interval still runs and is booked — work handed
        to a core is not recalled, and the core always comes back.
        """
        if seconds < 0:
            raise SimError(f"negative CPU time: {seconds}")
        job = _Job(self, account, seconds / self.speed)
        if affinity is not None:
            core = affinity % self.cores
            if not self._busy[core]:
                self._start(job, core)
            else:
                self._note_wait()
                self._lanes[core].append((job, self.sim.now, next(self._ticket)))
        elif False in self._busy:
            self._start(job, self._busy.index(False))  # lowest-numbered idle core
        else:
            self._note_wait()
            self._run_queue.append((job, self.sim.now, next(self._ticket)))
        yield job

    # -- dispatch -----------------------------------------------------------

    def _start(self, job: _Job, core: int) -> None:
        """Grant ``core`` to ``job`` now: its interval is scheduled at
        the grant, so grants made in one instant — at a call or inside a
        release — finish in the order they were made."""
        self._busy[core] = True
        job.core = core
        job.start = self.sim.now
        self.sim._schedule(job.seconds, job)

    def _release(self, core: int) -> None:
        """Hand the freed core to the earliest eligible waiter.

        Eligible waiters are the core's own pinned lane and the global
        run queue; the one that enqueued first (smaller ticket, i.e.
        earlier (ready-time, seq)) wins — deterministic, no barging.
        """
        lane = self._lanes[core]
        shared = self._run_queue
        if lane and shared:
            queue = lane if lane[0][2] <= shared[0][2] else shared
        elif lane:
            queue = lane
        elif shared:
            queue = shared
        else:
            self._busy[core] = False
            return
        job, enqueued_at, _seq = queue.popleft()
        if self._h_wait is not None:
            self._h_wait.observe(self.sim.now - enqueued_at)
        self._start(job, core)

    def _note_wait(self) -> None:
        """Count a queued acquisition, mirroring Semaphore's telemetry
        (same ``sync`` metric family, so fleet dashboards don't fork)."""
        self.wait_count += 1
        obs = self.sim.obs
        if obs.enabled:
            if self._c_wait is None:
                self._h_wait, self._c_wait = wait_instruments(
                    obs, "sem", f"{self.name}.core")
            self._c_wait.inc()

    def busy_total(self, account: str) -> float:
        return self.ledger.total(account)
