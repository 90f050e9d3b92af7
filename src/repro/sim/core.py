"""Event loop and virtual clock.

The scheduler has two lanes that together behave exactly like one
calendar queue ordered by ``(time, seq)``:

- a binary heap of ``(time, seq, entry)`` tuples for entries with a
  positive delay, and
- a zero-delay FIFO deque for entries firing "now" — ``succeed()`` /
  ``fail()``, zero-delay timeouts, and process kicks.  Because the
  clock never goes backwards and ``seq`` is a global monotonically
  increasing insertion counter, the deque is sorted by ``(time, seq)``
  by construction and costs O(1) per operation instead of O(log n).

Most events in a run fire at the instant they are scheduled (an RPC
reply succeeding a waiter, a semaphore handing over a slot, a channel
put meeting a getter), so the zero-delay lane carries the bulk of the
traffic and the heap shrinks to genuine future work — transmission and
propagation delays, disk access times, CPU busy intervals.

``step()`` dispatches the globally smallest ``(time, seq)`` entry across
both lanes, so event ordering is bit-identical to the single-heap
implementation this replaced; the determinism guarantees (FIFO
tie-breaking, replayable traces) are unchanged.

Queue entries are any object with ``_when`` / ``_seq`` slots and a
``_fire()`` method.  Events are their own queue entry — the zero-delay
lane stores the event object directly, with no per-entry tuple — and
:class:`repro.sim.process.Process` schedules itself the same way for
process kicks and floor-yields, so neither allocates intermediate
objects on the hot path.

Events are one-shot: they move from *pending* to either *succeeded* or
*failed*, and callbacks registered on them run inline when they fire.
The callback store is lazy: ``None`` until the first registration, the
bare callable for the (overwhelmingly common) single-callback case, and
a list only when a second callback arrives.

This module knows nothing about processes; :mod:`repro.sim.process`
builds generator-based coroutines on top of the primitives here.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.process.Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    schedules it to fire immediately (at the current simulation time,
    after already-queued events for that instant).  When it fires, all
    registered callbacks run with the event as their argument.

    Events are also the unit a process may ``yield`` on: the process
    resumes when the event fires, receiving ``event.value`` (or having
    the failure exception raised inside it).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_scheduled", "name",
                 "_when", "_seq")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: None | a single callable | a list of callables (lazy upgrade)
        self.callbacks: Any = None
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._scheduled = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def ok(self) -> bool:
        """True if the event fired successfully."""
        return self._value is not _PENDING and self._exc is None

    @property
    def failed(self) -> bool:
        return self._exc is not None

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimError(f"event {self.name!r} has no value yet")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING or self._exc is not None:
            raise SimError(f"event {self.name!r} already triggered")
        self._value = value
        self.sim._schedule_now(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not _PENDING or self._exc is not None:
            raise SimError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._exc = exc
        self._value = None
        self.sim._schedule_now(self)
        return self

    def fire_now(self, value: Any = None,
                 exc: Optional[BaseException] = None) -> None:
        """Succeed with ``value`` (fail with ``exc``) and run the callbacks
        at once, inline: for a callback of another event that finishes
        this one, so its waiters resume in that event's dispatch instead
        of a second one at the same instant."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimError(f"event {self.name!r} already triggered")
        self._value = None if exc is not None else value
        self._exc = exc
        self._fire()

    # -- callbacks -----------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires.

        If the event has already been *processed* the callback runs
        immediately; this removes a whole class of registration races.
        """
        if self._scheduled and self.triggered:
            fn(self)
            return
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = fn
        elif type(cbs) is list:
            cbs.append(fn)
        else:
            self.callbacks = [cbs, fn]

    def _fire(self) -> None:
        self._scheduled = True
        cbs = self.callbacks
        if cbs is None:
            return
        self.callbacks = None
        if type(cbs) is list:
            for fn in cbs:
                fn(self)
        else:
            cbs(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "failed" if self.failed else "ok"
        return f"<Event {self.name!r} {state} @{self.sim.now:.6f}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout: {delay}")
        self.sim = sim
        self.name = "timeout"
        self.callbacks = None
        self._value = value
        self._exc = None
        self._scheduled = False
        self.delay = delay
        sim._schedule(delay, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout {self.delay:g} @{self.sim.now:.6f}>"


class Simulator:
    """The virtual clock and event queue.

    Typical use::

        sim = Simulator()
        sim.spawn(my_generator_fn(sim))
        sim.run()          # until no events remain
        sim.run(until=10)  # or until a deadline

    The simulator is single-threaded and deterministic; two runs with the
    same inputs produce identical traces.

    ``obs``/``tracer`` carry the telemetry subsystem (:mod:`repro.obs`)
    to every layer built on the simulator: components grab them at
    construction time, so one ``Simulator(obs=..., tracer=...)`` enables
    instrumentation stack-wide.  Both default to the shared null
    implementations, whose ``enabled`` attribute is False — hot paths
    guard on that one attribute check and otherwise pay nothing.

    ``events_dispatched``, ``process_wakeups`` and ``heap_pushes`` are
    plain ints (an add per event, telemetry or not) that one ``sim``
    collector exports.  ``heap_pushes`` counts entries that hit the
    binary heap (the wall-clock-expensive path): next to
    ``events_dispatched``, how much the zero-delay lane absorbs.
    """

    def __init__(self, obs=None, tracer=None) -> None:
        from repro.obs import NULL_REGISTRY, NULL_TRACER

        self.now: float = 0.0
        self._heap: list = []
        self._fifo: deque = deque()
        self._seq = 0
        self._running = False
        self.heap_pushes = 0
        self.events_dispatched = 0
        self.process_wakeups = 0
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: profiling mode: layers that keep extra timelines (link
        #: occupancy ledgers, RPC queue-depth samples) check this flag
        #: so ordinary telemetry runs don't pay for them.
        self.profile = False
        #: the Process currently executing (span causality tracks)
        self.current = None
        #: every process that ended with an uncaught exception, in order
        self.died: list = []
        #: the processes started and not yet ended
        self.processes: set = set()
        self.obs.add_fields("sim", self.__getattribute__)

    # -- scheduling ----------------------------------------------------

    def _schedule(self, delay: float, entry) -> None:
        """Queue ``entry`` to fire ``delay`` seconds from now."""
        self._seq += 1
        if delay == 0.0:
            entry._when = self.now
            entry._seq = self._seq
            self._fifo.append(entry)
        else:
            self.heap_pushes += 1
            heapq.heappush(self._heap, (self.now + delay, self._seq, entry))

    def _schedule_now(self, entry) -> None:
        """Zero-delay lane: fire ``entry`` at the current instant, after
        everything already queued for it.  O(1), no heap, no tuple."""
        self._seq += 1
        entry._when = self.now
        entry._seq = self._seq
        self._fifo.append(entry)

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value)

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute virtual time ``when``."""
        if when < self.now:
            raise SimError(f"call_at({when}) is in the past (now={self.now})")
        ev = self.timeout(when - self.now)
        ev.add_callback(lambda _e: fn())
        return ev

    def call_later(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` virtual seconds."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _e: fn())
        return ev

    def cancel(self, timeout: Timeout) -> None:
        """Take a timeout off the queue before it fires: it never will.
        A scan of the queue — for teardown, not for hot paths."""
        if timeout in self._fifo:
            self._fifo.remove(timeout)
            return
        for i, (_when, _seq, entry) in enumerate(self._heap):
            if entry is timeout:
                self._heap[i] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
                return

    def spawn(self, generator, name: str = "") -> "Any":
        """Start a new process from a generator (see repro.sim.process)."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def unobserved_deaths(self) -> list:
        """The dead processes whose exception nobody has seen: none was
        waiting on the completion, and none joined it, called
        ``result()`` or read ``completion.exception`` since."""
        return [p for p in self.died if not p.completion.observed]

    # -- execution -----------------------------------------------------

    def step(self) -> None:
        """Process exactly one entry — the smallest ``(time, seq)``
        across the zero-delay lane and the heap."""
        fifo, heap = self._fifo, self._heap
        # The deque is sorted by construction, so its head is its
        # minimum; fire whichever lane holds the global minimum.
        entry = fifo[0] if fifo else None
        if entry is None or (heap and (heap[0][0] < entry._when or (
                heap[0][0] == entry._when and heap[0][1] < entry._seq))):
            self.now, _seq, entry = heapq.heappop(heap)
        else:
            fifo.popleft()
            self.now = entry._when
        self.events_dispatched += 1
        entry._fire()

    def peek(self) -> float:
        """Time of the next event, or +inf if the queue is empty.

        Zero-delay entries always precede heap entries scheduled for a
        later time, so the head of whichever lane holds the minimum wins.
        """
        t = self._fifo[0]._when if self._fifo else float("inf")
        if self._heap and self._heap[0][0] < t:
            t = self._heap[0][0]
        return t

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or the deadline passes.

        Returns the final simulation time.  ``max_events`` is a runaway
        guard — a healthy experiment in this repository is well under it.
        """
        if self._running:
            raise SimError("run() is not reentrant")
        self._running = True
        fifo, heap = self._fifo, self._heap
        heappop = heapq.heappop
        try:
            n = 0
            while fifo or heap:
                if until is not None and self.peek() > until:
                    self.now = until
                    break
                # step(), inlined: a call per event is a tenth of dispatch
                entry = fifo[0] if fifo else None
                if entry is None or (heap and (heap[0][0] < entry._when or (
                        heap[0][0] == entry._when and heap[0][1] < entry._seq))):
                    self.now, _seq, entry = heappop(heap)
                else:
                    fifo.popleft()
                    self.now = entry._when
                self.events_dispatched += 1
                entry._fire()
                n += 1
                if n >= max_events:
                    raise SimError(f"exceeded max_events={max_events}; runaway simulation?")
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return self.now

    def run_until_complete(self, proc) -> Any:
        """Run until the given process finishes; return its value.

        Raises the process's exception if it failed.
        """
        self.run_until_event(proc.completion)
        if proc.completion.failed:
            raise proc.completion.exception
        return proc.completion.value

    def run_until_event(self, event: Event) -> Any:
        """Run until ``event`` has fired."""
        fifo, heap = self._fifo, self._heap
        heappop = heapq.heappop
        while not event._scheduled:
            if not (fifo or heap):
                raise SimError("event queue drained before target event fired (deadlock?)")
            # step(), inlined (see run())
            entry = fifo[0] if fifo else None
            if entry is None or (heap and (heap[0][0] < entry._when or (
                    heap[0][0] == entry._when and heap[0][1] < entry._seq))):
                self.now, _seq, entry = heappop(heap)
            else:
                fifo.popleft()
                self.now = entry._when
            self.events_dispatched += 1
            entry._fire()
        if event.failed:
            raise event.exception  # type: ignore[misc]
        return event.value
