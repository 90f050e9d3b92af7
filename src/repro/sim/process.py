"""Generator-based cooperative processes.

A process is an ordinary Python generator driven by the simulator.  It
may yield:

- an :class:`~repro.sim.core.Event` (including timeouts) — the process
  resumes when the event fires, receiving its value, or having its
  failure exception raised at the yield point;
- another :class:`Process` — shorthand for yielding its completion event
  (a *join*);
- ``None`` — yield the floor: reschedule immediately, letting other
  events at the current instant run first.

A process's ``completion`` event fires with the generator's return value,
or fails with its uncaught exception.  A failure reaches whoever joins
the process; the simulator keeps every process that died of one
(``Simulator.died``) and :meth:`Simulator.unobserved_deaths` names those
nobody looked at — no waiter, no later join, no ``result()`` or
``completion.exception`` read — so a run can refuse to end quietly over
them (:func:`repro.harness.runner.collect` raises :class:`ProcessDied`).

Scheduling is allocation-lean: a process is itself a valid queue entry
(``_when``/``_seq``/``_fire``) *and* a valid event callback (it is
callable), so the start kick and every floor-yield put the process
straight on the simulator's zero-delay lane — no intermediate Timeout
event — and waiting on an event stores the process object as the
event's single callback instead of a fresh bound method.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.core import Event, Interrupt, SimError, Simulator, _PENDING


class ProcessDied(SimError):
    """A process ended with an uncaught exception (its ``__cause__``):
    raised by :meth:`Process.result`, and by the harness for a death
    nobody observed."""


class _Completion(Event):
    """A process's completion event; remembers whether anyone looked."""

    __slots__ = ("observed",)

    def add_callback(self, fn) -> None:
        self.observed = True
        Event.add_callback(self, fn)

    @property
    def exception(self) -> Optional[BaseException]:
        self.observed = True
        return self._exc


class Process:
    """A cooperative process executing a generator on the virtual clock."""

    __slots__ = ("sim", "name", "generator", "completion", "_waiting_on",
                 "_started", "trace_key", "trace_ns", "_when", "_seq")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"Process needs a generator, got {type(generator).__name__}")
        self.sim = sim
        #: stable identity stamp for span tracing (set lazily by the
        #: tracer; ``id()`` is unusable because CPython reuses addresses
        #: of collected processes, which would merge unrelated tracks).
        self.trace_key: Optional[int] = None
        #: trace namespace, inherited from the spawning process so an
        #: entire subtree of a fleet client lands on that client's
        #: tracks.  ``sim.current`` is only maintained while tracing, so
        #: outside traced runs this is always None.
        self.trace_ns: Optional[str] = getattr(sim.current, "trace_ns", None)
        self.name = name or getattr(generator, "__name__", "proc")
        self.generator = generator
        self.completion: Event = _Completion(sim, f"completion:{self.name}")
        self.completion.observed = False
        self._waiting_on: Optional[Event] = None
        self._started = False
        # Start the process at the current instant, after pending events.
        # The process is its own queue entry: no kick Timeout needed.
        sim.processes.add(self)
        sim._schedule_now(self)

    # -- status --------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self.completion.triggered

    # -- control -------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is a no-op (matching simpy).
        """
        if not self.alive:
            return
        target = self._waiting_on
        if target is not None and not target.triggered:
            # Detach from whatever it was waiting for; it resumes now.
            self._waiting_on = None
            ev = self.sim.event(name=f"interrupt:{self.name}")
            ev.add_callback(lambda _e: self._throw(Interrupt(cause)))
            ev.succeed()
        else:
            # Process is about to be resumed by a triggered event (or a
            # queued floor-yield); queue the interrupt right behind it.
            self.sim.call_later(0.0, lambda: self._throw(Interrupt(cause)))

    # -- driving -------------------------------------------------------

    def _fire(self) -> None:
        """Queue-entry hook: a kick or floor-yield reached the front."""
        self._resume(None)

    def __call__(self, event: Event) -> None:
        """Event-callback hook: the awaited event fired."""
        self._resume(event)

    def _resume(self, event: Optional[Event]) -> None:
        """Advance the generator with the event's outcome."""
        if self.completion._value is not _PENDING or self.completion._exc is not None:
            return  # not alive
        # Ignore stale wakeups from events we were detached from (interrupt).
        if event is not None and event is not self._waiting_on and self._started:
            return
        self._waiting_on = None
        self._started = True
        # Mark this process as the executing context while the generator
        # runs: span tracing attributes causality by sim.current, and the
        # wakeup counter feeds the sim-layer metrics.  Only the tracer
        # reads sim.current, so the bookkeeping is skipped when tracing
        # is off — this is the hottest function in the simulator.
        sim = self.sim
        sim.process_wakeups += 1
        tracing = sim.tracer.enabled
        if tracing:
            prev, sim.current = sim.current, self
        try:
            if event is None or event._exc is None:
                value = event._value if event is not None else None
                if value is _PENDING:
                    value = None
                target = self.generator.send(value)
            else:
                target = self.generator.throw(event._exc)
        except StopIteration as stop:
            sim.processes.discard(self)
            self.completion.succeed(stop.value)
            return
        except BaseException as exc:
            sim.processes.discard(self)
            self.completion.fail(exc)
            sim.died.append(self)
            return
        finally:
            if tracing:
                sim.current = prev
        # Inline _wait_for's common case: most yields are events.
        if isinstance(target, Event):
            self._waiting_on = target
            target.add_callback(self)
        else:
            self._wait_for(target)

    def _throw(self, exc: BaseException) -> None:
        if not self.alive:
            return
        sim = self.sim
        tracing = sim.tracer.enabled
        if tracing:
            prev, sim.current = sim.current, self
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            sim.processes.discard(self)
            self.completion.succeed(stop.value)
            return
        except BaseException as err:
            sim.processes.discard(self)
            self.completion.fail(err)
            sim.died.append(self)
            return
        finally:
            if tracing:
                sim.current = prev
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if target is None:
            # Floor-yield: reschedule directly, no intermediate event.
            self.sim._schedule_now(self)
            return
        if isinstance(target, Process):
            ev = target.completion
        elif isinstance(target, Event):
            ev = target
        else:
            self._throw(TypeError(f"process {self.name!r} yielded {type(target).__name__}"))
            return
        self._waiting_on = ev
        ev.add_callback(self)

    # -- joining -------------------------------------------------------

    def result(self) -> Any:
        """The process's return value; raises if unfinished or failed."""
        if not self.completion.triggered:
            raise SimError(f"process {self.name!r} still running")
        if self.completion.failed:
            raise ProcessDied(self.name) from self.completion.exception
        return self.completion.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else ("failed" if self.completion.failed else "done")
        return f"<Process {self.name!r} {state}>"


def all_of(sim: Simulator, events: list) -> Event:
    """An event that fires once every listed event/process has fired.

    Its value is the list of individual values, in input order.  The
    first failure fails the aggregate immediately.
    """
    done = sim.event(name="all_of")
    pending = [e.completion if isinstance(e, Process) else e for e in events]
    remaining = len(pending)
    values: list[Any] = [None] * len(pending)
    if remaining == 0:
        return done.succeed([])

    def make_cb(i: int):
        def cb(ev: Event) -> None:
            nonlocal remaining
            if done.triggered:
                return
            if ev.failed:
                done.fail(ev.exception)  # type: ignore[arg-type]
                return
            values[i] = ev.value
            remaining -= 1
            if remaining == 0:
                done.succeed(values)

        return cb

    for i, ev in enumerate(pending):
        ev.add_callback(make_cb(i))
    return done


def any_of(sim: Simulator, events: list) -> Event:
    """An event that fires with (index, value) of the first event to fire."""
    done = sim.event(name="any_of")
    pending = [e.completion if isinstance(e, Process) else e for e in events]
    if not pending:
        raise SimError("any_of() needs at least one event")

    def make_cb(i: int):
        def cb(ev: Event) -> None:
            if done.triggered:
                return
            if ev.failed:
                done.fail(ev.exception)  # type: ignore[arg-type]
            else:
                done.succeed((i, ev.value))

        return cb

    for i, ev in enumerate(pending):
        ev.add_callback(make_cb(i))
    return done
