"""Inter-process synchronization primitives.

These are the building blocks the network and RPC layers are made of:

- :class:`Channel` — an unbounded FIFO of messages with blocking ``get``;
  the basic mailbox between simulated processes.
- :class:`Semaphore` — counted resource with FIFO queuing (link
  directions, disk spindles, the NFS client's async-I/O slots).
- :class:`RwLock` — shared/exclusive lock with strict arrival-order
  queuing (the NFS server's per-inode serialization under concurrent
  multi-client fleets).
- :class:`Gate` — a level-triggered condition processes can wait on.

All waiters are served strictly FIFO to keep runs deterministic.

Contention telemetry: :class:`Semaphore` and :class:`RwLock` count the
acquisitions that had to queue (``wait_count``) and, when the simulator
carries a live metrics registry, export those counts plus wait-time
histograms under the ``sync`` component (``sem_waits`` / ``sem_wait`` /
``rwlock_waits`` / ``rwlock_wait``, labelled by the lock's digit-collapsed
name so per-fileid lock instances aggregate into one series).  The
uncontended fast paths are untouched — the bookkeeping runs only when a
waiter actually queues — and observations never consume virtual time.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Event, SimError, Simulator

#: Digit runs collapse to ``*`` so high-cardinality lock populations
#: (per-fileid ``ino42`` RwLocks, per-client ``cpu:c7.core`` semaphores)
#: export as one bounded metric series per lock *family*.
_DIGITS = re.compile(r"\d+")


def lock_group(name: str) -> str:
    """The export label for a lock name: digit runs collapsed to ``*``."""
    return _DIGITS.sub("*", name)


def wait_instruments(obs, family: str, name: str):
    """The ``sync`` instruments a lock named ``name`` reports queued
    acquisitions through: the ``{family}_wait`` histogram and the
    ``{family}_waits`` counter of its group.  Bound at the lock's first
    queued acquisition, so later ones skip the name rewrite and lookup."""
    group = lock_group(name)
    return (obs.histogram("sync", f"{family}_wait", lock=group),
            obs.counter("sync", f"{family}_waits", lock=group))


class Channel:
    """Unbounded FIFO message queue.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    next message (immediately if one is already queued).  ``close`` makes
    all current and future gets fail with :class:`ChannelClosed`.
    """

    __slots__ = ("sim", "name", "_get_name", "_items", "_getters", "_closed")

    def __init__(self, sim: Simulator, name: str = "chan"):
        self.sim = sim
        self.name = name
        self._get_name = f"get:{name}"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> None:
        if self._closed:
            raise ChannelClosed(self.name)
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim, self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
        elif self._closed:
            ev.fail(ChannelClosed(self.name))
        else:
            self._getters.append(ev)
        return ev

    def close(self) -> None:
        """Close the channel; queued items are still deliverable."""
        self._closed = True
        # Waiters can never be satisfied now.
        while self._getters:
            self._getters.popleft().fail(ChannelClosed(self.name))


class ChannelClosed(SimError):
    """Raised by Channel.get when the channel was closed."""


class Semaphore:
    """Counted resource with FIFO queuing.

    Usage inside a process::

        yield sem.acquire()
        try:
            ...
        finally:
            sem.release()
    """

    __slots__ = ("sim", "name", "_acq_name", "capacity", "_in_use", "_waiters",
                 "wait_count", "_h_wait", "_c_wait")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "sem"):
        if capacity < 1:
            raise SimError("Semaphore capacity must be >= 1")
        self.sim = sim
        self.name = name
        self._acq_name = f"acq:{name}"
        self.capacity = capacity
        self._in_use = 0
        #: FIFO of (event, enqueued_at)
        self._waiters: Deque[tuple[Event, float]] = deque()
        #: total acquisitions that had to queue (contention indicator)
        self.wait_count = 0
        # sync/sem_wait histogram and sync/sem_waits counter, bound lazily
        self._h_wait = self._c_wait = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        ev = Event(self.sim, self._acq_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self.wait_count += 1
            obs = self.sim.obs
            if obs.enabled:
                if self._c_wait is None:
                    self._h_wait, self._c_wait = wait_instruments(
                        obs, "sem", self.name)
                self._c_wait.inc()
            self._waiters.append((ev, self.sim.now))
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire: take a free slot now, or return False.

        Equivalent to an ``acquire()`` that would succeed immediately,
        minus the event round trip — the network's callback-chained
        delivery uses it on uncontended links.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError(f"semaphore {self.name!r} released while free")
        if self._waiters:
            # Hand the slot straight to the next waiter.
            ev, enqueued_at = self._waiters.popleft()
            if self._h_wait is not None:
                self._h_wait.observe(self.sim.now - enqueued_at)
            ev.succeed()
        else:
            self._in_use -= 1


class RwLock:
    """A reader/writer lock with strict arrival-order (FIFO) queuing.

    Any number of readers share the lock; writers are exclusive.
    Fairness is strict FIFO over *arrival order*: a reader that arrives
    after a queued writer waits behind it (no writer starvation, no
    reader barging), and the grant order is therefore a pure function of
    the acquisition order — deterministic across runs.

    The ``try_acquire_*`` fast paths take the lock synchronously when it
    is free, with no event round trip, so an uncontended critical
    section costs **zero virtual time** and schedules no extra events —
    a single client pays nothing for the NFS server's per-fileid locks.

    Usage inside a process::

        if not lock.try_acquire_write():
            yield lock.acquire_write()
        try:
            ...
        finally:
            lock.release_write()
    """

    __slots__ = ("sim", "name", "_acq_name", "_readers", "_writer",
                 "_waiters", "wait_count", "_h_wait", "_c_wait")

    def __init__(self, sim: Simulator, name: str = "rwlock"):
        self.sim = sim
        self.name = name
        self._acq_name = f"acq:{name}"
        self._readers = 0
        self._writer = False
        #: FIFO of (event, wants_write, enqueued_at)
        self._waiters: Deque[tuple[Event, bool, float]] = deque()
        #: total acquisitions that had to queue (contention indicator)
        self.wait_count = 0
        # sync/rwlock_wait histogram and sync/rwlock_waits counter, bound lazily
        self._h_wait = self._c_wait = None

    def _note_queued(self) -> None:
        """Count a queued acquisition and export it to the registry."""
        self.wait_count += 1
        obs = self.sim.obs
        if obs.enabled:
            if self._c_wait is None:
                self._h_wait, self._c_wait = wait_instruments(
                    obs, "rwlock", self.name)
            self._c_wait.inc()

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_locked(self) -> bool:
        return self._writer

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def try_acquire_read(self) -> bool:
        """Take a shared hold now iff no writer holds or waits."""
        if not self._writer and not self._waiters:
            self._readers += 1
            return True
        return False

    def acquire_read(self) -> Event:
        ev = Event(self.sim, self._acq_name)
        if not self._writer and not self._waiters:
            self._readers += 1
            ev.succeed()
        else:
            self._note_queued()
            self._waiters.append((ev, False, self.sim.now))
        return ev

    def release_read(self) -> None:
        if self._readers <= 0:
            raise SimError(f"rwlock {self.name!r} read-released while free")
        self._readers -= 1
        if self._readers == 0:
            self._grant()

    def try_acquire_write(self) -> bool:
        """Take the exclusive hold now iff the lock is completely free."""
        if not self._writer and self._readers == 0 and not self._waiters:
            self._writer = True
            return True
        return False

    def acquire_write(self) -> Event:
        ev = Event(self.sim, self._acq_name)
        if not self._writer and self._readers == 0 and not self._waiters:
            self._writer = True
            ev.succeed()
        else:
            self._note_queued()
            self._waiters.append((ev, True, self.sim.now))
        return ev

    def release_write(self) -> None:
        if not self._writer:
            raise SimError(f"rwlock {self.name!r} write-released while free")
        self._writer = False
        self._grant()

    def _grant(self) -> None:
        """Wake the head of the queue: one writer, or a run of readers."""
        if not self._waiters:
            return
        if self._waiters[0][1]:  # writer at the head
            if self._readers == 0 and not self._writer:
                ev, _, enqueued_at = self._waiters.popleft()
                self._writer = True
                if self._h_wait is not None:
                    self._h_wait.observe(self.sim.now - enqueued_at)
                ev.succeed()
            return
        # Admit the consecutive readers at the head (arrival order).
        while self._waiters and not self._waiters[0][1]:
            ev, _, enqueued_at = self._waiters.popleft()
            self._readers += 1
            if self._h_wait is not None:
                self._h_wait.observe(self.sim.now - enqueued_at)
            ev.succeed()


class Gate:
    """A level-triggered condition.

    While *open*, waits pass immediately; while *closed*, waiters queue
    until the gate opens.  Useful for pause/resume of forwarding during
    proxy reconfiguration.
    """

    __slots__ = ("sim", "name", "_wait_name", "_open", "_waiters")

    def __init__(self, sim: Simulator, open: bool = True, name: str = "gate"):
        self.sim = sim
        self.name = name
        self._wait_name = f"wait:{name}"
        self._open = open
        self._waiters: Deque[Event] = deque()

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        ev = Event(self.sim, self._wait_name)
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def open(self) -> None:
        self._open = True
        while self._waiters:
            self._waiters.popleft().succeed()

    def close(self) -> None:
        self._open = False
