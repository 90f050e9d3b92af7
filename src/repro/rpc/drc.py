"""Duplicate-request cache (DRC) for RPC servers.

NFSv3 procedures like REMOVE, RENAME, MKDIR, and exclusive CREATE are
not idempotent: a retransmitted request that re-executes after the first
execution already committed returns a spurious error (NOENT/EXIST) or
double-applies a mutation.  Real NFS servers defend against this with a
duplicate-request cache (Juszczak, USENIX '89): the reply to each
non-idempotent call is retained, keyed by the caller's identity and xid,
and a retransmission replays the cached reply instead of re-executing.

This DRC implements both halves of that defence:

- **replay** — a duplicate of a *completed* call returns the cached
  encoded reply bytes verbatim.
- **park** — a duplicate of an *in-progress* call waits on the original
  execution instead of racing it, then replays its reply.

Entries age out on the simulated clock and the table is bounded by an
LRU cap (in-progress entries are never evicted).  The cache is a plain
object so every serving hop — the kernel NFS server and both SGFS
proxies (which rewrite xids, defeating any end-to-end cache) — can own
its own instance; each serves every call it reads through one step,
:meth:`DuplicateRequestCache.answer`, which runs an idempotent call and
hands a non-idempotent one to the whole protocol,
:meth:`DuplicateRequestCache.once`.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict, deque
from typing import Deque, Optional, Tuple

from repro.rpc.auth import AUTH_SYS, AuthSys
from repro.rpc.messages import CallMessage
from repro.sim.core import Simulator
from repro.xdr import XdrError

#: check() states
MISS = "miss"
REPLAY = "replay"
WAIT = "wait"


def drc_key(call: CallMessage) -> Tuple:
    """Cache key for a call: (client identity, xid, proc, args checksum).

    The identity part uses the AUTH_SYS (machinename, uid) pair, which
    is stable across reconnects — the xid alone is not unique across
    clients.  The args checksum guards against the (pathological) case
    of an xid being reused for a different request.
    """
    if call.cred.flavor == AUTH_SYS:
        try:
            sys = AuthSys.from_opaque(call.cred)
            ident: Tuple = (sys.machinename, sys.uid)
        except XdrError:
            ident = ("-", call.cred.flavor)
    else:
        ident = ("-", call.cred.flavor)
    return (ident, call.xid, call.proc, zlib.crc32(call.args))


class _Entry:
    __slots__ = ("reply", "done_at", "waiters")

    def __init__(self):
        self.reply: Optional[bytes] = None  # None while in progress
        self.done_at: float = 0.0
        self.waiters: list = []


class DuplicateRequestCache:
    """Bounded, age-limited reply cache with duplicate parking."""

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 256,
        max_age: float = 120.0,
        name: str = "drc",
    ):
        self.sim = sim
        self.capacity = capacity
        self.max_age = max_age
        self.name = name
        # Plain attributes; replays and parks reach the registry through
        # the one rpc.drc collector below.
        self.misses = 0
        self.replays = 0
        self.parks = 0
        self.evictions = 0
        self.expirations = 0
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        #: (key, done_at) in completion order.  ``sim.now`` never goes
        #: back, so stale entries are a prefix of this queue; the LRU
        #: dict above is reordered by replays and cannot serve as one.
        self._completed: Deque[Tuple[Tuple, float]] = deque()
        sim.obs.add_fields("rpc.drc", self.__getattribute__, cache=name)

    def __len__(self) -> int:
        return len(self._entries)

    # -- core protocol ---------------------------------------------------

    def answer(self, call: CallMessage, non_idempotent, execute):
        """Process generator: the serving step of every hop — run
        ``call`` exactly once and return ``(encoded, fresh)``.

        ``non_idempotent`` holds the procedure numbers of ``call.prog``
        that must not run twice; those go through :meth:`once` under
        :func:`drc_key`, and any other call runs ``execute()`` directly
        (always fresh)."""
        if call.proc in non_idempotent:
            return (yield from self.once(drc_key(call), execute))
        return (yield from execute()), True

    def once(self, key: Tuple, execute):
        """Process generator: the whole duplicate-request protocol
        around one non-idempotent call (:meth:`answer` is its caller).

        ``execute()`` is a process generator that runs the call and
        returns its encoded reply.  Returns ``(encoded, fresh)``:
        ``fresh`` is True when this caller executed, False when the
        reply is a replay (of a completed call, or of the in-progress
        original this duplicate parked behind).  If ``execute`` dies,
        one parked duplicate is promoted to run it instead and the
        failure propagates to this caller."""
        state, value = self.check(key)
        if state == REPLAY:
            return value, False
        if state == WAIT:
            cached = yield value
            if cached is not None:
                return cached, False
            # the original execution aborted; we were promoted to run
            # the call ourselves (the entry stays in progress)
        try:
            encoded = yield from execute()
        except BaseException:
            self.abort(key)
            raise
        self.complete(key, encoded)
        return encoded, True

    def check(self, key: Tuple):
        """Classify an incoming call.

        Returns one of (:meth:`once` is the one caller that acts on
        them)::

            (MISS, None)     -- new call; caller must execute it and then
                                call complete(key, encoded) or abort(key)
            (REPLAY, bytes)  -- duplicate of a completed call; send bytes
            (WAIT, Event)    -- duplicate of an in-progress call; yield
                                the event.  It fires with the encoded
                                reply bytes, or with None if the original
                                execution aborted (then re-execute).
        """
        self._expire()
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._entries[key] = _Entry()
            return (MISS, None)
        if entry.reply is not None:
            self.replays += 1
            self._entries.move_to_end(key)
            return (REPLAY, entry.reply)
        self.parks += 1
        ev = self.sim.event(name=f"drc-park:{self.name}")
        entry.waiters.append(ev)
        return (WAIT, ev)

    def complete(self, key: Tuple, encoded: bytes) -> None:
        """Record the encoded reply for a MISS and wake parked duplicates."""
        entry = self._entries.get(key)
        if entry is None:  # evicted/expired mid-flight; recreate
            entry = _Entry()
            self._entries[key] = entry
        entry.reply = encoded
        entry.done_at = self.sim.now
        self._completed.append((key, entry.done_at))
        self._entries.move_to_end(key)
        waiters, entry.waiters = entry.waiters, []
        for ev in waiters:
            ev.succeed(encoded)
        self._trim()
        if len(self._completed) > 2 * self.capacity:  # evictions leave dead records
            self._completed = deque(
                rec for rec in self._completed if self._is_current(*rec)
            )

    def abort(self, key: Tuple) -> None:
        """The MISS execution failed before producing a reply.

        Exactly one parked waiter (if any) is promoted to become the new
        executor — it wakes with None and must run the call itself; the
        entry stays in-progress for the remaining waiters.  With no
        waiters the entry is dropped so a later retransmission re-executes.
        """
        entry = self._entries.get(key)
        if entry is None or entry.reply is not None:
            return
        if entry.waiters:
            entry.waiters.pop(0).succeed(None)
        else:
            del self._entries[key]

    # -- bounds ----------------------------------------------------------

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            victim = None
            for key, entry in self._entries.items():
                if entry.reply is not None:  # never evict in-progress
                    victim = key
                    break
            if victim is None:
                return
            del self._entries[victim]
            self.evictions += 1

    def _is_current(self, key: Tuple, done_at: float) -> bool:
        """Does this completion record still describe a cached reply?  Not
        if the entry was evicted, or evicted and then executed again (in
        progress, or completed later — under a record of its own)."""
        entry = self._entries.get(key)
        return (
            entry is not None and entry.reply is not None
            and entry.done_at == done_at
        )

    def _expire(self) -> None:
        now = self.sim.now
        completed = self._completed
        while completed and now - completed[0][1] > self.max_age:
            key, done_at = completed.popleft()
            if self._is_current(key, done_at):
                del self._entries[key]
                self.expirations += 1
