"""The client proxy's block table: each cached block's life, in one place.

File data is cached in fixed-size blocks on the proxy's disk (§6.1).
:class:`BlockCache` owns every block's state, keyed ``(fileid, block)``:

- *absent* — no row;
- *fetching(event)* — a fetch carries it and has not landed; readers and
  writers wait on the event (its bytes may be filled in already);
- *clean* / *dirty* — cached bytes, in LRU order;
- *writing(bytes, burst)* — evicted dirty bytes whose WRITE has not
  landed, still readable; the burst carrying them is listed in
  :meth:`background` (none yet while they wait for a slot);
- *writing-and-dirty* — newer dirty bytes over such a victim.

It also owns the per-file read-ahead cursor and unflushed count, and the
background processes the proxy hands it.  Each transition and each of
the proxy's questions is one method.  It charges the cache disk for what
it touches but never talks to the network: evicted and flushed dirty
blocks are *returned* to :class:`repro.proxy.client_proxy.SgfsClientProxy`,
which writes them back.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.sim.core import Event, Simulator
from repro.sim.process import Process
from repro.vfs.disk import DiskModel

#: a dirty block on its way upstream: (fileid, block index, data)
DirtyItem = Tuple[int, int, bytes]


@dataclass
class ProxyCacheConfig:
    """The cache section of a proxy configuration file (§4.2)."""

    enabled: bool = False
    cache_data: bool = True
    cache_attrs: bool = True
    cache_access: bool = True
    write_back: bool = True
    block_size: int = 32768
    capacity_bytes: int = 4 << 30
    #: cache-consistency protocol overlaying NFS's (the paper defers
    #: multi-user sharing to the authors' application-tailored
    #: consistency work [46]):
    #:   "session" — aggressive: entries valid for the session lifetime
    #:               (the paper's single-user/job assumption, default),
    #:   "poll"    — entries older than ``consistency_ttl`` revalidate
    #:               against the server (GETATTR; mtime change drops
    #:               cached data) — bounded staleness for shared data.
    consistency: str = "session"
    consistency_ttl: float = 5.0

    def __post_init__(self) -> None:
        if self.consistency not in ("session", "poll"):
            raise ValueError(f"unknown consistency mode {self.consistency!r}")


@dataclass(slots=True)
class _Row:
    """One block: cached ``data`` (``dirty`` or clean), the ``fetch``
    event of a fetch not yet landed, the ``wire`` bytes of a write-back
    not yet landed.  A row with none of the three is absent."""

    data: Optional[bytes] = None
    dirty: bool = False
    fetch: Optional[Event] = None
    wire: Optional[bytes] = None


class BlockCache:
    """The ``(fileid, block)`` state table, with LRU eviction.

    Of ``config`` only ``block_size`` and ``capacity_bytes`` are read,
    on every use, so a live configuration reload (which swaps
    ``config``) takes effect at the next insert."""

    def __init__(self, sim: Simulator, config: ProxyCacheConfig,
                 disk: Optional[DiskModel] = None):
        self.sim = sim
        self.config = config
        self.disk = disk
        #: every row; the ones holding data are in LRU order among themselves
        self._rows: "OrderedDict[Tuple[int, int], _Row]" = OrderedDict()
        self.bytes = 0
        #: fileid -> set of dirty block indexes
        self.dirty: Dict[int, Set[int]] = {}
        #: fileid -> how many of its blocks are writing
        self._on_wire: Counter = Counter()
        #: fileid -> the read-ahead cursor: the first block past the
        #: windows already fetched or in flight ahead of its reader
        self.ahead: Dict[int, int] = {}
        #: read-ahead and write-behind processes, oldest first -> (whether
        #: it writes, the blocks it carries); one that failed stays until joined
        self._procs: Dict[Process, Tuple[bool, FrozenSet[Tuple[int, int]]]] = {}

    # -- disk timing -------------------------------------------------------

    def disk_read(self, nbytes: int):
        if self.disk is not None:
            yield from self.disk.read(nbytes, cached=False)

    def disk_write(self, nbytes: int):
        if self.disk is not None:
            yield from self.disk.write(nbytes, sync=False)

    # -- questions ---------------------------------------------------------

    def __contains__(self, key: Tuple[int, int]) -> bool:
        """Whether the block's bytes are cached (clean or dirty)."""
        row = self._rows.get(key)
        return row is not None and row.data is not None

    def state(self, fileid: int, block: int) -> str:
        row = self._rows.get((fileid, block))
        if row is None:
            return "absent"
        if row.fetch is not None:
            return "fetching"
        cached = None if row.data is None else "dirty" if row.dirty else "clean"
        if row.wire is None:
            return cached
        return "writing" if cached is None else f"writing-and-{cached}"

    def unflushed(self, fileid: int) -> bool:
        """Whether the file has local writes the server has not applied:
        dirty blocks, or victims whose WRITE has not landed."""
        return bool(self.dirty.get(fileid)) or self._on_wire[fileid] > 0

    def _bytes(self, key: Tuple[int, int]):
        row = self._rows.get(key)
        if row is not None and row.data is not None:
            self._rows.move_to_end(key)
            yield from self.disk_read(len(row.data))
            # the bytes as they stand after the read: a write served
            # meanwhile (a non-blocking proxy) is in them
            row = self._rows.get(key)
        if row is None:
            return None
        return row.wire if row.data is None else row.data

    def read(self, fileid: int, block: int):
        """Process generator — READ's question: the block's bytes (cached,
        touching its LRU position and paying the disk read, or on the
        wire), else the event of the fetch carrying it, else None."""
        data = yield from self._bytes((fileid, block))
        row = self._rows.get((fileid, block))
        return data if data is not None or row is None else row.fetch

    def current(self, fileid: int, block: int):
        """Process generator — WRITE's merge question: the block's bytes
        once a fetch carrying it has landed, or None."""
        row = self._rows.get((fileid, block))
        if row is not None and row.fetch is not None:
            yield row.fetch
        return (yield from self._bytes((fileid, block)))

    # -- transitions -------------------------------------------------------

    def _row(self, key: Tuple[int, int]) -> _Row:
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = _Row()
        return row

    def _settle(self, key: Tuple[int, int], row: _Row) -> None:
        if row.data is None and row.fetch is None and row.wire is None:
            del self._rows[key]

    def claim(self, fileid: int, blocks: Iterable[int]) -> List[int]:
        """absent -> fetching, before the fetch is issued, so no other
        call sees the blocks absent meanwhile; returns those claimed."""
        claimed = [b for b in blocks if (fileid, b) not in self._rows]
        for b in claimed:
            self._row((fileid, b)).fetch = self.sim.event(name=f"rdwin:{fileid}:{b}")
        return claimed

    def landed(self, fileid: int, blocks: Iterable[int]) -> None:
        """fetching -> cached or absent: the fetch has landed (or failed);
        its waiters wake and ask again."""
        for b in blocks:
            row = self._rows.get((fileid, b))
            if row is not None and row.fetch is not None:
                row.fetch.succeed(None)
                row.fetch = None
                self._settle((fileid, b), row)

    def _put(self, key: Tuple[int, int], data: bytes, dirty: bool):
        row = self._row(key)
        if row.data is not None:
            self.bytes -= len(row.data)
        row.data = data
        self.bytes += len(data)
        self._rows.move_to_end(key)
        if dirty and not row.dirty:
            row.dirty = True
            self.dirty.setdefault(key[0], set()).add(key[1])
        yield from self.disk_write(len(data))

    def fill(self, fileid: int, block: int, data: bytes):
        """Process generator: cache fetched bytes as clean — never over
        unflushed ones (dirty or writing), which are the only copy."""
        row = self._rows.get((fileid, block))
        if row is None or not (row.dirty or row.wire is not None):
            yield from self._put((fileid, block), data, dirty=False)

    def write(self, fileid: int, block: int, data: bytes):
        """Process generator: the block's bytes are now ``data``, dirty
        (over a victim still on the wire: writing-and-dirty)."""
        yield from self._put((fileid, block), data, dirty=True)

    def low_water(self, window: int) -> int:
        """Bytes to evict down to once over capacity: capacity minus
        one pipeline window of blocks (never below half), so dirty
        victims accumulate into one RTT-sized burst instead of one WAN
        round trip per inserted block.  At window 1 this is the
        capacity itself — plain LRU."""
        capacity = self.config.capacity_bytes
        spare = (window - 1) * self.config.block_size
        return max(capacity - spare, capacity // 2)

    def evict(self, keep: Tuple[int, int], window: int) -> List[DirtyItem]:
        """Drop least-recently-used cached bytes (never ``keep``'s, the
        block just inserted) while over capacity.  Clean victims go;
        dirty ones become *writing* — out of the dirty set before the
        caller yields to the (slow) write-back, so a re-dirty while the
        WRITE is in flight is a new dirty block — and are returned in
        eviction order for the caller to write back."""
        victims: List[DirtyItem] = []
        if self.bytes <= self.config.capacity_bytes:
            return victims
        target = self.low_water(window)
        rows = self._rows
        while self.bytes > target:
            key = next((k for k, r in rows.items() if r.data is not None), keep)
            if key == keep:
                break
            row = rows[key]
            self.bytes -= len(row.data)
            if row.dirty:
                self.dirty[key[0]].discard(key[1])
                self._on_wire[key[0]] += row.wire is None
                row.wire = row.data
                victims.append((key[0], key[1], row.data))
                rows.move_to_end(key)
            row.data, row.dirty = None, False
            self._settle(key, row)
        return victims

    def written(self, victims: Iterable[DirtyItem]) -> None:
        """writing -> absent (or dirty, or newer bytes still writing):
        the victims' WRITE landed, failed, or will never be sent."""
        for fileid, block, data in victims:
            row = self._rows.get((fileid, block))
            if row is not None and row.wire is data:
                row.wire = None
                self._on_wire[fileid] -= 1
                self._settle((fileid, block), row)

    def drop_file(self, fileid: int, keep_dirty: bool = False) -> None:
        """Forget a file's cached bytes — all of them (remove), or only
        the clean ones (a revalidation found the file changed under us;
        unflushed local writes stay).  Fetches and writes in flight end
        by themselves."""
        self.truncate(fileid, 0, keep_dirty)

    def truncate(self, fileid: int, size: int, keep_dirty: bool = False) -> None:
        """SETATTR(size): blocks wholly past ``size`` go and the one
        holding it is cut (or zero-extended) to it; dirty blocks below
        stay dirty (all of them, with ``keep_dirty``)."""
        bs = self.config.block_size
        for key in [k for k, r in self._rows.items() if k[0] == fileid and r.data]:
            row = self._rows[key]
            n = min(max(size - key[1] * bs, 0), bs)
            if n == len(row.data) or keep_dirty and row.dirty:
                continue
            self.bytes += n - len(row.data)
            if n:
                row.data = row.data[:n].ljust(n, b"\0")
                continue
            if row.dirty:
                self.dirty[fileid].discard(key[1])
            row.data, row.dirty = None, False
            self._settle(key, row)
        if not (keep_dirty or self.dirty.get(fileid)):
            self.dirty.pop(fileid, None)
            self.ahead.pop(fileid, None)

    def gather_dirty(self, fileids: Iterable[int]):
        """Process generator: take every dirty block of ``fileids`` for
        write-back — files in the order given, blocks ascending.  Each
        taken block is marked clean, read off the cache disk, and
        returned as a :data:`DirtyItem`; the blocks stay cached."""
        items: List[DirtyItem] = []
        for fileid in fileids:
            for block in sorted(self.dirty.pop(fileid, ())):
                row = self._rows.get((fileid, block))
                if row is None or not row.dirty:
                    continue
                row.dirty = False
                data = row.data
                yield from self.disk_read(len(data))
                items.append((fileid, block, data))
        return items

    # -- background processes ----------------------------------------------

    def track(self, proc: Process, keys: Iterable[Tuple[int, int]],
              writes: bool) -> None:
        """List a read-ahead (or, ``writes``, write-behind) process and
        the blocks it carries, until it ends — or, failed, is joined."""
        self._prune()
        self._procs[proc] = (writes, frozenset(keys))

    def _prune(self) -> None:
        # an ended process leaves the list (and frees what it returned)
        for proc in [p for p in self._procs if not p.alive and not p.completion.failed]:
            del self._procs[proc]

    def background(self, fileid: Optional[int] = None,
                   writes: bool = False) -> List[Process]:
        """The listed read-ahead (or write-behind) processes carrying a
        block of ``fileid`` (of any file when None), oldest first."""
        self._prune()
        return [p for p, (w, keys) in self._procs.items() if w == writes
                and (fileid is None or any(f == fileid for f, _b in keys))]

    def join(self, proc: Process):
        """Process generator: wait for a process still listed; one that
        failed raises here, once."""
        if proc in self._procs and (proc.alive or proc.completion.failed):
            try:
                yield proc
            finally:
                self._procs.pop(proc, None)

    def drain(self, fileid: Optional[int] = None):
        """Process generator: join the listed read-ahead, then the write-
        behind, of ``fileid`` (of every file when None).  Read-ahead goes
        first: the blocks it caches may evict more victims."""
        for writes in (False, True):
            for proc in self.background(fileid, writes):
                yield from self.join(proc)

    def slot(self, victims: List[DirtyItem], depth: int):
        """Process generator: the victims no newer eviction of their block
        superseded, once no earlier write of their blocks and fewer than
        ``depth`` write-behind bursts are in flight — joining the oldest
        such burst, never whichever finishes first, while there are."""
        while True:
            items = [v for v in victims
                     if getattr(self._rows.get(v[:2]), "wire", None) is v[2]]
            keys = {v[:2] for v in items}
            bursts = self.background(writes=True)
            older = [p for p in bursts if not keys.isdisjoint(self._procs[p][1])]
            if not older and len(bursts) < depth:
                return items
            yield from self.join((older or bursts)[0])

    @property
    def dirty_bytes(self) -> int:
        return sum(
            len(self._rows[(f, b)].data)
            for f, blocks in self.dirty.items()
            for b in blocks
            if (f, b) in self
        )
