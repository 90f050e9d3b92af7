"""Client-side caches: attributes, names, access bits, and the block table.

These model the Linux kernel NFS client's caching machinery the paper's
baselines rely on:

- an attribute cache with adaptive timeouts (acregmin..acregmax style:
  the timeout doubles while the file is observed unchanged),
- a dentry (name lookup) cache,
- an ACCESS-result cache,
- :class:`BlockCache`, the one table of cached file blocks.  The kernel
  client keeps it in memory as its page cache, bounded LRU (the paper's
  IOzone setup is sized so the *sequential* read of a file twice the
  cache size defeats LRU exactly as it does in the kernel); the client
  proxy keeps it on disk (§6.1).
"""

from __future__ import annotations

from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.nfs.protocol import Fattr3, FileHandle
from repro.sim.core import Event, Simulator
from repro.sim.process import Process
from repro.vfs.disk import DiskModel


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting shared by every client-side cache.

    Replaces the three copies of the bare ``hits``/``misses`` int idiom
    these caches used to carry.  Registers with a :mod:`repro.obs`
    registry as a pull collector, so enabling telemetry costs the caches
    nothing on their hot paths — the registry reads the ints at snapshot
    time.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def hit(self) -> None:
        self.hits += 1

    def miss(self) -> None:
        self.misses += 1

    def evict(self) -> None:
        self.evictions += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.lookups
        return self.hits / n if n else 0.0

    def export(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    def register(self, registry, component: str, name: str) -> None:
        """Surface this cache under ``component/name`` in snapshots."""
        registry.add_collector(component, lambda: {name: self.export()})


@dataclass
class AttrEntry:
    attr: Fattr3
    fetched_at: float
    timeout: float


class AttrCache:
    """fileid -> attributes with kernel-style adaptive timeouts."""

    def __init__(
        self,
        clock,
        ac_reg_min: float = 3.0,
        ac_reg_max: float = 60.0,
        ac_dir_min: float = 30.0,
        ac_dir_max: float = 60.0,
    ):
        self.clock = clock
        self.ac_reg_min = ac_reg_min
        self.ac_reg_max = ac_reg_max
        self.ac_dir_min = ac_dir_min
        self.ac_dir_max = ac_dir_max
        self._entries: Dict[int, AttrEntry] = {}
        self.stats = CacheStats()

    def _bounds(self, attr: Fattr3) -> Tuple[float, float]:
        if attr.is_dir:
            return self.ac_dir_min, self.ac_dir_max
        return self.ac_reg_min, self.ac_reg_max

    def get(self, fileid: int) -> Optional[Fattr3]:
        e = self._entries.get(fileid)
        if e is None or self.clock() - e.fetched_at > e.timeout:
            self.stats.miss()
            return None
        self.stats.hit()
        return e.attr

    def put(self, attr: Fattr3) -> None:
        lo, hi = self._bounds(attr)
        old = self._entries.get(attr.fileid)
        if old is not None and old.attr.mtime == attr.mtime:
            timeout = min(old.timeout * 2, hi)  # stable file: back off
        else:
            timeout = lo
        self._entries[attr.fileid] = AttrEntry(attr, self.clock(), timeout)

    def peek(self, fileid: int) -> Optional[Fattr3]:
        """Attributes regardless of freshness (for change detection)."""
        e = self._entries.get(fileid)
        return e.attr if e else None

    def invalidate(self, fileid: int) -> None:
        self._entries.pop(fileid, None)

    def clear(self) -> None:
        self._entries.clear()


class NameCache:
    """(dir_fileid, name) -> (FileHandle, fileid); invalidated on mutation."""

    def __init__(self, capacity: int = 65536):
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, str], Tuple[FileHandle, int]]" = OrderedDict()
        self.stats = CacheStats()

    def get(self, dir_fileid: int, name: str) -> Optional[Tuple[FileHandle, int]]:
        key = (dir_fileid, name)
        hit = self._entries.get(key)
        if hit is None:
            self.stats.miss()
            return None
        self._entries.move_to_end(key)
        self.stats.hit()
        return hit

    def put(self, dir_fileid: int, name: str, fh: FileHandle, fileid: int) -> None:
        key = (dir_fileid, name)
        self._entries[key] = (fh, fileid)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evict()

    def invalidate(self, dir_fileid: int, name: str) -> None:
        self._entries.pop((dir_fileid, name), None)

    def invalidate_dir(self, dir_fileid: int) -> None:
        stale = [k for k in self._entries if k[0] == dir_fileid]
        for k in stale:
            del self._entries[k]

    def clear(self) -> None:
        self._entries.clear()


class AccessCache:
    """(fileid, uid) -> granted-bits, valid as long as the attrs are."""

    def __init__(self, clock, timeout: float = 30.0):
        self.clock = clock
        self.timeout = timeout
        self._entries: Dict[Tuple[int, int], Tuple[int, float]] = {}
        self.stats = CacheStats()

    def get(self, fileid: int, uid: int) -> Optional[int]:
        hit = self._entries.get((fileid, uid))
        if hit is None or self.clock() - hit[1] > self.timeout:
            self.stats.miss()
            return None
        self.stats.hit()
        return hit[0]

    def put(self, fileid: int, uid: int, bits: int) -> None:
        self._entries[(fileid, uid)] = (bits, self.clock())

    def invalidate(self, fileid: int) -> None:
        stale = [k for k in self._entries if k[0] == fileid]
        for k in stale:
            del self._entries[k]

    def clear(self) -> None:
        self._entries.clear()




# ---------------------------------------------------------------------------
# the block table
# ---------------------------------------------------------------------------

#: a dirty block on its way to the server: (fileid, block index, data)
DirtyItem = Tuple[int, int, bytes]


@dataclass
class CacheSize:
    """What a :class:`BlockCache` reads of its configuration: the kernel
    client's.  The client proxy's configuration section
    (``ProxyCacheConfig``) carries the same two fields."""

    block_size: int
    capacity_bytes: int


@dataclass(slots=True)
class _Row:
    """One block: cached ``data`` (``dirty`` or clean; ``unread`` when
    read ahead and not yet read, ``staged`` when read off the disk in an
    earlier block's run and not yet read), the ``fetch`` event of a
    fetch not yet landed, the ``wire`` bytes of a write-back not yet
    landed.  A row with none of the three is absent."""

    data: Optional[bytes] = None
    dirty: bool = False
    unread: bool = False
    staged: bool = False
    fetch: Optional[Event] = None
    wire: Optional[bytes] = None


class BlockCache:
    """Each cached block's life, in one place, keyed ``(fileid, block)``:

    - *absent* — no row;
    - *fetching(event)* — a fetch carries it and has not landed; readers
      and writers wait on the event (its bytes may be filled in already);
    - *clean* / *dirty* — cached bytes, in LRU order (a clean block read
      ahead is *unread* until a READ touches it, and that READ skips the
      disk);
    - *writing(bytes, process)* — evicted dirty bytes whose WRITE has not
      landed, still readable; the process carrying them is listed in
      :meth:`background` (none yet while they wait for a slot);
    - *writing-and-dirty* — newer dirty bytes over such a victim.

    It also owns the per-file read-ahead cursor, the dirty-byte count,
    and the background processes its owner hands it.  Each transition and
    each of the owner's questions is one method.  It charges ``disk``
    (the client proxy's; the kernel client's table has none) for what it
    touches but never talks to the network: evicted and flushed dirty
    blocks are *returned* to the owner, which writes them back.  A
    fetched block's disk write is paid by the caller that caches it; a
    written block's goes behind the caller, through the disk's one
    writer process, in the order the blocks were written (:meth:`write`,
    :meth:`synced`).

    Of ``config`` only ``block_size`` and ``capacity_bytes`` are read,
    on every use, so a live configuration reload (which swaps
    ``config``) takes effect at the next insert."""

    def __init__(self, sim: Optional[Simulator], config,
                 disk: Optional[DiskModel] = None, stats: Optional[dict] = None):
        self.sim = sim
        self.config = config
        self.disk = disk
        #: counter sink (the client proxy's ``proxy.client`` counts)
        self.stats = {"prefetch_evicted_unread": 0} if stats is None else stats
        #: hits and misses of :meth:`get`, and evictions
        self.counts = CacheStats()
        #: every row; the ones holding data are in LRU order among themselves
        self._rows: "OrderedDict[Tuple[int, int], _Row]" = OrderedDict()
        #: fileid -> block -> row: one file's rows, for per-file work
        self._files: Dict[int, Dict[int, _Row]] = {}
        self.bytes = 0
        #: fileid -> set of dirty block indexes, and their bytes in total
        self.dirty: Dict[int, Set[int]] = {}
        self.dirty_bytes = 0
        #: fileid -> how many of its blocks are writing
        self._on_wire: Counter = Counter()
        #: fileid -> the read-ahead cursor: the first block past the
        #: windows already fetched or in flight ahead of its reader, or
        #: the lowest block evicted below them since
        self.ahead: Dict[int, int] = {}
        #: read-ahead and write-back processes, oldest first -> (whether
        #: it writes, the blocks it carries); one that failed stays until joined
        self._procs: Dict[Process, Tuple[bool, FrozenSet[Tuple[int, int]]]] = {}
        self._listed = 8  # how long the list may grow before it is pruned
        #: written blocks' disk writes not yet landed, oldest first:
        #: (fileid, ticket, bytes); tickets count the writes queued
        self._unsynced: Deque[Tuple[int, int, int]] = deque()
        self._tickets = 0
        #: fileid -> the ticket of its newest disk write not yet landed
        self._newest: Dict[int, int] = {}
        #: ticket -> the event its waiters wake on when it lands
        self._sync_waits: Dict[int, Event] = {}
        #: the process writing ``_unsynced`` out; it ends once it is empty
        self._writer: Optional[Process] = None

    def disk_read(self, nbytes: int):
        if self.disk is not None:
            yield from self.disk.read(nbytes, cached=False)

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

    def unsynced(self, fileid: Optional[int] = None) -> bool:
        """Whether a written block of ``fileid`` (of any file when None)
        waits for its cache-disk write."""
        return bool(self._unsynced) if fileid is None else fileid in self._newest

    def unflushed(self, fileid: int) -> bool:
        """Whether the file has local writes the server has not applied:
        dirty blocks, or victims whose WRITE has not landed."""
        return bool(self.dirty.get(fileid)) or self._on_wire[fileid] > 0

    def peek(self, fileid: int, block: int):
        """The block's bytes (cached, else on the wire), else the event of
        the fetch carrying it, else None; touches nothing."""
        row = self._rows.get((fileid, block))
        if row is None:
            return None
        if row.data is not None:
            return row.data
        return row.fetch if row.wire is None else row.wire

    def get(self, fileid: int, block: int):
        """:meth:`peek`, counted as a hit when it finds the bytes; cached
        ones move to the LRU end and are read."""
        row = self._rows.get((fileid, block))
        if row is not None and row.data is not None:
            self._rows.move_to_end((fileid, block))
            row.unread = row.staged = False
            self.counts.hits += 1
            return row.data
        got = self.peek(fileid, block)
        if isinstance(got, bytes):
            self.counts.hits += 1
        else:
            self.counts.misses += 1
        return got

    def read(self, fileid: int, block: int, window: int = 1):
        """Process generator — READ's question: :meth:`get`, paying the
        disk read of cached bytes; the answer is the block as it stands
        after that read (a write served meanwhile is in it).  A block a
        fetch filled that nothing has read yet (*unread*) is answered
        from the memory the fetch brought it in, once: later reads pay
        the disk.

        The disk access that reads a block also reads the cached blocks
        after it, up to ``window`` blocks in all, in one run that stops
        at the first block absent, in flight or already in memory.  Each
        block of the run is *staged*: its next read is answered from
        memory, as an unread block's is."""
        row = self._rows.get((fileid, block))
        in_memory = row is not None and (row.unread or row.staged)
        got = self.get(fileid, block)
        if self.disk is None or in_memory or row is None or row.data is None:
            return got
        nbytes = len(got)
        rows = self._files[fileid]
        for b in range(block + 1, block + window):
            nxt = rows.get(b)
            if nxt is None or nxt.data is None or nxt.fetch is not None \
                    or nxt.unread or nxt.staged:
                break
            nxt.staged = True
            nbytes += len(nxt.data)
        yield from self.disk.read(nbytes, cached=False)
        return self.peek(fileid, block)

    def current(self, fileid: int, block: int):
        """Process generator — WRITE's merge question: the block's bytes
        once a fetch carrying it has landed, or None."""
        row = self._rows.get((fileid, block))
        if row is not None and row.fetch is not None:
            yield row.fetch
        got = yield from self.read(fileid, block)
        return got if isinstance(got, bytes) else None

    # -- transitions -------------------------------------------------------

    def _row(self, key: Tuple[int, int]) -> _Row:
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = _Row()
            self._files.setdefault(key[0], {})[key[1]] = row
        return row

    def _settle(self, key: Tuple[int, int], row: _Row) -> None:
        if row.data is None and row.fetch is None and row.wire is None:
            del self._rows[key]
            rows = self._files[key[0]]
            del rows[key[1]]
            if not rows:
                del self._files[key[0]]

    def claim(self, fileid: int, blocks: Iterable[int]) -> List[int]:
        """absent -> fetching, before the fetch is issued, so no other
        call sees the blocks absent meanwhile; returns those claimed."""
        claimed = [b for b in blocks if (fileid, b) not in self._rows]
        for b in claimed:
            self._row((fileid, b)).fetch = self.sim.event(name=f"rdwin:{fileid}:{b}")
        return claimed

    def landed(self, fileid: int, blocks: Iterable[int]) -> None:
        """fetching -> cached or absent: the fetch has landed (or failed).
        Its waiters wake with the block's bytes, or None: then they ask
        again."""
        for b in blocks:
            row = self._rows.get((fileid, b))
            if row is not None and row.fetch is not None:
                row.fetch.succeed(row.wire if row.data is None else row.data)
                row.fetch = None
                self._settle((fileid, b), row)

    def _put(self, key: Tuple[int, int], data: bytes, dirty: bool,
             unread: bool = False) -> None:
        row = self._row(key)
        if row.data is not None:
            self.bytes -= len(row.data)
            if row.dirty:
                self.dirty_bytes -= len(row.data)
        row.data, row.unread, row.staged = data, unread, False
        self.bytes += len(data)
        self._rows.move_to_end(key)
        if dirty and not row.dirty:
            row.dirty = True
            self.dirty.setdefault(key[0], set()).add(key[1])
        if row.dirty:
            self.dirty_bytes += len(data)

    def fill(self, fileid: int, block: int, data: bytes, unread: bool = False):
        """Process generator: cache fetched bytes as clean (``unread``:
        read ahead of the reader) — never over unflushed ones (dirty or
        writing), which are the only copy — and pay their disk write."""
        row = self._rows.get((fileid, block))
        if row is None or not (row.dirty or row.wire is not None):
            self._put((fileid, block), data, dirty=False, unread=unread)
            if self.disk is not None:
                yield from self.disk.write(len(data), sync=False)

    def write(self, fileid: int, block: int, data: bytes):
        """Process generator, one that never waits: the block's bytes are
        now ``data``, dirty (over a victim still on the wire: writing-and-
        dirty).  Its disk write is queued behind the caller for the
        disk's writer; :meth:`synced` waits for it."""
        self._put((fileid, block), data, dirty=True)
        if self.disk is not None:
            self._tickets += 1
            self._newest[fileid] = self._tickets
            self._unsynced.append((fileid, self._tickets, len(data)))
            if self._writer is None:
                self._writer = self.sim.spawn(self._write_out(),
                                              name=f"{self.disk.name}.writer")
        return
        yield  # pragma: no cover

    def _write_out(self):
        """Process generator — the disk's one writer: write the queued
        blocks out one access each, oldest first, waking the callers
        :meth:`synced` holds as each lands; end once none is left."""
        try:
            while self._unsynced:
                fileid, ticket, nbytes = self._unsynced[0]
                yield from self.disk.write(nbytes, sync=False)
                self._unsynced.popleft()
                if self._newest.get(fileid) == ticket:
                    del self._newest[fileid]
                waiters = self._sync_waits.pop(ticket, None)
                if waiters is not None:
                    waiters.succeed()
        finally:
            self._writer = None

    def synced(self, fileid: Optional[int] = None):
        """Process generator: wait until the disk writes of ``fileid``'s
        written blocks (of every file's, when None) queued before the
        call have landed — and so every write queued before them: the
        writer lands them in order.  The owner's durability point."""
        if fileid is None:
            ticket = self._tickets if self._unsynced else None
        else:
            ticket = self._newest.get(fileid)
        if ticket is not None:
            waiters = self._sync_waits.get(ticket)
            if waiters is None:
                waiters = self._sync_waits[ticket] = self.sim.event(name="synced")
            yield waiters

    def consumed(self, fileid: int, block: int) -> None:
        """cached -> first in LRU order: the reader has read the block
        to its end and will not be back for it (drop-behind, Linux's
        used-once rule), so an eviction takes it before the blocks read
        ahead of the reader and not yet read."""
        row = self._rows.get((fileid, block))
        if row is not None and row.data is not None:
            self._rows.move_to_end((fileid, block), last=False)

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
        eviction order for the caller to write back.  A victim below its
        file's read-ahead cursor pulls the cursor back to it: the cursor
        may have passed it while it was cached, and the next read-ahead
        claims it again instead of its reader missing it."""
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
            self.counts.evictions += 1
            if key[1] < self.ahead.get(key[0], 0):
                self.ahead[key[0]] = key[1]
            if row.unread:
                self.stats["prefetch_evicted_unread"] += 1
            if row.dirty:
                self.dirty[key[0]].discard(key[1])
                self.dirty_bytes -= len(row.data)
                self._on_wire[key[0]] += row.wire is None
                row.wire = row.data
                victims.append((key[0], key[1], row.data))
                rows.move_to_end(key)
            row.data, row.dirty = None, False
            self._settle(key, row)
        return victims

    def written(self, victims: Iterable[DirtyItem]) -> None:
        """writing -> absent (or cached, or newer bytes still writing):
        the victims' WRITE landed, failed, or will never be sent.  A row
        left absent below its file's read-ahead cursor pulls the cursor
        back to it, as an eviction does: read-ahead skipped it while it
        was writing, and claims it again instead of its reader missing
        it."""
        for fileid, block, data in victims:
            row = self._rows.get((fileid, block))
            if row is not None and row.wire is data:
                row.wire = None
                self._on_wire[fileid] -= 1
                self._settle((fileid, block), row)
                if (row.data is None and row.fetch is None
                        and block < self.ahead.get(fileid, 0)):
                    self.ahead[fileid] = block

    def drop_file(self, fileid: int, keep_dirty: bool = False) -> None:
        """Forget a file's cached bytes — all of them (remove), or only
        the clean ones (a revalidation found the file changed under us;
        unflushed local writes stay).  Fetches and writes in flight end
        by themselves."""
        self.truncate(fileid, 0, keep_dirty)

    def truncate(self, fileid: int, size: int, keep_dirty: bool = False) -> None:
        """SETATTR(size): blocks wholly past ``size`` go and the one
        holding it is cut (or zero-extended) to it; dirty blocks below
        stay dirty (all of them, with ``keep_dirty``).  Visits only the
        file's own rows."""
        bs = self.config.block_size
        for block, row in list(self._files.get(fileid, {}).items()):
            if row.data is None or keep_dirty and row.dirty:
                continue
            n = min(max(size - block * bs, 0), bs)
            self.bytes += n - len(row.data)
            if row.dirty:
                self.dirty_bytes += n - len(row.data)
            if n:
                row.data = row.data[:n].ljust(n, b"\0")
                continue
            if row.dirty:
                self.dirty[fileid].discard(block)
            row.data, row.dirty = None, False
            self._settle((fileid, block), row)
        if not (keep_dirty or self.dirty.get(fileid)):
            self.dirty.pop(fileid, None)
            self.ahead.pop(fileid, None)

    def gather_dirty(self, fileids: Iterable[int]) -> List[DirtyItem]:
        """Take every dirty block of ``fileids`` for write-back — files in
        the order given, blocks ascending.  Each taken block is marked
        clean and *writing* until :meth:`written` (evicted meanwhile, it
        stays readable) and returned as a :data:`DirtyItem`; the blocks
        stay cached.  Their bytes are read off the cache disk as they
        leave (:meth:`read_runs`)."""
        items: List[DirtyItem] = []
        for fileid in fileids:
            for block in sorted(self.dirty.pop(fileid, ())):
                row = self._rows.get((fileid, block))
                if row is not None and row.dirty:
                    items.append(self._taken(fileid, block, row))
        return items

    def take(self, fileid: int, block: int) -> List[DirtyItem]:
        """:meth:`gather_dirty` of one block: dirty -> clean and
        *writing*, returned as a one-item list (empty when the block is
        not dirty)."""
        row = self._rows.get((fileid, block))
        if row is None or not row.dirty:
            return []
        self.dirty[fileid].discard(block)
        return [self._taken(fileid, block, row)]

    def _taken(self, fileid: int, block: int, row: _Row) -> DirtyItem:
        data = row.data
        row.dirty = False
        self.dirty_bytes -= len(data)
        self._on_wire[fileid] += row.wire is None
        row.wire = data
        return fileid, block, data

    def read_runs(self, items: List[DirtyItem]):
        """Process generator: read gathered items off the cache disk, each
        run of one file's consecutive blocks in one access, as
        :meth:`read` reads cached blocks for READs: one access per block
        when no two are consecutive."""
        if self.disk is None:
            return
        nbytes = 0
        for i, (fileid, block, data) in enumerate(items):
            nbytes += len(data)
            nxt = items[i + 1][:2] if i + 1 < len(items) else None
            if nxt != (fileid, block + 1):
                yield from self.disk.read(nbytes, cached=False)
                nbytes = 0

    # -- background processes ----------------------------------------------

    def track(self, proc: Process, keys: Iterable[Tuple[int, int]],
              writes: bool) -> None:
        """List a read-ahead (or, ``writes``, write-back) process and
        the blocks it carries, until it ends — or, failed, is joined."""
        if len(self._procs) >= self._listed:
            self._prune()  # amortized: the list at most doubles in between
        self._procs[proc] = (writes, frozenset(keys))

    def _prune(self) -> None:
        # an ended process leaves the list (and frees what it returned)
        for proc in [p for p in self._procs if not p.alive and not p.completion.failed]:
            del self._procs[proc]
        self._listed = 2 * len(self._procs) + 8

    def background(self, fileid: Optional[int] = None,
                   writes: bool = False) -> List[Process]:
        """The listed read-ahead (or write-back) processes carrying a
        block of ``fileid`` (of any file when None), oldest first."""
        self._prune()
        return [p for p, (w, keys) in self._procs.items() if w == writes
                and (fileid is None or any(f == fileid for f, _b in keys))]

    def _joinable(self, proc: Process) -> bool:
        # listed, and alive or failed with its error not yet raised
        return proc in self._procs and (proc.alive or proc.completion.failed)

    def join(self, proc: Process):
        """Process generator: wait for a process still listed; one that
        failed raises here, once."""
        if self._joinable(proc):
            try:
                yield proc
            finally:
                self._procs.pop(proc, None)

    def drain(self, fileid: Optional[int] = None):
        """Process generator: join the listed read-ahead, then the write-
        back, of ``fileid`` (of every file when None).  Read-ahead goes
        first: the blocks it caches may evict more victims.  Each group
        is joined oldest first, as :meth:`join` one by one would, but
        the drainer wakes once for it (see :meth:`_joined`)."""
        for writes in (False, True):
            procs = self.background(fileid, writes)
            if any(map(self._joinable, procs)):
                yield self._joined(procs)

    def _joined(self, procs: List[Process]) -> Event:
        """An event that fires once ``procs`` are joined in order, each
        when the one before has ended — or that fails, at the first found
        failed, with its error (raised once: it leaves the list; the
        later ones are not joined).  The waits chain on the processes'
        completions, so no process wakes in between, and the event fires
        in the last completion's dispatch, not one of its own."""
        done = self.sim.event(name="drain")
        todo = iter(procs)

        def step(ended: Process) -> None:
            self._procs.pop(ended, None)
            if ended.completion.failed:
                done.fire_now(exc=ended.completion.exception)
            elif not wait():
                done.fire_now()

        def wait() -> bool:
            for proc in todo:
                if self._joinable(proc):
                    proc.completion.add_callback(lambda _ev, p=proc: step(p))
                    return True
            return False

        if not wait():
            done.succeed()
        return done

    def slot(self, victims: List[DirtyItem], depth: int):
        """Process generator: the victims no newer eviction of their block
        superseded, once no earlier write of their blocks and fewer than
        ``depth`` write-behind bursts are in flight — joining the oldest
        such burst, never whichever finishes first, while there are.
        Each listed write-back process carries one burst, sent whole
        when it starts, so the one joined left no later than the wait
        began."""
        while True:
            items = [v for v in victims
                     if getattr(self._rows.get(v[:2]), "wire", None) is v[2]]
            keys = {v[:2] for v in items}
            bursts = self.background(writes=True)
            older = [p for p in bursts if not keys.isdisjoint(self._procs[p][1])]
            if not older and len(bursts) < depth:
                return items
            yield from self.join((older or bursts)[0])


@dataclass
class Page:
    """A block as ``bench/micro.py`` hands one to :class:`PageCache`."""

    data: bytes
    dirty: bool = False


class PageCache(BlockCache):
    """The kernel client's table built the way ``bench/micro.py`` builds
    it (that benchmark file is kept as it is): its ``get`` is the page
    cache hit the client makes."""

    def __init__(self, capacity_bytes: int, block_size: int):
        super().__init__(None, CacheSize(block_size, capacity_bytes))

    def put(self, fileid: int, block: int, page: Page) -> List[DirtyItem]:
        for _ in (self.write if page.dirty else self.fill)(fileid, block, page.data):
            pass
        return self.evict((fileid, block), 1)
