"""Client-side memory caches: attributes, names, access bits, pages.

These model the Linux kernel NFS client's caching machinery the paper's
baselines rely on:

- an attribute cache with adaptive timeouts (acregmin..acregmax style:
  the timeout doubles while the file is observed unchanged),
- a dentry (name lookup) cache,
- an ACCESS-result cache,
- a bounded LRU page cache holding clean and dirty file blocks; the
  paper's IOzone setup is sized so the *sequential* read of a file
  twice the cache size defeats LRU exactly as it does in the kernel.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.nfs.protocol import Fattr3, FileHandle


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


@dataclass
class Page:
    data: bytes
    dirty: bool = False


class PageCache:
    """Bounded LRU of (fileid, block) -> Page.

    Eviction returns dirty victims to the caller (which must write them
    back); clean pages are simply dropped — exactly the split a kernel
    page cache makes.

    A per-file index (fileid -> block -> Page) moves with every touch
    the LRU moves, so each file's blocks stay in LRU order restricted to
    that file: ``dirty_pages(fileid)`` and ``drop_file`` visit one
    file's pages, in the order a scan of the whole cache would.
    """

    def __init__(self, capacity_bytes: int, block_size: int):
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self._pages: "OrderedDict[Tuple[int, int], Page]" = OrderedDict()
        self._by_file: "Dict[int, OrderedDict[int, Page]]" = {}
        self._bytes = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def get(self, fileid: int, block: int) -> Optional[Page]:
        key = (fileid, block)
        page = self._pages.get(key)
        if page is None:
            self.stats.miss()
            return None
        self._pages.move_to_end(key)
        self._by_file[fileid].move_to_end(block)
        self.stats.hit()
        return page

    def peek(self, fileid: int, block: int) -> Optional[Page]:
        return self._pages.get((fileid, block))

    def put(self, fileid: int, block: int, page: Page) -> list[Tuple[int, int, Page]]:
        """Insert; returns a list of evicted *dirty* (fileid, block, page)."""
        key = (fileid, block)
        blocks = self._by_file.get(fileid)
        if blocks is None:
            blocks = self._by_file[fileid] = OrderedDict()
        old = self._pages.pop(key, None)
        if old is not None:
            self._bytes -= len(old.data)
            del blocks[block]
        self._pages[key] = page
        blocks[block] = page
        self._bytes += len(page.data)
        victims: list[Tuple[int, int, Page]] = []
        # The fresh insert is the newest of at least two pages, so the
        # oldest is never it: an oversized page stays, alone.
        while self._bytes > self.capacity_bytes and len(self._pages) > 1:
            vkey, vpage = self._pages.popitem(last=False)
            vblocks = self._by_file[vkey[0]]
            del vblocks[vkey[1]]
            if not vblocks:
                del self._by_file[vkey[0]]
            self._bytes -= len(vpage.data)
            self.stats.evict()
            if vpage.dirty:
                victims.append((vkey[0], vkey[1], vpage))
        return victims

    def dirty_pages(self, fileid: Optional[int] = None):
        if fileid is None:
            for (fid, block), page in list(self._pages.items()):
                if page.dirty:
                    yield fid, block, page
            return
        for block, page in list(self._by_file.get(fileid, {}).items()):
            if page.dirty:
                yield fileid, block, page

    def drop_file(self, fileid: int) -> None:
        for block, page in self._by_file.pop(fileid, {}).items():
            self._bytes -= len(page.data)
            del self._pages[(fileid, block)]

    def clear(self) -> None:
        self._pages.clear()
        self._by_file.clear()
        self._bytes = 0
