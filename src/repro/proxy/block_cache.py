"""The client proxy's disk block cache: blocks, LRU, dirty bookkeeping.

File data is cached in fixed-size blocks on the proxy's disk (§6.1).
This module owns the three pieces of state that must move together —
the LRU-ordered block table, its byte count, and the per-file dirty set
— and the two decisions made over them: which blocks an insert evicts,
and which blocks a flush takes.  It charges the cache disk for what it
touches but never talks to the network: evicted and flushed dirty blocks
are *returned* to :class:`repro.proxy.client_proxy.SgfsClientProxy`,
which writes them back.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.core import Simulator
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


@dataclass
class _Block:
    data: bytes
    dirty: bool = False


class BlockCache:
    """LRU cache of ``(fileid, block)`` -> data with a dirty set.

    Of ``config`` only ``block_size`` and ``capacity_bytes`` are read,
    on every use, so a live configuration reload (which swaps
    ``config``) takes effect at the next insert."""

    def __init__(self, sim: Simulator, config: ProxyCacheConfig,
                 disk: Optional[DiskModel] = None):
        self.sim = sim
        self.config = config
        self.disk = disk
        self._blocks: "OrderedDict[Tuple[int, int], _Block]" = OrderedDict()
        self.bytes = 0
        #: fileid -> set of dirty block indexes
        self.dirty: Dict[int, Set[int]] = {}

    # -- disk timing -------------------------------------------------------

    def disk_read(self, nbytes: int):
        if self.disk is not None:
            yield from self.disk.read(nbytes, cached=False)

    def disk_write(self, nbytes: int):
        if self.disk is not None:
            yield from self.disk.write(nbytes, sync=False)

    # -- lookup and insert -------------------------------------------------

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._blocks

    def get(self, fileid: int, block: int):
        """Process generator: the block's data (touching its LRU
        position and paying the disk read), or None on a miss."""
        key = (fileid, block)
        entry = self._blocks.get(key)
        if entry is None:
            return None
        self._blocks.move_to_end(key)
        yield from self.disk_read(len(entry.data))
        return entry.data

    def put(self, fileid: int, block: int, data: bytes, dirty: bool):
        """Process generator: insert or replace a block, paying the
        disk write.  A clean put over a dirty block keeps it dirty —
        the unflushed bytes are still the only copy."""
        key = (fileid, block)
        old = self._blocks.pop(key, None)
        if old is not None:
            self.bytes -= len(old.data)
            if old.dirty:
                dirty = True
        self._blocks[key] = _Block(data, dirty)
        self.bytes += len(data)
        if dirty:
            self.dirty.setdefault(fileid, set()).add(block)
        yield from self.disk_write(len(data))

    # -- eviction ----------------------------------------------------------

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
        """Drop least-recently-used blocks (never ``keep``, the block
        just inserted) while over capacity; returns the dirty victims
        in eviction order for the caller to write back.

        Victims' dirty marks are cleared here, *before* the caller
        yields to the (slow) write-back: a writer that re-dirties a
        block while its WRITE is in flight must not have the new mark
        wiped out afterwards, or the new data would never flush."""
        victims: List[DirtyItem] = []
        if self.bytes <= self.config.capacity_bytes:
            return victims
        target = self.low_water(window)
        while self.bytes > target and len(self._blocks) > 1:
            vkey, vblock = next(iter(self._blocks.items()))
            if vkey == keep:
                break
            del self._blocks[vkey]
            self.bytes -= len(vblock.data)
            if vblock.dirty:
                self.dirty.get(vkey[0], set()).discard(vkey[1])
                victims.append((vkey[0], vkey[1], vblock.data))
        return victims

    def drop_file(self, fileid: int, keep_dirty: bool = False) -> None:
        """Forget a file's blocks — all of them (truncate, remove), or
        only the clean ones (a revalidation found the file changed
        under us; unflushed local writes stay)."""
        for key in [k for k in self._blocks if k[0] == fileid]:
            if keep_dirty and self._blocks[key].dirty:
                continue
            self.bytes -= len(self._blocks[key].data)
            del self._blocks[key]
        if not keep_dirty:
            self.dirty.pop(fileid, None)

    # -- flushing ----------------------------------------------------------

    def gather_dirty(self, fileids: Iterable[int]):
        """Process generator: take every dirty block of ``fileids`` for
        write-back — files in the order given, blocks ascending.  Each
        taken block is marked clean, read off the cache disk, and
        returned as a :data:`DirtyItem`; the blocks stay cached."""
        items: List[DirtyItem] = []
        for fileid in fileids:
            for block in sorted(self.dirty.pop(fileid, ())):
                entry = self._blocks.get((fileid, block))
                if entry is None or not entry.dirty:
                    continue
                entry.dirty = False
                yield from self.disk_read(len(entry.data))
                items.append((fileid, block, entry.data))
        return items

    @property
    def dirty_bytes(self) -> int:
        return sum(
            len(self._blocks[(f, b)].data)
            for f, blocks in self.dirty.items()
            for b in blocks
            if (f, b) in self._blocks
        )
