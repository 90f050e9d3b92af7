"""NFSv3 client with kernel-like caching semantics.

Reproduces the behaviors of a 2007-era Linux kernel NFS client that the
paper's evaluation leans on:

- **attribute cache** with adaptive timeouts; data is revalidated when a
  file is reopened or its attributes time out (§6.1 "Kernel NFS
  implementations use only memory for caching and revalidate the cached
  data when the file is reopened or its attributes have timed out"),
- **page cache** bounded by the client's memory, LRU replacement — sized
  correctly, a sequential read of a file larger than the cache gets no
  reuse, which is the IOzone worst case.  It is the client proxy's
  block table (:class:`repro.nfs.cache.BlockCache`), kept in memory,
- **read-ahead** on sequential access,
- **write-behind**: dirty pages accumulate and flush asynchronously as
  UNSTABLE writes, made durable with COMMIT at close (close-to-open
  consistency).

All public operations are process generators (``yield from``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.nfs import protocol as pr
from repro.nfs.cache import AccessCache, AttrCache, BlockCache, CacheSize, NameCache
from repro.nfs.protocol import Fattr3, FileHandle, NfsStatus, Proc, Sattr3
from repro.obs import NULL_SPAN, Histogram
from repro.rpc.auth import AuthSys
from repro.rpc.client import RpcClient
from repro.rpc.errors import RpcTransportError
from repro.rpc.transport import DIAL_ERRORS
from repro.sim.core import Event, Simulator
from repro.sim.sync import Semaphore
from repro.vfs.fs import Ftype, Status


#: copy cost for page-cache hits (memcpy-class, ~1.6 GB/s)
CACHE_HIT_COST_PER_BYTE = 6e-10

#: first pause, and longest pause, of the hard-mount reconnect ladder
#: (virtual seconds)
RETRANS_BASE = 1.0
RETRANS_CAP = 30.0


class NfsClientError(Exception):
    """An NFS operation returned a non-OK status."""

    def __init__(self, status: int, detail: str = ""):
        try:
            name = Status(status).name
        except ValueError:
            name = str(status)
        super().__init__(f"NFS error {name}{': ' + detail if detail else ''}")
        self.status = status


def _check(status: int, detail: str = "") -> None:
    if status != NfsStatus.OK:
        raise NfsClientError(status, detail)


@dataclass
class OpenFile:
    """An open file description."""

    fh: FileHandle
    fileid: int
    path: str
    size: int
    seq: int = field(default_factory=itertools.count(1).__next__)
    closed: bool = False
    #: last block read, for sequential-access detection; -1 makes the
    #: very first read at offset 0 count as sequential (kernel behavior)
    last_block: int = -1
    #: blocks UNSTABLE-written since the last COMMIT
    uncommitted: int = 0


class NfsClient:
    """The mountpoint object workloads drive."""

    def __init__(
        self,
        sim: Simulator,
        rpc: RpcClient,
        root_fh: FileHandle,
        cred: AuthSys,
        block_size: int = 32768,
        cache_bytes: int = 64 * 1024 * 1024,
        read_ahead_blocks: int = 2,
        max_async_io: int = 8,
        ac_reg_min: float = 3.0,
        ac_reg_max: float = 60.0,
        reconnect=None,
        timeo: Optional[float] = None,
    ):
        """``reconnect`` (optional) is a process generator returning a
        fresh RpcClient; when set, transport failures are retried after
        reconnecting — NFS *hard mount* semantics.  Without it, a dead
        connection fails the operation (soft mount).

        ``timeo`` (optional) is a reply timeout in virtual seconds: when
        set, an in-flight request is retransmitted with the same xid up
        to ``timeo_retrans`` times on a doubling timer before the
        transport is declared dead — the defence against silent packet
        loss, where the connection never visibly breaks."""
        self.sim = sim
        self.rpc = rpc
        self.reconnect = reconnect
        #: hard-mount retry ladder: reconnect attempts per operation, and
        #: the growth of the pause before each (RETRANS_BASE seconds
        #: times this to the attempt's power, at most RETRANS_CAP)
        self.retrans_max = 5
        self.retrans_backoff = 1.1
        self.timeo = timeo
        self.timeo_retrans = 3
        self.obs = sim.obs
        self._c_retrans = self.obs.counter("nfs.client", "retransmissions")
        self.tracer = sim.tracer
        self._h_latency: Dict[str, Histogram] = {}  # by proc name, bound on first use
        self.root_fh = root_fh
        self.cred = cred
        self.block_size = block_size
        self.read_ahead_blocks = read_ahead_blocks
        self.attrs = AttrCache(
            lambda: sim.now, ac_reg_min=ac_reg_min, ac_reg_max=ac_reg_max
        )
        self.names = NameCache()
        self.access_cache = AccessCache(lambda: sim.now)
        #: every cached block's state, and the read-ahead and write-back
        #: processes in flight
        self.pages = BlockCache(sim, CacheSize(block_size, cache_bytes))
        self._io_slots = Semaphore(sim, max_async_io, name="biod")
        self._handles: Dict[int, FileHandle] = {1: root_fh}
        self.dirty_flush_threshold = max(cache_bytes // 4, block_size * 8)
        #: directory listing cache: dir fileid -> (mtime, entries)
        self._dir_cache: Dict[int, Tuple[float, List[pr.DirEntry]]] = {}
        self.attrs.stats.register(self.obs, "nfs.cache", "attr")
        self.names.stats.register(self.obs, "nfs.cache", "name")
        self.access_cache.stats.register(self.obs, "nfs.cache", "access")
        self.pages.counts.register(self.obs, "nfs.cache", "page")

    # ------------------------------------------------------------------
    # low-level call helper
    # ------------------------------------------------------------------

    def _call(self, proc: Proc, args: bytes):
        attempt = 0
        start = self.sim.now
        name = proc.name if isinstance(proc, Proc) else str(proc)
        # One xid for the whole operation, across retransmissions and
        # reconnects: the server's duplicate-request cache (repro.rpc.drc)
        # keys on it, so a retransmitted non-idempotent procedure
        # (REMOVE/RENAME/MKDIR/exclusive CREATE) replays the original
        # reply instead of re-executing.
        xid = RpcClient.next_xid()
        while True:
            try:
                res = yield from self.rpc.call(
                    int(proc),
                    args,
                    self.cred.to_opaque(),
                    xid=xid,
                    timeout=self.timeo,
                    retrans=self.timeo_retrans,
                )
                break
            except RpcTransportError as exc:
                if self.reconnect is None:
                    # Soft mount: surface a filesystem-level error naming
                    # the procedure, like errno=EIO from a kernel mount.
                    raise NfsClientError(
                        Status.IO, f"{name} failed on soft mount: {exc}"
                    ) from exc
                if attempt >= self.retrans_max:
                    raise
                attempt += 1
                self._c_retrans.inc()
                yield self.sim.timeout(
                    min(RETRANS_CAP, RETRANS_BASE * self.retrans_backoff ** attempt)
                )
                try:
                    self.rpc = yield from self.reconnect()
                except DIAL_ERRORS:
                    # Server still down (connection refused): the next
                    # call on the dead client fails fast and we retry
                    # within the same attempt budget.
                    continue
        if self.obs.enabled:
            hist = self._h_latency.get(name)
            if hist is None:
                hist = self._h_latency[name] = self.obs.histogram(
                    "nfs.client", "latency", proc=name
                )
            hist.observe(self.sim.now - start)
        return res

    def _remember(self, fh: FileHandle, attr: Optional[Fattr3]) -> None:
        if attr is not None:
            self._note_change(attr)
            self.attrs.put(attr)
            self._handles[attr.fileid] = fh

    def _note_change(self, attr: Fattr3) -> None:
        """Close-to-open revalidation: drop stale cached data on change
        (dirty blocks stay: they are the only copy of local writes)."""
        old = self.attrs.peek(attr.fileid)
        if old is not None and (old.mtime != attr.mtime or old.size != attr.size):
            self.pages.drop_file(attr.fileid, keep_dirty=True)
            self._dir_cache.pop(attr.fileid, None)
            if attr.is_dir:
                self.names.invalidate_dir(attr.fileid)

    # ------------------------------------------------------------------
    # attributes & lookup
    # ------------------------------------------------------------------

    def getattr_fh(self, fh: FileHandle, force: bool = False):
        """Attributes for a handle, honoring the attribute cache."""
        if not force:
            cached = self.attrs.get(fh.fileid)
            if cached is not None:
                return cached
        res = yield from self._call(Proc.GETATTR, pr.pack_getattr_args(fh))
        status, attr = pr.unpack_getattr_res(res)
        _check(status, "GETATTR")
        assert attr is not None
        self._remember(fh, attr)
        return attr

    def lookup(self, dir_fh: FileHandle, name: str):
        """One component lookup; returns (fh, attr)."""
        hit = self.names.get(dir_fh.fileid, name)
        if hit is not None:
            fh, fileid = hit
            attr = self.attrs.get(fileid)
            if attr is not None:
                return fh, attr
        res = yield from self._call(Proc.LOOKUP, pr.pack_lookup_args(dir_fh, name))
        status, fh, attr, dir_attr = pr.unpack_lookup_res(res)
        if dir_attr is not None:
            self._remember(dir_fh, dir_attr)
        _check(status, f"LOOKUP {name}")
        assert fh is not None
        if attr is None:
            attr = yield from self.getattr_fh(fh, force=True)
        self._remember(fh, attr)
        self.names.put(dir_fh.fileid, name, fh, attr.fileid)
        return fh, attr

    @staticmethod
    def _components(path: str) -> List[str]:
        return [p for p in path.split("/") if p]

    def resolve(self, path: str):
        """Walk a path from the root; returns (fh, attr)."""
        fh = self.root_fh
        attr = yield from self.getattr_fh(fh)
        for name in self._components(path):
            if not attr.is_dir:
                raise NfsClientError(Status.NOTDIR, path)
            fh, attr = yield from self.lookup(fh, name)
        return fh, attr

    def resolve_parent(self, path: str):
        """Returns (dir_fh, dir_attr, leaf_name)."""
        comps = self._components(path)
        if not comps:
            raise NfsClientError(Status.INVAL, "path has no leaf")
        fh = self.root_fh
        attr = yield from self.getattr_fh(fh)
        for name in comps[:-1]:
            fh, attr = yield from self.lookup(fh, name)
            if not attr.is_dir:
                raise NfsClientError(Status.NOTDIR, path)
        return fh, attr, comps[-1]

    def stat(self, path: str):
        _fh, attr = yield from self.resolve(path)
        return attr

    def exists(self, path: str):
        try:
            yield from self.resolve(path)
            return True
        except NfsClientError as exc:
            if exc.status in (Status.NOENT, Status.NOTDIR):
                return False
            raise

    def access(self, path: str, want: int):
        """ACCESS with result caching (what makes SFS-style caching pay)."""
        fh, _attr = yield from self.resolve(path)
        cached = self.access_cache.get(fh.fileid, self.cred.uid)
        if cached is not None:
            return cached & want
        res = yield from self._call(Proc.ACCESS, pr.pack_access_args(fh, pr.ACCESS_ALL))
        status, attr, granted = pr.unpack_access_res(res)
        if attr is not None:
            self._remember(fh, attr)
        _check(status, "ACCESS")
        self.access_cache.put(fh.fileid, self.cred.uid, granted)
        return granted & want

    def setattr(self, path: str, sattr: Sattr3):
        fh, _attr = yield from self.resolve(path)
        if sattr.size is not None:
            # as Linux's nfs_setattr: no write or fetch of the file in
            # flight may land on the far side of the new size
            yield from self.pages.drain(fh.fileid)
        return (yield from self._setattr(fh, sattr, "SETATTR"))

    def _setattr(self, fh: FileHandle, sattr: Sattr3, what: str):
        if sattr.size is not None:
            # before the revalidation below drops the clean blocks: the
            # dirty ones under the new size stay, cut to it
            yield from self._cut(fh.fileid, sattr.size)
        res = yield from self._call(Proc.SETATTR, pr.pack_setattr_args(fh, sattr))
        status, after = pr.unpack_setattr_res(res)
        _check(status, what)
        self._remember(fh, after)
        return after

    def _cut(self, fileid: int, size: int):
        """Process generator: drop the file's cached bytes past ``size``,
        then wait for the write-backs already carrying any of them, so no
        WRITE past ``size`` is in flight or can start later (an insert of
        another file evicts this file's dirty blocks at any time)."""
        self.pages.truncate(fileid, size)
        yield from self.pages.drain(fileid)

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755):
        dir_fh, _da, name = yield from self.resolve_parent(path)
        res = yield from self._call(
            Proc.MKDIR, pr.pack_mkdir_args(dir_fh, name, Sattr3(mode=mode))
        )
        status, fh, attr, dir_after = pr.unpack_create_res(res)
        self._mutated_dir(dir_fh, dir_after)
        _check(status, f"MKDIR {path}")
        assert fh is not None
        self._remember(fh, attr)
        self.names.put(dir_fh.fileid, name, fh, attr.fileid if attr else 0)
        return fh

    def create(self, path: str, mode: int = 0o644, exclusive: bool = False):
        dir_fh, _da, name = yield from self.resolve_parent(path)
        res = yield from self._call(
            Proc.CREATE,
            pr.pack_create_args(
                dir_fh, name, Sattr3(mode=mode),
                mode=pr.GUARDED if exclusive else pr.UNCHECKED,
            ),
        )
        status, fh, attr, dir_after = pr.unpack_create_res(res)
        self._mutated_dir(dir_fh, dir_after)
        _check(status, f"CREATE {path}")
        assert fh is not None and attr is not None
        self._remember(fh, attr)
        self.names.put(dir_fh.fileid, name, fh, attr.fileid)
        return OpenFile(fh=fh, fileid=attr.fileid, path=path, size=attr.size)

    def symlink(self, path: str, target: str):
        dir_fh, _da, name = yield from self.resolve_parent(path)
        res = yield from self._call(
            Proc.SYMLINK, pr.pack_symlink_args(dir_fh, name, target, Sattr3())
        )
        status, fh, attr, dir_after = pr.unpack_create_res(res)
        self._mutated_dir(dir_fh, dir_after)
        _check(status, f"SYMLINK {path}")
        self._remember(fh, attr)
        return fh

    def readlink(self, path: str):
        fh, attr = yield from self.resolve(path)
        if attr.ftype != Ftype.LNK:
            raise NfsClientError(Status.INVAL, "not a symlink")
        res = yield from self._call(Proc.READLINK, pr.pack_readlink_args(fh))
        status, attr2, target = pr.unpack_readlink_res(res)
        if attr2 is not None:
            self._remember(fh, attr2)
        _check(status, "READLINK")
        return target

    def unlink(self, path: str):
        dir_fh, _da, name = yield from self.resolve_parent(path)
        hit = self.names.get(dir_fh.fileid, name)
        res = yield from self._call(Proc.REMOVE, pr.pack_remove_args(dir_fh, name))
        status, dir_after = pr.unpack_remove_res(res)
        self._mutated_dir(dir_fh, dir_after)
        self.names.invalidate(dir_fh.fileid, name)
        if hit is not None:
            self.pages.drop_file(hit[1])
            self.attrs.invalidate(hit[1])
        _check(status, f"REMOVE {path}")

    def rmdir(self, path: str):
        dir_fh, _da, name = yield from self.resolve_parent(path)
        res = yield from self._call(Proc.RMDIR, pr.pack_remove_args(dir_fh, name))
        status, dir_after = pr.unpack_remove_res(res)
        self._mutated_dir(dir_fh, dir_after)
        self.names.invalidate(dir_fh.fileid, name)
        _check(status, f"RMDIR {path}")

    def rename(self, from_path: str, to_path: str):
        from_fh, _fa, from_name = yield from self.resolve_parent(from_path)
        to_fh, _ta, to_name = yield from self.resolve_parent(to_path)
        res = yield from self._call(
            Proc.RENAME, pr.pack_rename_args(from_fh, from_name, to_fh, to_name)
        )
        status, from_after, to_after = pr.unpack_rename_res(res)
        self._mutated_dir(from_fh, from_after)
        self._mutated_dir(to_fh, to_after)
        self.names.invalidate(from_fh.fileid, from_name)
        self.names.invalidate(to_fh.fileid, to_name)
        _check(status, f"RENAME {from_path} -> {to_path}")

    def link(self, existing: str, new_path: str):
        fh, _attr = yield from self.resolve(existing)
        dir_fh, _da, name = yield from self.resolve_parent(new_path)
        res = yield from self._call(Proc.LINK, pr.pack_link_args(fh, dir_fh, name))
        status, attr, dir_after = pr.unpack_link_res(res)
        self._mutated_dir(dir_fh, dir_after)
        if attr is not None:
            self._remember(fh, attr)
        _check(status, f"LINK {new_path}")

    def _mutated_dir(self, dir_fh: FileHandle, dir_after: Optional[Fattr3]) -> None:
        self._dir_cache.pop(dir_fh.fileid, None)
        if dir_after is not None:
            self._remember(dir_fh, dir_after)
        else:
            self.attrs.invalidate(dir_fh.fileid)

    def readdir(self, path: str, plus: bool = False):
        """Full listing of a directory (list of DirEntry)."""
        fh, attr = yield from self.resolve(path)
        if not attr.is_dir:
            raise NfsClientError(Status.NOTDIR, path)
        cached = self._dir_cache.get(fh.fileid)
        if cached is not None and cached[0] == attr.mtime:
            return cached[1]
        entries: List[pr.DirEntry] = []
        cookie = 0
        proc = Proc.READDIRPLUS if plus else Proc.READDIR
        while True:
            res = yield from self._call(
                proc, pr.pack_readdir_args(fh, cookie=cookie, plus=plus)
            )
            status, dir_attr, batch, eof = pr.unpack_readdir_res(res, plus=plus)
            if dir_attr is not None:
                self._remember(fh, dir_attr)
            _check(status, f"READDIR {path}")
            entries.extend(batch)
            if plus:
                for e in batch:
                    if e.handle is not None and e.attr is not None:
                        self._remember(e.handle, e.attr)
                        self.names.put(fh.fileid, e.name, e.handle, e.fileid)
            if eof or not batch:
                break
            cookie = batch[-1].cookie
        entries = [e for e in entries if e.name not in (".", "..")]
        self._dir_cache[fh.fileid] = (attr.mtime, entries)
        return entries

    # ------------------------------------------------------------------
    # file data
    # ------------------------------------------------------------------

    def open(self, path: str, create: bool = False, truncate: bool = False,
             mode: int = 0o644, write: bool = False):
        """Open with close-to-open semantics: revalidate on every open.

        As Linux's ``nfs_may_open``, the open is checked against the
        ACCESS bits: a read open needs READ, a write open (``write``,
        ``create`` or ``truncate``) MODIFY or EXTEND; else it fails with
        ``ACCES``.  Only the open is checked: a revoke reaches an open
        file's later calls no sooner than the access cache's timeout."""
        try:
            fh, attr = yield from self.resolve(path)
        except NfsClientError as exc:
            if exc.status == Status.NOENT and create:
                f = yield from self.create(path, mode=mode)
                return f
            raise
        if attr.is_dir:
            raise NfsClientError(Status.ISDIR, path)
        if truncate:  # nothing of the old contents may land after it
            yield from self.pages.drain(fh.fileid)
        # Close-to-open: force a fresh GETATTR, dropping stale pages.
        attr = yield from self.getattr_fh(fh, force=True)
        # Kernel open() also permission-checks via ACCESS (cached).
        granted = self.access_cache.get(fh.fileid, self.cred.uid)
        if granted is None:
            res = yield from self._call(
                Proc.ACCESS, pr.pack_access_args(fh, pr.ACCESS_ALL)
            )
            status, a_attr, bits = pr.unpack_access_res(res)
            if status == NfsStatus.OK:
                if a_attr is not None:
                    self.attrs.put(a_attr)
                self.access_cache.put(fh.fileid, self.cred.uid, bits)
                granted = bits
        need = (pr.ACCESS_MODIFY | pr.ACCESS_EXTEND if write or create or truncate
                else pr.ACCESS_READ)
        if granted is not None and not granted & need:
            raise NfsClientError(Status.ACCES, f"open {path}")
        if truncate and attr.size:
            after = yield from self._setattr(fh, Sattr3(size=0), f"O_TRUNC {path}")
            attr = after if after is not None else attr
        elif truncate:  # the server's file is empty; local writes go too
            yield from self._cut(fh.fileid, 0)
        return OpenFile(fh=fh, fileid=attr.fileid, path=path, size=attr.size)

    def _fetch_block(self, f: OpenFile, block: int, got=None):
        """READ one block into the table; returns its bytes.

        ``got`` is what the table holds of it: a fetch in flight
        (foreground read racing read-ahead) is waited for, not repeated,
        like the kernel's page lock.
        """
        while isinstance(got, Event):
            landed = yield got
            got = self.pages.peek(f.fileid, block) if landed is None else landed
        if got is not None:
            return got
        self.pages.claim(f.fileid, [block])
        try:
            offset = block * self.block_size
            with self.tracer.span("nfs.cache.fill", cat="nfs-cache",
                                  fileid=f.fileid,
                                  block=block) if self.tracer.enabled else NULL_SPAN:
                res = yield from self._call(
                    Proc.READ, pr.pack_read_args(f.fh, offset, self.block_size)
                )
            status, attr, data, _eof = pr.unpack_read_res(res)
            if attr is not None:
                self.attrs.put(attr)
                # the server's size, unless local writes are not all there
                f.size = (max(f.size, attr.size) if self.pages.unflushed(f.fileid)
                          else attr.size)
            _check(status, f"READ {f.path}@{offset}")
            yield from self.pages.fill(f.fileid, block, data)
            self._evict(f.fileid, block)
        finally:
            self.pages.landed(f.fileid, [block])
        return self.pages.peek(f.fileid, block)

    def _evict(self, fileid: int, block: int) -> None:
        """Write back the dirty blocks an insert pushed out, in the
        background; each stays readable until its WRITE lands."""
        self._write_back(self.pages.evict((fileid, block), 1), note=False)

    def _write_back(self, items, note: bool) -> None:
        """Hand dirty blocks to biod: one UNSTABLE WRITE per block, in a
        background process the table lists until it ends.  ``note``: the
        reply's attributes are recorded (a flush's are; an eviction's
        are not)."""
        for item in items:
            proc = self.sim.spawn(self._send(item, note), name=f"wb:{item[0]}:{item[1]}")
            self.pages.track(proc, [item[:2]], writes=True)

    def _send(self, item, note: bool):
        fileid, block, data = item
        if not self._io_slots.try_acquire():
            yield self._io_slots.acquire()
        try:
            with self.tracer.span("nfs.cache.flush", cat="nfs-cache",
                                  fileid=fileid,
                                  block=block) if self.tracer.enabled else NULL_SPAN:
                res = yield from self._call(
                    Proc.WRITE,
                    pr.pack_write_args(self._handles[fileid], block * self.block_size,
                                       data, pr.UNSTABLE),
                )
            status, after, _count, _committed, _verf = pr.unpack_write_res(res)
            _check(status, f"WRITE block {block}")
            if note and after is not None:
                self.attrs.put(after)
        finally:
            self._io_slots.release()
            self.pages.written([item])

    def read(self, f: OpenFile, offset: int, count: int):
        """Read bytes, serving from cache, with sequential read-ahead."""
        if f.closed:
            raise NfsClientError(Status.INVAL, "read on closed file")
        out = bytearray()
        end = min(offset + count, f.size) if f.size is not None else offset + count
        pos = offset
        while pos < end:
            block = pos // self.block_size
            data = self.pages.get(f.fileid, block)
            if not isinstance(data, bytes):
                data = yield from self._fetch_block(f, block, data)
                # Sequential? kick off read-ahead for the following blocks.
                if block == f.last_block + 1 and self.read_ahead_blocks > 0:
                    self._read_ahead(f, block + 1)
            f.last_block = block
            # a block short of the file's size (a hole the server lacks,
            # or cut by a truncate before the file grew): zeros follow
            data = data.ljust(min(self.block_size, f.size - block * self.block_size), b"\0")
            inner = pos - block * self.block_size
            take = min(end - pos, len(data) - inner)
            if take <= 0:
                break  # short block: EOF
            out.extend(data[inner : inner + take])
            pos += take
        # the copy out of the page cache is not free, just cheap
        if self.rpc.cpu is not None and out:
            yield from self.rpc.cpu.consume(
                len(out) * CACHE_HIT_COST_PER_BYTE, self.rpc.account
            )
        return bytes(out)

    def _read_ahead(self, f: OpenFile, first_block: int) -> None:
        """Fetch the next blocks in the background (the reader does not
        wait for them), each in a process the table lists."""
        last = (max(f.size - 1, 0)) // self.block_size
        for b in range(first_block, min(first_block + self.read_ahead_blocks, last + 1)):
            if not isinstance(self.pages.peek(f.fileid, b), bytes):
                proc = self.sim.spawn(self._ahead(f, b), name=f"ra:{f.fileid}:{b}")
                self.pages.track(proc, [(f.fileid, b)], writes=False)

    def _ahead(self, f: OpenFile, block: int):
        if not self._io_slots.try_acquire():
            yield self._io_slots.acquire()
        try:
            yield from self._fetch_block(f, block, self.pages.peek(f.fileid, block))
        except NfsClientError:
            pass  # read-ahead failures are silent
        finally:
            self._io_slots.release()

    def write(self, f: OpenFile, offset: int, data: bytes):
        """Write into the page cache; dirty blocks go back in the
        background past the dirty threshold, and at fsync/close."""
        if f.closed:
            raise NfsClientError(Status.INVAL, "write on closed file")
        pos = offset
        remaining = memoryview(bytes(data))
        while remaining.nbytes > 0:
            block = pos // self.block_size
            inner = pos - block * self.block_size
            take = min(self.block_size - inner, remaining.nbytes)
            got = self.pages.get(f.fileid, block)
            if not isinstance(got, bytes):
                partial = inner or take < self.block_size
                if partial and block * self.block_size < f.size:
                    got = yield from self._fetch_block(f, block, got)  # read-modify-write
                else:
                    got = b""  # fully overwritten, or past EOF
            buf = bytearray(got)
            if len(buf) < inner + take:
                buf.extend(b"\x00" * (inner + take - len(buf)))
            buf[inner : inner + take] = remaining[:take].tobytes()
            yield from self.pages.write(f.fileid, block, bytes(buf))
            self._evict(f.fileid, block)
            pos += take
            remaining = remaining[take:]
        f.size = max(f.size, offset + len(data))
        f.uncommitted += 1
        if self.pages.dirty_bytes > self.dirty_flush_threshold:
            self._write_back(self.pages.gather_dirty([f.fileid]), note=True)
        return len(data)

    def fsync(self, f: OpenFile):
        """Write back the file's dirty blocks, wait for every read-ahead
        and write of it in flight, then COMMIT."""
        self._write_back(self.pages.gather_dirty([f.fileid]), note=True)
        yield from self.pages.drain(f.fileid)
        if f.uncommitted:
            res = yield from self._call(Proc.COMMIT, pr.pack_commit_args(f.fh))
            status, after, _verf = pr.unpack_commit_res(res)
            _check(status, f"COMMIT {f.path}")
            if after is not None:
                self.attrs.put(after)
            f.uncommitted = 0

    def close(self, f: OpenFile):
        """Close-to-open: everything dirty reaches the server on close."""
        if f.closed:
            return
        yield from self.fsync(f)
        f.closed = True

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def read_file(self, path: str):
        """Open/read-to-EOF/close."""
        f = yield from self.open(path)
        data = yield from self.read(f, 0, f.size)
        yield from self.close(f)
        return data

    def write_file(self, path: str, data: bytes):
        """Create-or-truncate and write everything, then close."""
        f = yield from self.open(path, create=True, truncate=True)
        yield from self.write(f, 0, data)
        yield from self.close(f)
        return f

    def drain(self):
        """Wait for all background I/O (read-ahead, write-back)."""
        yield from self.pages.drain()
