"""NFSv3 server: an RPC program exporting a VirtualFS.

Semantics modeled on a kernel nfsd with ``sync`` exports (the paper's
server-side configuration): metadata-changing procedures and FILE_SYNC
writes pay the disk before replying; UNSTABLE writes land in the page
cache and are made durable by COMMIT.  Reads hit the page cache
(``preload`` marks the dataset resident, as the IOzone setup does).

Authentication here is plain AUTH_SYS — by design.  In an SGFS
deployment the kernel server only accepts calls from the local
server-side proxy, which has already authenticated the grid user and
rewritten the credentials (the export-to-localhost-only pattern of
Figure 1).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.nfs import protocol as pr
from repro.nfs.protocol import FileHandle, Fattr3, NfsStatus, Proc
from repro.rpc.auth import AUTH_SYS, AuthSys
from repro.rpc.messages import CallMessage
from repro.rpc.server import CallContext, RpcProgram
from repro.sim.core import Simulator
from repro.sim.sync import RwLock
from repro.vfs.disk import DiskModel
from repro.vfs.fs import Credentials, Ftype, Inode, Status, VfsError, VirtualFS
from repro.xdr import Packer, Unpacker, XdrError

#: Preferred/maximum transfer sizes (the paper uses 32 KB blocks).
RTMAX = 32768
WTMAX = 32768


class NfsServerProgram(RpcProgram):
    """The NFS program (100003, v3) over a VirtualFS + DiskModel."""

    prog = pr.NFS_PROGRAM
    vers = pr.NFS_V3
    non_idempotent = frozenset(int(p) for p in pr.NON_IDEMPOTENT_PROCS)

    def __init__(
        self,
        sim: Simulator,
        fs: VirtualFS,
        disk: Optional[DiskModel] = None,
        write_verf: bytes = b"reprosrv",
    ):
        """Per-fileid reader/writer locking: reads take a shared hold,
        mutations an exclusive one, so concurrent clients hitting the
        same inode serialize in deterministic FIFO order.  An
        *uncontended* acquisition costs zero virtual time and schedules
        no event (see :class:`repro.sim.sync.RwLock`)."""
        self.sim = sim
        self.fs = fs
        self.disk = disk
        self.write_verf = write_verf
        self.ops = {p: 0 for p in Proc}
        #: fileids with uncommitted (UNSTABLE) data awaiting COMMIT.
        self._dirty: dict[int, int] = {}
        #: fileids whose data is resident in the page cache.
        self._resident: set[int] = set()
        #: per-fileid reader/writer locks (allocated lazily)
        self._locks: Dict[int, RwLock] = {}
        self._c_lock_waits = sim.obs.counter("nfs.server", "lock_waits")
        self._h_lock_wait = sim.obs.histogram("nfs.server", "lock_wait")

    # -- helpers -----------------------------------------------------------

    def preload(self, fileid: int) -> None:
        """Mark a file's data memory-resident (IOzone §6.2.1 preloads)."""
        self._resident.add(fileid)

    def root_handle(self) -> FileHandle:
        return self._handle(self.fs.root)

    def _handle(self, node: Inode) -> FileHandle:
        return FileHandle(self.fs.fsid, node.fileid, node.generation)

    def _resolve(self, fh: FileHandle) -> Inode:
        if fh.fsid != self.fs.fsid:
            raise VfsError(Status.BADHANDLE, f"foreign fsid {fh.fsid}")
        node = self.fs.inode(fh.fileid)  # raises STALE if gone
        if node.generation != fh.generation:
            raise VfsError(Status.STALE, "generation mismatch")
        return node

    def _attr(self, node: Inode) -> Fattr3:
        return Fattr3.of(node, self.fs.fsid)

    @staticmethod
    def _cred(call: CallMessage) -> Credentials:
        if call.cred.flavor == AUTH_SYS:
            a = AuthSys.from_opaque(call.cred)
            return Credentials(a.uid, a.gid, a.gids)
        return Credentials(65534, 65534)  # nobody

    def _acquire(self, fileid: int, write: bool):
        """Take the per-fileid lock (shared or exclusive); returns the
        lock held.  Uncontended acquisitions use the synchronous fast
        path (zero virtual time); contended ones queue FIFO and report
        their wait through ``nfs.server/lock_waits`` and the
        ``lock_wait`` histogram."""
        lock = self._locks.get(fileid)
        if lock is None:
            lock = self._locks[fileid] = RwLock(self.sim, name=f"ino{fileid}")
        free = lock.try_acquire_write() if write else lock.try_acquire_read()
        if not free:
            t0 = self.sim.now
            self._c_lock_waits.inc()
            yield lock.acquire_write() if write else lock.acquire_read()
            self._h_lock_wait.observe(self.sim.now - t0)
        return lock

    @staticmethod
    def _release(lock: Optional[RwLock], write: bool) -> None:
        if lock is None:
            return
        if write:
            lock.release_write()
        else:
            lock.release_read()

    def _disk_write(self, nbytes: int, sync: bool):
        if self.disk is not None:
            yield from self.disk.write(nbytes, sync=sync)
        return
        yield  # pragma: no cover

    def _disk_read(self, fileid: int, nbytes: int):
        if self.disk is not None:
            yield from self.disk.read(nbytes, cached=fileid in self._resident)
            self._resident.add(fileid)  # first read faults it in
        return
        yield  # pragma: no cover

    # -- dispatch -----------------------------------------------------------

    def handle(self, proc: int, args: bytes, call: CallMessage, ctx: CallContext):
        try:
            proc = Proc(proc)
        except ValueError:
            from repro.rpc.server import ProcUnavailable

            raise ProcUnavailable(f"NFSv3 has no procedure {proc}")
        self.ops[proc] += 1
        cred = self._cred(call)
        method = getattr(self, f"_op_{proc.name.lower()}")
        try:
            result = yield from method(args, cred)
        except VfsError as exc:
            result = self._error_result(proc, exc.status)
        except XdrError:
            raise  # GARBAGE_ARGS at the RPC layer
        return result

    @staticmethod
    def _error_result(proc: Proc, status: Status) -> bytes:
        """Minimal well-formed error encodings per procedure family."""
        if proc in (Proc.GETATTR,):
            return pr.pack_getattr_res(status, None)
        if proc in (Proc.SETATTR,):
            return pr.pack_setattr_res(status, None)
        if proc in (Proc.LOOKUP,):
            return pr.pack_lookup_res(status, None, None, None)
        if proc in (Proc.ACCESS,):
            return pr.pack_access_res(status, None, 0)
        if proc in (Proc.READLINK,):
            return pr.pack_readlink_res(status, None, "")
        if proc in (Proc.READ,):
            return pr.pack_read_res(status, None)
        if proc in (Proc.WRITE,):
            return pr.pack_write_res(status, None)
        if proc in (Proc.CREATE, Proc.MKDIR, Proc.SYMLINK, Proc.MKNOD):
            return pr.pack_create_res(status, None, None, None)
        if proc in (Proc.REMOVE, Proc.RMDIR):
            return pr.pack_remove_res(status, None)
        if proc in (Proc.RENAME,):
            return pr.pack_rename_res(status, None, None)
        if proc in (Proc.LINK,):
            return pr.pack_link_res(status, None, None)
        if proc in (Proc.READDIR, Proc.READDIRPLUS):
            return pr.pack_readdir_res(status, None, [], True)
        if proc in (Proc.COMMIT,):
            return pr.pack_commit_res(status, None)
        p = Packer()
        p.pack_enum(status)
        return p.get_bytes()

    # -- procedures ------------------------------------------------------------

    def _op_null(self, args: bytes, cred: Credentials):
        return b""
        yield  # pragma: no cover

    def _op_getattr(self, args: bytes, cred: Credentials):
        fh = pr.unpack_getattr_args(args)
        node = self._resolve(fh)
        return pr.pack_getattr_res(NfsStatus.OK, self._attr(node))
        yield  # pragma: no cover

    def _op_setattr(self, args: bytes, cred: Credentials):
        fh, sattr = pr.unpack_setattr_args(args)
        node = self._resolve(fh)
        lk = yield from self._acquire(node.fileid, write=True)
        try:
            self.fs.setattr(
                node.fileid, cred,
                mode=sattr.mode, uid=sattr.uid, gid=sattr.gid,
                size=sattr.size, atime=sattr.atime, mtime=sattr.mtime,
            )
            yield from self._disk_write(256, sync=True)  # inode update
            return pr.pack_setattr_res(NfsStatus.OK, self._attr(node))
        finally:
            self._release(lk, write=True)

    def _op_lookup(self, args: bytes, cred: Credentials):
        dir_fh, name = pr.unpack_lookup_args(args)
        d = self._resolve(dir_fh)
        node = self.fs.lookup(d.fileid, name, cred)
        return pr.pack_lookup_res(
            NfsStatus.OK, self._handle(node), self._attr(node), self._attr(d)
        )
        yield  # pragma: no cover

    def _op_access(self, args: bytes, cred: Credentials):
        fh, want = pr.unpack_access_args(args)
        node = self._resolve(fh)
        granted = 0
        if self.fs.check_access(node, cred, 4):
            granted |= pr.ACCESS_READ
        if self.fs.check_access(node, cred, 2):
            granted |= pr.ACCESS_MODIFY | pr.ACCESS_EXTEND
            if node.is_dir:
                granted |= pr.ACCESS_DELETE
        if self.fs.check_access(node, cred, 1):
            granted |= pr.ACCESS_LOOKUP if node.is_dir else pr.ACCESS_EXECUTE
        return pr.pack_access_res(NfsStatus.OK, self._attr(node), granted & want)
        yield  # pragma: no cover

    def _op_readlink(self, args: bytes, cred: Credentials):
        fh = pr.unpack_readlink_args(args)
        node = self._resolve(fh)
        target = self.fs.readlink(node.fileid)
        return pr.pack_readlink_res(NfsStatus.OK, self._attr(node), target)
        yield  # pragma: no cover

    def _op_read(self, args: bytes, cred: Credentials):
        fh, offset, count = pr.unpack_read_args(args)
        node = self._resolve(fh)
        lk = yield from self._acquire(node.fileid, write=False)
        try:
            count = min(count, RTMAX)
            data, eof = self.fs.read(node.fileid, offset, count, cred)
            yield from self._disk_read(node.fileid, len(data))
            return pr.pack_read_res(NfsStatus.OK, self._attr(node), data, eof)
        finally:
            self._release(lk, write=False)

    def _op_write(self, args: bytes, cred: Credentials):
        fh, offset, stable, payload = pr.unpack_write_args(args)
        node = self._resolve(fh)
        lk = yield from self._acquire(node.fileid, write=True)
        try:
            if len(payload) > WTMAX:
                payload = payload[:WTMAX]
            count = self.fs.write(node.fileid, offset, payload, cred)
            self._resident.add(node.fileid)
            if stable == pr.UNSTABLE:
                self._dirty[node.fileid] = self._dirty.get(node.fileid, 0) + count
                committed = pr.UNSTABLE
            else:
                yield from self._disk_write(count, sync=(stable == pr.FILE_SYNC))
                committed = stable
            return pr.pack_write_res(
                NfsStatus.OK, self._attr(node), count, committed, self.write_verf
            )
        finally:
            self._release(lk, write=True)

    def _op_create(self, args: bytes, cred: Credentials):
        dir_fh, name, mode, sattr = pr.unpack_create_args(args)
        d = self._resolve(dir_fh)
        lk = yield from self._acquire(d.fileid, write=True)
        try:
            node = self.fs.create(
                d.fileid, name, cred,
                mode=sattr.mode if sattr.mode is not None else 0o644,
                exclusive=(mode in (pr.GUARDED, pr.EXCLUSIVE)),
            )
            if sattr.size is not None:
                self.fs.setattr(node.fileid, cred, size=sattr.size)
            yield from self._disk_write(512, sync=True)  # dirent + inode
            return pr.pack_create_res(
                NfsStatus.OK, self._handle(node), self._attr(node), self._attr(d)
            )
        finally:
            self._release(lk, write=True)

    def _op_mkdir(self, args: bytes, cred: Credentials):
        dir_fh, name, sattr = pr.unpack_mkdir_args(args)
        d = self._resolve(dir_fh)
        lk = yield from self._acquire(d.fileid, write=True)
        try:
            node = self.fs.mkdir(
                d.fileid, name, cred,
                mode=sattr.mode if sattr.mode is not None else 0o755,
            )
            yield from self._disk_write(512, sync=True)
            return pr.pack_create_res(
                NfsStatus.OK, self._handle(node), self._attr(node), self._attr(d)
            )
        finally:
            self._release(lk, write=True)

    def _op_symlink(self, args: bytes, cred: Credentials):
        dir_fh, name, sattr, target = pr.unpack_symlink_args(args)
        d = self._resolve(dir_fh)
        lk = yield from self._acquire(d.fileid, write=True)
        try:
            node = self.fs.symlink(d.fileid, name, target, cred)
            yield from self._disk_write(512, sync=True)
            return pr.pack_create_res(
                NfsStatus.OK, self._handle(node), self._attr(node), self._attr(d)
            )
        finally:
            self._release(lk, write=True)

    def _op_mknod(self, args: bytes, cred: Credentials):
        raise VfsError(Status.NOTSUPP, "MKNOD not supported")
        yield  # pragma: no cover

    def _op_remove(self, args: bytes, cred: Credentials):
        dir_fh, name = pr.unpack_remove_args(args)
        d = self._resolve(dir_fh)
        lk = yield from self._acquire(d.fileid, write=True)
        try:
            self.fs.remove(d.fileid, name, cred)
            yield from self._disk_write(512, sync=True)
            return pr.pack_remove_res(NfsStatus.OK, self._attr(d))
        finally:
            self._release(lk, write=True)

    def _op_rmdir(self, args: bytes, cred: Credentials):
        dir_fh, name = pr.unpack_remove_args(args)
        d = self._resolve(dir_fh)
        lk = yield from self._acquire(d.fileid, write=True)
        try:
            self.fs.rmdir(d.fileid, name, cred)
            yield from self._disk_write(512, sync=True)
            return pr.pack_remove_res(NfsStatus.OK, self._attr(d))
        finally:
            self._release(lk, write=True)

    def _op_rename(self, args: bytes, cred: Credentials):
        from_fh, from_name, to_fh, to_name = pr.unpack_rename_args(args)
        fd = self._resolve(from_fh)
        td = self._resolve(to_fh)
        # Both directories exclusively, in fileid order (deadlock-free).
        dirs = sorted({fd.fileid, td.fileid})
        lk1 = yield from self._acquire(dirs[0], write=True)
        lk2 = (yield from self._acquire(dirs[1], write=True)) if len(dirs) > 1 else None
        try:
            self.fs.rename(fd.fileid, from_name, td.fileid, to_name, cred)
            yield from self._disk_write(512, sync=True)
            return pr.pack_rename_res(NfsStatus.OK, self._attr(fd), self._attr(td))
        finally:
            self._release(lk2, write=True)
            self._release(lk1, write=True)

    def _op_link(self, args: bytes, cred: Credentials):
        fh, dir_fh, name = pr.unpack_link_args(args)
        node = self._resolve(fh)
        d = self._resolve(dir_fh)
        lk = yield from self._acquire(d.fileid, write=True)
        try:
            self.fs.link(node.fileid, d.fileid, name, cred)
            yield from self._disk_write(512, sync=True)
            return pr.pack_link_res(NfsStatus.OK, self._attr(node), self._attr(d))
        finally:
            self._release(lk, write=True)

    def _readdir_common(self, args: bytes, cred: Credentials, plus: bool):
        dir_fh, cookie, _verf, count = pr.unpack_readdir_args(args, plus=plus)
        d = self._resolve(dir_fh)
        lk = yield from self._acquire(d.fileid, write=False)
        try:
            listing = self.fs.readdir(d.fileid, cred)
            yield from self._disk_read(d.fileid, 32 * len(listing))
        finally:
            self._release(lk, write=False)
        entries = []
        budget = max(count, 512)
        used = 0
        i = int(cookie)
        while i < len(listing):
            name, fid = listing[i]
            entry_size = 24 + len(name) + (96 if plus else 0)
            if used + entry_size > budget and entries:
                break
            child = self.fs.inode(fid)
            entries.append(
                pr.DirEntry(
                    fileid=fid,
                    name=name,
                    cookie=i + 1,
                    attr=self._attr(child) if plus else None,
                    handle=self._handle(child) if plus else None,
                )
            )
            used += entry_size
            i += 1
        eof = i >= len(listing)
        return pr.pack_readdir_res(
            NfsStatus.OK, self._attr(d), entries, eof, plus=plus
        )

    def _op_readdir(self, args: bytes, cred: Credentials):
        return (yield from self._readdir_common(args, cred, plus=False))

    def _op_readdirplus(self, args: bytes, cred: Credentials):
        return (yield from self._readdir_common(args, cred, plus=True))

    def _op_fsstat(self, args: bytes, cred: Credentials):
        fh = pr.unpack_getattr_args(args)
        node = self._resolve(fh)
        used = self.fs.used_bytes()
        return pr.pack_fsstat_res(
            NfsStatus.OK, self._attr(node),
            self.fs.capacity_bytes, self.fs.capacity_bytes - used,
            1_000_000,
        )
        yield  # pragma: no cover

    def _op_fsinfo(self, args: bytes, cred: Credentials):
        fh = pr.unpack_getattr_args(args)
        node = self._resolve(fh)
        return pr.pack_fsinfo_res(NfsStatus.OK, self._attr(node), RTMAX, WTMAX)
        yield  # pragma: no cover

    def _op_pathconf(self, args: bytes, cred: Credentials):
        fh = pr.unpack_getattr_args(args)
        node = self._resolve(fh)
        p = Packer()
        p.pack_enum(NfsStatus.OK)
        pr.pack_post_op_attr(p, self._attr(node))
        p.pack_uint(32)  # linkmax
        p.pack_uint(255)  # name_max
        p.pack_bool(True)  # no_trunc
        p.pack_bool(False)  # chown_restricted
        p.pack_bool(False)  # case_insensitive
        p.pack_bool(True)  # case_preserving
        return p.get_bytes()
        yield  # pragma: no cover

    def _op_commit(self, args: bytes, cred: Credentials):
        fh, _offset, _count = pr.unpack_commit_args(args)
        node = self._resolve(fh)
        lk = yield from self._acquire(node.fileid, write=True)
        try:
            pending = self._dirty.pop(node.fileid, 0)
            if pending:
                yield from self._disk_write(pending, sync=False)
            return pr.pack_commit_res(NfsStatus.OK, self._attr(node), self.write_verf)
        finally:
            self._release(lk, write=True)
