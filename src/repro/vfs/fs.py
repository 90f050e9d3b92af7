"""The virtual filesystem: inodes, directories, permissions, operations.

Status codes deliberately mirror NFSv3's so the server maps them 1:1.
All operations take explicit :class:`Credentials` and enforce POSIX
permission bits — the SGFS identity-mapping story depends on the backing
filesystem genuinely discriminating by uid/gid.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


class Status(enum.IntEnum):
    """NFSv3-aligned error codes (RFC 1813 §2.6)."""

    OK = 0
    PERM = 1
    NOENT = 2
    IO = 5
    ACCES = 13
    EXIST = 17
    XDEV = 18
    NODEV = 19
    NOTDIR = 20
    ISDIR = 21
    INVAL = 22
    FBIG = 27
    NOSPC = 28
    ROFS = 30
    NAMETOOLONG = 63
    NOTEMPTY = 66
    DQUOT = 69
    STALE = 70
    BADHANDLE = 10001
    NOT_SYNC = 10002
    BAD_COOKIE = 10003
    NOTSUPP = 10004
    TOOSMALL = 10005
    SERVERFAULT = 10006
    BADTYPE = 10007
    JUKEBOX = 10008


class VfsError(Exception):
    """Operation failure carrying an NFS-style status code."""

    def __init__(self, status: Status, detail: str = ""):
        super().__init__(f"{status.name}{': ' + detail if detail else ''}")
        self.status = status


class Ftype(enum.IntEnum):
    """File types (matches NFSv3 ftype3 values)."""

    REG = 1
    DIR = 2
    BLK = 3
    CHR = 4
    LNK = 5
    SOCK = 6
    FIFO = 7


@dataclass(frozen=True)
class Credentials:
    """Caller identity for permission checks."""

    uid: int
    gid: int
    groups: Tuple[int, ...] = ()

    @property
    def is_superuser(self) -> bool:
        return self.uid == 0

    def in_group(self, gid: int) -> bool:
        return gid == self.gid or gid in self.groups


ROOT_CRED = Credentials(0, 0)

NAME_MAX = 255

#: what one directory entry adds to its directory's ``used_bytes()``
DIRENT_BYTES = 32


class FileData:
    """A regular file's bytes, held in pages of :attr:`PAGE` bytes (the
    last one short) rather than one buffer.  A file that grows a write
    at a time never reallocates, or copies, what it already holds; one
    buffer grown to tens of MB is moved through the heap on each
    reallocation, and how often that happens — and so the peak RSS of a
    run — depends on the allocator's state, not on the file system.
    ``bytes(data)`` is the whole file and ``data[i]`` one byte of it."""

    PAGE = 1 << 16
    __slots__ = ("_pages", "_size")

    def __init__(self) -> None:
        self._pages: List[bytearray] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bytes__(self) -> bytes:
        return b"".join(self._pages)

    def __getitem__(self, index: int) -> int:
        page, at = divmod(range(self._size)[index], self.PAGE)
        return self._pages[page][at]

    def __setitem__(self, index: int, value: int) -> None:
        page, at = divmod(range(self._size)[index], self.PAGE)
        self._pages[page][at] = value

    def read(self, offset: int, count: int) -> bytes:
        """Up to ``count`` bytes from ``offset`` (fewer past the end)."""
        end = min(offset + count, self._size)
        parts = []
        while offset < end:
            page, at = divmod(offset, self.PAGE)
            n = min(self.PAGE - at, end - offset)
            parts.append(memoryview(self._pages[page])[at:at + n])
            offset += n
        return bytes(parts[0]) if len(parts) == 1 else b"".join(parts)  # b"" past the end

    def write(self, offset: int, data: bytes) -> None:
        """Overwrite ``len(data)`` bytes from ``offset``, all below the size."""
        view = memoryview(data)
        while view.nbytes:
            page, at = divmod(offset, self.PAGE)
            n = min(self.PAGE - at, view.nbytes)
            self._pages[page][at:at + n] = view[:n]
            view = view[n:]
            offset += n

    def resize(self, size: int) -> None:
        """Cut the file to ``size`` bytes, or zero-fill it up to them."""
        pages, full = self._pages, self.PAGE
        if size > self._size:
            if pages:
                last = pages[-1]
                last.extend(bytes(min(full, size - (len(pages) - 1) * full) - len(last)))
            while len(pages) * full < size:
                pages.append(bytearray(min(full, size - len(pages) * full)))
        else:
            keep = -(-size // full)
            del pages[keep:]
            if pages:
                del pages[-1][size - (keep - 1) * full:]
        self._size = size


@dataclass
class Inode:
    """One filesystem object."""

    fileid: int
    ftype: Ftype
    mode: int
    uid: int
    gid: int
    nlink: int = 1
    size: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    generation: int = 0
    data: FileData = field(default_factory=FileData)
    entries: Dict[str, int] = field(default_factory=dict)  # dirs only
    symlink_target: str = ""

    @property
    def is_dir(self) -> bool:
        return self.ftype == Ftype.DIR

    @property
    def is_reg(self) -> bool:
        return self.ftype == Ftype.REG

    def used_bytes(self) -> int:
        if self.is_reg:
            return len(self.data)
        if self.is_dir:
            return 512 + DIRENT_BYTES * len(self.entries)
        return 64


class VirtualFS:
    """An in-memory filesystem with POSIX-ish semantics.

    ``clock`` is a zero-argument callable returning the current time for
    timestamps — experiments pass ``lambda: sim.now``.
    """

    def __init__(
        self,
        fsid: int = 1,
        clock=None,
        capacity_bytes: int = 1 << 40,
        root_mode: int = 0o755,
        root_uid: int = 0,
        root_gid: int = 0,
    ):
        self.fsid = fsid
        self.clock = clock or (lambda: 0.0)
        self.capacity_bytes = capacity_bytes
        self._ids = itertools.count(2)
        self._inodes: Dict[int, Inode] = {}
        self._generation = itertools.count(1)
        now = self.clock()
        root = Inode(
            fileid=1, ftype=Ftype.DIR, mode=root_mode, uid=root_uid, gid=root_gid,
            nlink=2, atime=now, mtime=now, ctime=now, generation=next(self._generation),
        )
        self._inodes[1] = root
        self.root = root
        #: running sum of every inode's ``used_bytes()``, adjusted wherever
        #: one changes (data growth/shrink, inode birth/death, directory
        #: entries) so space checks do not walk the inode table
        self._used = root.used_bytes()
        self.write_ops = 0
        self.read_ops = 0

    # -- helpers -----------------------------------------------------------

    def inode(self, fileid: int) -> Inode:
        node = self._inodes.get(fileid)
        if node is None:
            raise VfsError(Status.STALE, f"fileid {fileid}")
        return node

    def used_bytes(self) -> int:
        return self._used

    def _link_entry(self, d: Inode, name: str, fileid: int) -> None:
        if name not in d.entries:
            self._used += DIRENT_BYTES
        d.entries[name] = fileid

    def _unlink_entry(self, d: Inode, name: str) -> None:
        del d.entries[name]
        self._used -= DIRENT_BYTES

    def _drop_inode(self, node: Inode) -> None:
        del self._inodes[node.fileid]
        self._used -= node.used_bytes()

    def inode_count(self) -> int:
        return len(self._inodes)

    def _check_name(self, name: str) -> None:
        if not name or name in (".", ".."):
            raise VfsError(Status.INVAL, f"bad name {name!r}")
        if "/" in name or "\x00" in name:
            raise VfsError(Status.INVAL, f"bad name {name!r}")
        if len(name) > NAME_MAX:
            raise VfsError(Status.NAMETOOLONG, name[:32] + "...")

    def check_access(self, node: Inode, cred: Credentials, want: int) -> bool:
        """POSIX bit check: ``want`` is a bitmask of 4=r, 2=w, 1=x."""
        if cred.is_superuser:
            return True
        if cred.uid == node.uid:
            bits = (node.mode >> 6) & 7
        elif cred.in_group(node.gid):
            bits = (node.mode >> 3) & 7
        else:
            bits = node.mode & 7
        return (bits & want) == want

    def _require(self, node: Inode, cred: Credentials, want: int) -> None:
        if not self.check_access(node, cred, want):
            raise VfsError(Status.ACCES, f"mode {node.mode:o}, uid {cred.uid}")

    def _require_dir(self, node: Inode) -> None:
        if not node.is_dir:
            raise VfsError(Status.NOTDIR)

    def _touch(self, node: Inode, a=False, m=False, c=False) -> None:
        now = self.clock()
        if a:
            node.atime = now
        if m:
            node.mtime = now
        if c:
            node.ctime = now

    # -- lookup & attributes ---------------------------------------------------

    def lookup(self, dir_id: int, name: str, cred: Credentials) -> Inode:
        d = self.inode(dir_id)
        self._require_dir(d)
        self._require(d, cred, 1)  # execute = search
        if name == ".":
            return d
        if name == "..":
            parent = self._find_parent(dir_id)
            return self.inode(parent)
        child = d.entries.get(name)
        if child is None:
            raise VfsError(Status.NOENT, name)
        return self.inode(child)

    def _find_parent(self, dir_id: int) -> int:
        # Linear scan — fine at simulation scales; parents are only
        # needed for ".." lookups, which the NFS clients rarely issue.
        for fid, node in self._inodes.items():
            if node.is_dir and dir_id in node.entries.values():
                return fid
        return 1

    def getattr(self, fileid: int) -> Inode:
        return self.inode(fileid)

    def setattr(
        self,
        fileid: int,
        cred: Credentials,
        mode: Optional[int] = None,
        uid: Optional[int] = None,
        gid: Optional[int] = None,
        size: Optional[int] = None,
        atime: Optional[float] = None,
        mtime: Optional[float] = None,
    ) -> Inode:
        node = self.inode(fileid)
        owner = cred.is_superuser or cred.uid == node.uid
        if mode is not None:
            if not owner:
                raise VfsError(Status.PERM, "chmod by non-owner")
            node.mode = mode & 0o7777
        if uid is not None and uid != node.uid:
            if not cred.is_superuser:
                raise VfsError(Status.PERM, "chown by non-root")
            node.uid = uid
        if gid is not None and gid != node.gid:
            if not (cred.is_superuser or (owner and cred.in_group(gid))):
                raise VfsError(Status.PERM, "chgrp to foreign group")
            node.gid = gid
        if size is not None:
            if not node.is_reg:
                raise VfsError(Status.ISDIR if node.is_dir else Status.INVAL)
            if not owner:
                self._require(node, cred, 2)
            self._resize(node, size)
            self._touch(node, m=True)
        if atime is not None:
            node.atime = atime
        if mtime is not None:
            node.mtime = mtime
        self._touch(node, c=True)
        return node

    def _resize(self, node: Inode, size: int) -> None:
        if size < 0:
            raise VfsError(Status.INVAL, "negative size")
        grow = size - len(node.data)
        if grow > 0 and self.used_bytes() + grow > self.capacity_bytes:
            raise VfsError(Status.NOSPC)
        node.data.resize(size)
        self._used += grow
        node.size = size

    # -- creation -------------------------------------------------------------

    def _new_inode(self, ftype: Ftype, mode: int, cred: Credentials) -> Inode:
        now = self.clock()
        node = Inode(
            fileid=next(self._ids), ftype=ftype, mode=mode & 0o7777,
            uid=cred.uid, gid=cred.gid,
            atime=now, mtime=now, ctime=now,
            generation=next(self._generation),
        )
        self._inodes[node.fileid] = node
        self._used += node.used_bytes()
        return node

    def create(
        self, dir_id: int, name: str, cred: Credentials, mode: int = 0o644,
        exclusive: bool = False,
    ) -> Inode:
        self._check_name(name)
        d = self.inode(dir_id)
        self._require_dir(d)
        existing = d.entries.get(name)
        if existing is not None:
            if exclusive:
                raise VfsError(Status.EXIST, name)
            node = self.inode(existing)
            if node.is_dir:
                raise VfsError(Status.ISDIR, name)
            self._require(node, cred, 2)
            return node
        self._require(d, cred, 3)  # write + search
        node = self._new_inode(Ftype.REG, mode, cred)
        self._link_entry(d, name, node.fileid)
        self._touch(d, m=True, c=True)
        self.write_ops += 1
        return node

    def mkdir(self, dir_id: int, name: str, cred: Credentials, mode: int = 0o755) -> Inode:
        self._check_name(name)
        d = self.inode(dir_id)
        self._require_dir(d)
        if name in d.entries:
            raise VfsError(Status.EXIST, name)
        self._require(d, cred, 3)
        node = self._new_inode(Ftype.DIR, mode, cred)
        node.nlink = 2
        self._link_entry(d, name, node.fileid)
        d.nlink += 1
        self._touch(d, m=True, c=True)
        self.write_ops += 1
        return node

    def symlink(self, dir_id: int, name: str, target: str, cred: Credentials) -> Inode:
        self._check_name(name)
        d = self.inode(dir_id)
        self._require_dir(d)
        if name in d.entries:
            raise VfsError(Status.EXIST, name)
        self._require(d, cred, 3)
        node = self._new_inode(Ftype.LNK, 0o777, cred)
        node.symlink_target = target
        node.size = len(target)
        self._link_entry(d, name, node.fileid)
        self._touch(d, m=True, c=True)
        self.write_ops += 1
        return node

    def readlink(self, fileid: int) -> str:
        node = self.inode(fileid)
        if node.ftype != Ftype.LNK:
            raise VfsError(Status.INVAL, "not a symlink")
        return node.symlink_target

    def link(self, fileid: int, dir_id: int, name: str, cred: Credentials) -> Inode:
        self._check_name(name)
        node = self.inode(fileid)
        if node.is_dir:
            raise VfsError(Status.ISDIR, "hard link to directory")
        d = self.inode(dir_id)
        self._require_dir(d)
        if name in d.entries:
            raise VfsError(Status.EXIST, name)
        self._require(d, cred, 3)
        self._link_entry(d, name, node.fileid)
        node.nlink += 1
        self._touch(node, c=True)
        self._touch(d, m=True, c=True)
        self.write_ops += 1
        return node

    # -- removal ---------------------------------------------------------------

    def remove(self, dir_id: int, name: str, cred: Credentials) -> None:
        self._check_name(name)
        d = self.inode(dir_id)
        self._require_dir(d)
        self._require(d, cred, 3)
        child_id = d.entries.get(name)
        if child_id is None:
            raise VfsError(Status.NOENT, name)
        child = self.inode(child_id)
        if child.is_dir:
            raise VfsError(Status.ISDIR, name)
        self._unlink_entry(d, name)
        child.nlink -= 1
        if child.nlink <= 0:
            self._drop_inode(child)
        else:
            self._touch(child, c=True)
        self._touch(d, m=True, c=True)
        self.write_ops += 1

    def rmdir(self, dir_id: int, name: str, cred: Credentials) -> None:
        self._check_name(name)
        d = self.inode(dir_id)
        self._require_dir(d)
        self._require(d, cred, 3)
        child_id = d.entries.get(name)
        if child_id is None:
            raise VfsError(Status.NOENT, name)
        child = self.inode(child_id)
        if not child.is_dir:
            raise VfsError(Status.NOTDIR, name)
        if child.entries:
            raise VfsError(Status.NOTEMPTY, name)
        self._unlink_entry(d, name)
        self._drop_inode(child)
        d.nlink -= 1
        self._touch(d, m=True, c=True)
        self.write_ops += 1

    def rename(
        self, from_dir: int, from_name: str, to_dir: int, to_name: str,
        cred: Credentials,
    ) -> None:
        self._check_name(from_name)
        self._check_name(to_name)
        src = self.inode(from_dir)
        dst = self.inode(to_dir)
        self._require_dir(src)
        self._require_dir(dst)
        self._require(src, cred, 3)
        if dst is not src:
            self._require(dst, cred, 3)
        moving_id = src.entries.get(from_name)
        if moving_id is None:
            raise VfsError(Status.NOENT, from_name)
        moving = self.inode(moving_id)
        existing_id = dst.entries.get(to_name)
        if existing_id is not None:
            if existing_id == moving_id:
                return  # rename onto itself: no-op
            existing = self.inode(existing_id)
            if existing.is_dir:
                if not moving.is_dir:
                    raise VfsError(Status.ISDIR, to_name)
                if existing.entries:
                    raise VfsError(Status.NOTEMPTY, to_name)
                self._drop_inode(existing)
                dst.nlink -= 1
            else:
                if moving.is_dir:
                    raise VfsError(Status.NOTDIR, to_name)
                existing.nlink -= 1
                if existing.nlink <= 0:
                    self._drop_inode(existing)
        self._unlink_entry(src, from_name)
        self._link_entry(dst, to_name, moving_id)
        if moving.is_dir and src is not dst:
            src.nlink -= 1
            dst.nlink += 1
        self._touch(src, m=True, c=True)
        if dst is not src:
            self._touch(dst, m=True, c=True)
        self._touch(moving, c=True)
        self.write_ops += 1

    # -- data ---------------------------------------------------------------------

    def read(self, fileid: int, offset: int, count: int, cred: Credentials) -> Tuple[bytes, bool]:
        """Returns (data, eof)."""
        node = self.inode(fileid)
        if node.is_dir:
            raise VfsError(Status.ISDIR)
        if not node.is_reg:
            raise VfsError(Status.INVAL)
        self._require(node, cred, 4)
        if offset < 0 or count < 0:
            raise VfsError(Status.INVAL)
        data = node.data.read(offset, count)
        eof = offset + len(data) >= node.size
        self._touch(node, a=True)
        self.read_ops += 1
        return data, eof

    def write(self, fileid: int, offset: int, data: bytes, cred: Credentials) -> int:
        node = self.inode(fileid)
        if node.is_dir:
            raise VfsError(Status.ISDIR)
        if not node.is_reg:
            raise VfsError(Status.INVAL)
        self._require(node, cred, 2)
        if offset < 0:
            raise VfsError(Status.INVAL)
        end = offset + len(data)
        if end > len(node.data):
            self._resize(node, end)  # zero-fills, or refuses with NOSPC
        node.data.write(offset, data)
        node.size = len(node.data)
        self._touch(node, m=True, c=True)
        self.write_ops += 1
        return len(data)

    # -- directory listing --------------------------------------------------------

    def readdir(self, dir_id: int, cred: Credentials) -> List[Tuple[str, int]]:
        d = self.inode(dir_id)
        self._require_dir(d)
        self._require(d, cred, 4)
        self._touch(d, a=True)
        self.read_ops += 1
        out = [(".", d.fileid), ("..", self._find_parent(dir_id))]
        out.extend(sorted(d.entries.items()))
        return out

    # -- path convenience (tests/examples; NFS clients walk components) -----------

    def resolve(self, path: str, cred: Credentials = ROOT_CRED) -> Inode:
        node = self.root
        for part in [p for p in path.split("/") if p]:
            node = self.lookup(node.fileid, part, cred)
        return node

    def walk(self) -> Iterator[Tuple[str, Inode]]:
        """Yield (path, inode) for every object, root first."""
        stack = [("/", self.root)]
        while stack:
            path, node = stack.pop()
            yield path, node
            if node.is_dir:
                for name, fid in sorted(node.entries.items(), reverse=True):
                    child = self._inodes.get(fid)
                    if child is not None:
                        stack.append((path.rstrip("/") + "/" + name, child))
