"""NFSv3 wire types and per-procedure codecs (RFC 1813).

Both endpoints and the SGFS proxies share these codecs.  The proxies
decode just enough of a message to authorize and rewrite it (procedure
number, directory handles, credentials) — the ability to do that on real
encoded messages is the essence of NFS virtualization.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.vfs.fs import Ftype, Status
from repro.xdr import Packer, Unpacker, XdrError
from repro.xdr.codec import check_bool

NFS_PROGRAM = 100003
NFS_V3 = 3

FHSIZE3 = 64


class Proc(enum.IntEnum):
    NULL = 0
    GETATTR = 1
    SETATTR = 2
    LOOKUP = 3
    ACCESS = 4
    READLINK = 5
    READ = 6
    WRITE = 7
    CREATE = 8
    MKDIR = 9
    SYMLINK = 10
    MKNOD = 11
    REMOVE = 12
    RMDIR = 13
    RENAME = 14
    LINK = 15
    READDIR = 16
    READDIRPLUS = 17
    FSSTAT = 18
    FSINFO = 19
    PATHCONF = 20
    COMMIT = 21


#: nfsstat3 is the VFS status enum verbatim.
NfsStatus = Status

#: Procedures whose effects are not idempotent: a blind retransmission
#: that re-executes returns spurious NOENT/EXIST or double-applies the
#: mutation, so servers must answer duplicates from a reply cache
#: (repro.rpc.drc).  WRITE/COMMIT are idempotent by offset; SETATTR is
#: included because size/time updates can be guarded (ctime check).
NON_IDEMPOTENT_PROCS = frozenset(
    {
        Proc.SETATTR,
        Proc.CREATE,
        Proc.MKDIR,
        Proc.SYMLINK,
        Proc.MKNOD,
        Proc.REMOVE,
        Proc.RMDIR,
        Proc.RENAME,
        Proc.LINK,
    }
)

# ACCESS bits (RFC 1813 §3.3.4)
ACCESS_READ = 0x0001
ACCESS_LOOKUP = 0x0002
ACCESS_MODIFY = 0x0004
ACCESS_EXTEND = 0x0008
ACCESS_DELETE = 0x0010
ACCESS_EXECUTE = 0x0020
ACCESS_ALL = 0x003F

# WRITE stable_how
UNSTABLE = 0
DATA_SYNC = 1
FILE_SYNC = 2

# CREATE mode
UNCHECKED = 0
GUARDED = 1
EXCLUSIVE = 2


@dataclass(frozen=True)
class FileHandle:
    """Opaque nfs_fh3: (fsid, fileid, generation) in 16 bytes."""

    fsid: int
    fileid: int
    generation: int

    _STRUCT = struct.Struct(">IQI")
    #: on the wire the handle is a variable-length opaque that is always
    #: 16 bytes long: the length word and the handle are one layout
    _LAYOUT = "IIQI"
    _WIRE = struct.Struct(">" + _LAYOUT)

    def to_bytes(self) -> bytes:
        return self._STRUCT.pack(self.fsid, self.fileid, self.generation)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FileHandle":
        if len(data) != cls._STRUCT.size:
            raise XdrError(f"bad filehandle length {len(data)}")
        return cls(*cls._STRUCT.unpack(data))

    def _words(self) -> tuple:
        """The four wire values, in ``_LAYOUT`` order."""
        return (self._STRUCT.size, self.fsid, self.fileid, self.generation)

    @classmethod
    def _from_words(cls, n: int, fsid: int, fileid: int, generation: int) -> "FileHandle":
        if n != cls._STRUCT.size:
            raise XdrError(f"bad filehandle length {n}")
        return cls(fsid, fileid, generation)

    def pack(self, p: Packer) -> None:
        p.pack_struct(self._WIRE, *self._words())

    @classmethod
    def unpack(cls, u: Unpacker) -> "FileHandle":
        return cls._from_words(*u.unpack_struct(cls._WIRE))


_NFSTIME = struct.Struct(">II")  # seconds, nanoseconds


def _time_words(t: float) -> Tuple[int, int]:
    sec = int(t)
    nsec = int(round((t - sec) * 1e9))
    if nsec >= 1_000_000_000:
        sec += 1
        nsec -= 1_000_000_000
    return sec & 0xFFFFFFFF, nsec


def _pack_time(p: Packer, t: float) -> None:
    p.pack_struct(_NFSTIME, *_time_words(t))


def _unpack_time(u: Unpacker) -> float:
    sec, nsec = u.unpack_struct(_NFSTIME)
    return sec + nsec / 1e9


@dataclass
class Fattr3:
    """File attributes as returned by GETATTR and post-op attrs."""

    ftype: int
    mode: int
    nlink: int
    uid: int
    gid: int
    size: int
    used: int
    fsid: int
    fileid: int
    atime: float
    mtime: float
    ctime: float

    #: ftype mode nlink uid gid | size used | rdev major, minor |
    #: fsid fileid | atime mtime ctime as (seconds, nanoseconds): 84 bytes
    _LAYOUT = "iIIIIQQIIQQIIIIII"
    _WIRE = struct.Struct(">" + _LAYOUT)

    @classmethod
    def of(cls, node, fsid: int) -> "Fattr3":
        """The attributes of a :class:`repro.vfs.fs.Inode`."""
        return cls(
            int(node.ftype), node.mode, node.nlink, node.uid, node.gid,
            node.size, node.used_bytes(), fsid, node.fileid,
            node.atime, node.mtime, node.ctime,
        )

    def _words(self) -> tuple:
        """The 17 wire values, in ``_LAYOUT`` order."""
        return (
            self.ftype, self.mode, self.nlink, self.uid, self.gid,
            self.size, self.used, 0, 0, self.fsid, self.fileid,
            *_time_words(self.atime), *_time_words(self.mtime),
            *_time_words(self.ctime),
        )

    def pack(self, p: Packer) -> None:
        p.pack_struct(self._WIRE, *self._words())

    @classmethod
    def unpack(cls, u: Unpacker) -> "Fattr3":
        return cls._from_words(u.unpack_struct(cls._WIRE))

    @classmethod
    def _from_words(cls, words: tuple) -> "Fattr3":
        (ftype, mode, nlink, uid, gid, size, used, _major, _minor, fsid, fileid,
         asec, ansec, msec, mnsec, csec, cnsec) = words
        return cls(
            ftype, mode, nlink, uid, gid, size, used, fsid, fileid,
            asec + ansec / 1e9, msec + mnsec / 1e9, csec + cnsec / 1e9,
        )

    @property
    def is_dir(self) -> bool:
        return self.ftype == Ftype.DIR

    @property
    def is_reg(self) -> bool:
        return self.ftype == Ftype.REG


@dataclass
class Sattr3:
    """Settable attributes (each field optional)."""

    mode: Optional[int] = None
    uid: Optional[int] = None
    gid: Optional[int] = None
    size: Optional[int] = None
    atime: Optional[float] = None
    mtime: Optional[float] = None

    def pack(self, p: Packer) -> None:
        p.pack_optional(self.mode, p.pack_uint)
        p.pack_optional(self.uid, p.pack_uint)
        p.pack_optional(self.gid, p.pack_uint)
        p.pack_optional(self.size, p.pack_uhyper)
        # set_atime/set_mtime: 0 = don't change, 2 = set to client time
        if self.atime is None:
            p.pack_enum(0)
        else:
            p.pack_enum(2)
            _pack_time(p, self.atime)
        if self.mtime is None:
            p.pack_enum(0)
        else:
            p.pack_enum(2)
            _pack_time(p, self.mtime)

    @classmethod
    def unpack(cls, u: Unpacker) -> "Sattr3":
        mode = u.unpack_optional(u.unpack_uint)
        uid = u.unpack_optional(u.unpack_uint)
        gid = u.unpack_optional(u.unpack_uint)
        size = u.unpack_optional(u.unpack_uhyper)
        atime = _unpack_time(u) if u.unpack_enum() == 2 else None
        mtime = _unpack_time(u) if u.unpack_enum() == 2 else None
        return cls(mode, uid, gid, size, atime, mtime)


_ATTR_FOLLOWS = struct.Struct(">I" + Fattr3._LAYOUT)  # TRUE, then the attributes
_PRE_OP_ATTR = struct.Struct(">QIIII")  # size, mtime, ctime


def pack_post_op_attr(p: Packer, attr: Optional[Fattr3]) -> None:
    if attr is None:
        p.pack_bool(False)
    else:
        p.pack_struct(_ATTR_FOLLOWS, 1, *attr._words())


def unpack_post_op_attr(u: Unpacker) -> Optional[Fattr3]:
    return Fattr3.unpack(u) if u.unpack_bool() else None


def pack_wcc_data(p: Packer, after: Optional[Fattr3]) -> None:
    """wcc_data with empty pre-op attrs (we never supply them)."""
    p.pack_bool(False)  # pre_op_attr absent
    pack_post_op_attr(p, after)


def unpack_wcc_data(u: Unpacker) -> Optional[Fattr3]:
    if u.unpack_bool():  # pre_op_attr present: skipped
        u.unpack_struct(_PRE_OP_ATTR)
    return unpack_post_op_attr(u)


@dataclass
class DirEntry:
    fileid: int
    name: str
    cookie: int
    attr: Optional[Fattr3] = None
    handle: Optional[FileHandle] = None


# ---------------------------------------------------------------------------
# Argument/result codecs.  Names follow <PROC>_args / <PROC>_res.
# Results decode into (status, payload...) tuples.
# ---------------------------------------------------------------------------

# Runs of fixed-size fields that travel together, one struct call each.
_FH_WORD = struct.Struct(">" + FileHandle._LAYOUT + "I")  # ACCESS args
_FH_OFFSET_COUNT = struct.Struct(">" + FileHandle._LAYOUT + "QI")  # READ, COMMIT args
_WRITE_ARGS = struct.Struct(">" + FileHandle._LAYOUT + "QIiI")  # ..., stable, data length
_STATUS_ATTR = struct.Struct(">i" + Fattr3._LAYOUT)  # GETATTR OK
_STATUS_FH = struct.Struct(">i" + FileHandle._LAYOUT)  # LOOKUP OK, up to the attrs
_READ_OK_TAIL = struct.Struct(">III")  # count, eof, data length
_WRITE_OK_TAIL = struct.Struct(">Ii")  # count, committed (the verifier follows)


def pack_diropargs(p: Packer, dir_fh: FileHandle, name: str) -> None:
    dir_fh.pack(p)
    p.pack_string(name)


def unpack_diropargs(u: Unpacker) -> Tuple[FileHandle, str]:
    return FileHandle.unpack(u), u.unpack_string(max_len=255)


def unpack_diropargs_prefix(data: bytes) -> Tuple[FileHandle, str]:
    """The (dir handle, name) prefix shared by CREATE/MKDIR/SYMLINK args.

    Proxies use this to learn names without decoding the full argument
    structure of every create-family procedure.
    """
    u = Unpacker(data)
    return unpack_diropargs(u)


def read_ok(reply, unpack, **kwargs):
    """The one way a hop reads an upstream reply it relays: the
    ``unpack_*_res`` tuple when ``reply`` is an accepted SUCCESS whose
    results parse and report ``NFS3_OK``; else None (also for the None a
    burst returns for an unanswered member), and the hop passes a reply
    that taught it nothing on untouched."""
    if reply is None or not reply.ok:
        return None
    try:
        res = unpack(reply.results, **kwargs)
    except XdrError:
        return None
    return res if res[0] == NfsStatus.OK else None


# GETATTR ------------------------------------------------------------------

def pack_getattr_args(fh: FileHandle) -> bytes:
    p = Packer()
    fh.pack(p)
    return p.get_bytes()


def unpack_getattr_args(data: bytes) -> FileHandle:
    u = Unpacker(data)
    fh = FileHandle.unpack(u)
    u.assert_done()
    return fh


def pack_getattr_res(status: int, attr: Optional[Fattr3]) -> bytes:
    p = Packer()
    if status == NfsStatus.OK:
        assert attr is not None
        p.pack_struct(_STATUS_ATTR, status, *attr._words())
    else:
        p.pack_enum(status)
    return p.get_bytes()


def unpack_getattr_res(data: bytes) -> Tuple[int, Optional[Fattr3]]:
    u = Unpacker(data)
    status = u.unpack_enum()
    attr = Fattr3.unpack(u) if status == NfsStatus.OK else None
    return status, attr


# SETATTR --------------------------------------------------------------------

def pack_setattr_args(fh: FileHandle, sattr: Sattr3) -> bytes:
    p = Packer()
    fh.pack(p)
    sattr.pack(p)
    p.pack_bool(False)  # guard: no ctime check
    return p.get_bytes()


def unpack_setattr_args(data: bytes) -> Tuple[FileHandle, Sattr3]:
    u = Unpacker(data)
    fh = FileHandle.unpack(u)
    sattr = Sattr3.unpack(u)
    if u.unpack_bool():
        _unpack_time(u)
    u.assert_done()
    return fh, sattr


def pack_setattr_res(status: int, after: Optional[Fattr3]) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_wcc_data(p, after)
    return p.get_bytes()


def unpack_setattr_res(data: bytes) -> Tuple[int, Optional[Fattr3]]:
    u = Unpacker(data)
    status = u.unpack_enum()
    return status, unpack_wcc_data(u)


# LOOKUP --------------------------------------------------------------------

def pack_lookup_args(dir_fh: FileHandle, name: str) -> bytes:
    p = Packer()
    pack_diropargs(p, dir_fh, name)
    return p.get_bytes()


def unpack_lookup_args(data: bytes) -> Tuple[FileHandle, str]:
    u = Unpacker(data)
    out = unpack_diropargs(u)
    u.assert_done()
    return out


def pack_lookup_res(
    status: int, fh: Optional[FileHandle], attr: Optional[Fattr3],
    dir_attr: Optional[Fattr3],
) -> bytes:
    p = Packer()
    if status == NfsStatus.OK:
        assert fh is not None
        p.pack_struct(_STATUS_FH, status, *fh._words())
        pack_post_op_attr(p, attr)
    else:
        p.pack_enum(status)
    pack_post_op_attr(p, dir_attr)
    return p.get_bytes()


def unpack_lookup_res(
    data: bytes,
) -> Tuple[int, Optional[FileHandle], Optional[Fattr3], Optional[Fattr3]]:
    u = Unpacker(data)
    status = u.unpack_enum()
    if status == NfsStatus.OK:
        fh = FileHandle.unpack(u)
        attr = unpack_post_op_attr(u)
        dir_attr = unpack_post_op_attr(u)
        return status, fh, attr, dir_attr
    return status, None, None, unpack_post_op_attr(u)


# ACCESS --------------------------------------------------------------------

def pack_access_args(fh: FileHandle, access: int) -> bytes:
    p = Packer()
    p.pack_struct(_FH_WORD, *fh._words(), access)
    return p.get_bytes()


def unpack_access_args(data: bytes) -> Tuple[FileHandle, int]:
    u = Unpacker(data)
    *handle, access = u.unpack_struct(_FH_WORD)
    u.assert_done()
    return FileHandle._from_words(*handle), access


def pack_access_res(status: int, attr: Optional[Fattr3], access: int) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        p.pack_uint(access)
    return p.get_bytes()


def unpack_access_res(data: bytes) -> Tuple[int, Optional[Fattr3], int]:
    u = Unpacker(data)
    status = u.unpack_enum()
    attr = unpack_post_op_attr(u)
    access = u.unpack_uint() if status == NfsStatus.OK else 0
    return status, attr, access


# READLINK ------------------------------------------------------------------

def pack_readlink_args(fh: FileHandle) -> bytes:
    return pack_getattr_args(fh)


def unpack_readlink_args(data: bytes) -> FileHandle:
    return unpack_getattr_args(data)


def pack_readlink_res(status: int, attr: Optional[Fattr3], target: str) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        p.pack_string(target)
    return p.get_bytes()


def unpack_readlink_res(data: bytes) -> Tuple[int, Optional[Fattr3], str]:
    u = Unpacker(data)
    status = u.unpack_enum()
    attr = unpack_post_op_attr(u)
    target = u.unpack_string() if status == NfsStatus.OK else ""
    return status, attr, target


# READ ----------------------------------------------------------------------

def pack_read_args(fh: FileHandle, offset: int, count: int) -> bytes:
    p = Packer()
    p.pack_struct(_FH_OFFSET_COUNT, *fh._words(), offset, count)
    return p.get_bytes()


def unpack_read_args(data: bytes) -> Tuple[FileHandle, int, int]:
    u = Unpacker(data)
    *handle, offset, count = u.unpack_struct(_FH_OFFSET_COUNT)
    u.assert_done()
    return FileHandle._from_words(*handle), offset, count


def pack_read_res(
    status: int, attr: Optional[Fattr3], data: bytes = b"", eof: bool = False
) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        p.pack_struct(_READ_OK_TAIL, len(data), bool(eof), len(data))
        p.pack_fopaque(len(data), data)
    return p.get_bytes()


def unpack_read_res(data: bytes) -> Tuple[int, Optional[Fattr3], bytes, bool]:
    u = Unpacker(data)
    status = u.unpack_enum()
    attr = unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, attr, b"", False
    count, eof, n = u.unpack_struct(_READ_OK_TAIL)
    eof = check_bool(eof)
    payload = u.unpack_fopaque(n)
    if n != count:
        raise XdrError("READ reply count mismatch")
    return status, attr, payload, eof


# WRITE ---------------------------------------------------------------------

def pack_write_args(
    fh: FileHandle, offset: int, data: bytes, stable: int = FILE_SYNC
) -> bytes:
    p = Packer()
    p.pack_struct(_WRITE_ARGS, *fh._words(), offset, len(data), stable, len(data))
    p.pack_fopaque(len(data), data)
    return p.get_bytes()


def unpack_write_args(data: bytes) -> Tuple[FileHandle, int, int, bytes]:
    u = Unpacker(data)
    *handle, offset, count, stable, n = u.unpack_struct(_WRITE_ARGS)
    fh = FileHandle._from_words(*handle)
    payload = u.unpack_fopaque(n)
    if n != count:
        raise XdrError("WRITE args count mismatch")
    u.assert_done()
    return fh, offset, stable, payload


def pack_write_res(
    status: int, after: Optional[Fattr3], count: int = 0,
    committed: int = FILE_SYNC, verf: bytes = b"\x00" * 8,
) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_wcc_data(p, after)
    if status == NfsStatus.OK:
        p.pack_struct(_WRITE_OK_TAIL, count, committed)
        p.pack_fopaque(8, verf)
    return p.get_bytes()


def unpack_write_res(data: bytes) -> Tuple[int, Optional[Fattr3], int, int, bytes]:
    u = Unpacker(data)
    status = u.unpack_enum()
    after = unpack_wcc_data(u)
    if status != NfsStatus.OK:
        return status, after, 0, 0, b""
    count, committed = u.unpack_struct(_WRITE_OK_TAIL)
    verf = u.unpack_fopaque(8)
    return status, after, count, committed, verf


# CREATE / MKDIR ----------------------------------------------------------------

def pack_create_args(
    dir_fh: FileHandle, name: str, sattr: Sattr3, mode: int = UNCHECKED
) -> bytes:
    p = Packer()
    pack_diropargs(p, dir_fh, name)
    p.pack_enum(mode)
    if mode in (UNCHECKED, GUARDED):
        sattr.pack(p)
    else:
        p.pack_fopaque(8, b"\x00" * 8)  # exclusive createverf
    return p.get_bytes()


def unpack_create_args(data: bytes) -> Tuple[FileHandle, str, int, Sattr3]:
    u = Unpacker(data)
    dir_fh, name = unpack_diropargs(u)
    mode = u.unpack_enum()
    if mode in (UNCHECKED, GUARDED):
        sattr = Sattr3.unpack(u)
    else:
        u.unpack_fopaque(8)
        sattr = Sattr3()
    u.assert_done()
    return dir_fh, name, mode, sattr


def pack_mkdir_args(dir_fh: FileHandle, name: str, sattr: Sattr3) -> bytes:
    p = Packer()
    pack_diropargs(p, dir_fh, name)
    sattr.pack(p)
    return p.get_bytes()


def unpack_mkdir_args(data: bytes) -> Tuple[FileHandle, str, Sattr3]:
    u = Unpacker(data)
    dir_fh, name = unpack_diropargs(u)
    sattr = Sattr3.unpack(u)
    u.assert_done()
    return dir_fh, name, sattr


def pack_create_res(
    status: int, fh: Optional[FileHandle], attr: Optional[Fattr3],
    dir_after: Optional[Fattr3],
) -> bytes:
    """Shared by CREATE, MKDIR, SYMLINK."""
    p = Packer()
    p.pack_enum(status)
    if status == NfsStatus.OK:
        p.pack_optional(fh, lambda f: f.pack(p))
        pack_post_op_attr(p, attr)
    pack_wcc_data(p, dir_after)
    return p.get_bytes()


def unpack_create_res(
    data: bytes,
) -> Tuple[int, Optional[FileHandle], Optional[Fattr3], Optional[Fattr3]]:
    u = Unpacker(data)
    status = u.unpack_enum()
    if status == NfsStatus.OK:
        fh = u.unpack_optional(lambda: FileHandle.unpack(u))
        attr = unpack_post_op_attr(u)
        dir_after = unpack_wcc_data(u)
        return status, fh, attr, dir_after
    return status, None, None, unpack_wcc_data(u)


# SYMLINK ----------------------------------------------------------------------

def pack_symlink_args(dir_fh: FileHandle, name: str, target: str, sattr: Sattr3) -> bytes:
    p = Packer()
    pack_diropargs(p, dir_fh, name)
    sattr.pack(p)
    p.pack_string(target)
    return p.get_bytes()


def unpack_symlink_args(data: bytes) -> Tuple[FileHandle, str, Sattr3, str]:
    u = Unpacker(data)
    dir_fh, name = unpack_diropargs(u)
    sattr = Sattr3.unpack(u)
    target = u.unpack_string()
    u.assert_done()
    return dir_fh, name, sattr, target


# REMOVE / RMDIR --------------------------------------------------------------

def pack_remove_args(dir_fh: FileHandle, name: str) -> bytes:
    return pack_lookup_args(dir_fh, name)


def unpack_remove_args(data: bytes) -> Tuple[FileHandle, str]:
    return unpack_lookup_args(data)


def pack_remove_res(status: int, dir_after: Optional[Fattr3]) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_wcc_data(p, dir_after)
    return p.get_bytes()


def unpack_remove_res(data: bytes) -> Tuple[int, Optional[Fattr3]]:
    u = Unpacker(data)
    status = u.unpack_enum()
    return status, unpack_wcc_data(u)


# RENAME -----------------------------------------------------------------------

def pack_rename_args(
    from_dir: FileHandle, from_name: str, to_dir: FileHandle, to_name: str
) -> bytes:
    p = Packer()
    pack_diropargs(p, from_dir, from_name)
    pack_diropargs(p, to_dir, to_name)
    return p.get_bytes()


def unpack_rename_args(data: bytes) -> Tuple[FileHandle, str, FileHandle, str]:
    u = Unpacker(data)
    from_dir, from_name = unpack_diropargs(u)
    to_dir, to_name = unpack_diropargs(u)
    u.assert_done()
    return from_dir, from_name, to_dir, to_name


def pack_rename_res(
    status: int, from_after: Optional[Fattr3], to_after: Optional[Fattr3]
) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_wcc_data(p, from_after)
    pack_wcc_data(p, to_after)
    return p.get_bytes()


def unpack_rename_res(data: bytes) -> Tuple[int, Optional[Fattr3], Optional[Fattr3]]:
    u = Unpacker(data)
    status = u.unpack_enum()
    return status, unpack_wcc_data(u), unpack_wcc_data(u)


# LINK -------------------------------------------------------------------------

def pack_link_args(fh: FileHandle, dir_fh: FileHandle, name: str) -> bytes:
    p = Packer()
    fh.pack(p)
    pack_diropargs(p, dir_fh, name)
    return p.get_bytes()


def unpack_link_args(data: bytes) -> Tuple[FileHandle, FileHandle, str]:
    u = Unpacker(data)
    fh = FileHandle.unpack(u)
    dir_fh, name = unpack_diropargs(u)
    u.assert_done()
    return fh, dir_fh, name


def pack_link_res(
    status: int, attr: Optional[Fattr3], dir_after: Optional[Fattr3]
) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    pack_wcc_data(p, dir_after)
    return p.get_bytes()


def unpack_link_res(data: bytes) -> Tuple[int, Optional[Fattr3], Optional[Fattr3]]:
    u = Unpacker(data)
    status = u.unpack_enum()
    return status, unpack_post_op_attr(u), unpack_wcc_data(u)


# READDIR ----------------------------------------------------------------------

def pack_readdir_args(
    dir_fh: FileHandle, cookie: int = 0, cookieverf: bytes = b"\x00" * 8,
    count: int = 8192, plus: bool = False, maxcount: int = 32768,
) -> bytes:
    p = Packer()
    dir_fh.pack(p)
    p.pack_uhyper(cookie)
    p.pack_fopaque(8, cookieverf)
    if plus:
        p.pack_uint(count)
        p.pack_uint(maxcount)
    else:
        p.pack_uint(count)
    return p.get_bytes()


def unpack_readdir_args(data: bytes, plus: bool = False) -> Tuple[FileHandle, int, bytes, int]:
    u = Unpacker(data)
    fh = FileHandle.unpack(u)
    cookie = u.unpack_uhyper()
    verf = u.unpack_fopaque(8)
    count = u.unpack_uint()
    if plus:
        u.unpack_uint()
    u.assert_done()
    return fh, cookie, verf, count


def pack_readdir_res(
    status: int, dir_attr: Optional[Fattr3], entries: List[DirEntry],
    eof: bool, plus: bool = False, cookieverf: bytes = b"\x00" * 8,
) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_post_op_attr(p, dir_attr)
    if status != NfsStatus.OK:
        return p.get_bytes()
    p.pack_fopaque(8, cookieverf)

    def pack_entry(e: DirEntry) -> None:
        p.pack_uhyper(e.fileid)
        p.pack_string(e.name)
        p.pack_uhyper(e.cookie)
        if plus:
            pack_post_op_attr(p, e.attr)
            p.pack_optional(e.handle, lambda f: f.pack(p))

    p.pack_list(entries, pack_entry)
    p.pack_bool(eof)
    return p.get_bytes()


def unpack_readdir_res(
    data: bytes, plus: bool = False
) -> Tuple[int, Optional[Fattr3], List[DirEntry], bool]:
    u = Unpacker(data)
    status = u.unpack_enum()
    dir_attr = unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, dir_attr, [], True
    u.unpack_fopaque(8)

    def unpack_entry() -> DirEntry:
        fileid = u.unpack_uhyper()
        name = u.unpack_string(max_len=255)
        cookie = u.unpack_uhyper()
        attr = None
        handle = None
        if plus:
            attr = unpack_post_op_attr(u)
            handle = u.unpack_optional(lambda: FileHandle.unpack(u))
        return DirEntry(fileid, name, cookie, attr, handle)

    entries = u.unpack_list(unpack_entry, max_len=100_000)
    eof = u.unpack_bool()
    return status, dir_attr, entries, eof


# FSSTAT / FSINFO / PATHCONF / COMMIT --------------------------------------------

def pack_fsstat_res(
    status: int, attr: Optional[Fattr3], tbytes: int, fbytes: int, files: int
) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        p.pack_uhyper(tbytes)
        p.pack_uhyper(fbytes)
        p.pack_uhyper(fbytes)  # abytes == fbytes (no reservation)
        p.pack_uhyper(files)
        p.pack_uhyper(files)
        p.pack_uhyper(files)
        p.pack_uint(0)  # invarsec
    return p.get_bytes()


def unpack_fsstat_res(data: bytes) -> Tuple[int, int, int, int]:
    u = Unpacker(data)
    status = u.unpack_enum()
    unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, 0, 0, 0
    tbytes = u.unpack_uhyper()
    fbytes = u.unpack_uhyper()
    u.unpack_uhyper()
    files = u.unpack_uhyper()
    return status, tbytes, fbytes, files


def pack_fsinfo_res(status: int, attr: Optional[Fattr3], rtmax: int, wtmax: int) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        p.pack_uint(rtmax)
        p.pack_uint(rtmax)
        p.pack_uint(4096)
        p.pack_uint(wtmax)
        p.pack_uint(wtmax)
        p.pack_uint(4096)
        p.pack_uint(rtmax)  # dtpref
        p.pack_uhyper(2**63 - 1)  # maxfilesize
        _pack_time(p, 0.001)  # time_delta
        p.pack_uint(0x1B)  # properties: LINK|SYMLINK|HOMOGENEOUS|CANSETTIME
    return p.get_bytes()


def unpack_fsinfo_res(data: bytes) -> Tuple[int, int, int]:
    u = Unpacker(data)
    status = u.unpack_enum()
    unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, 0, 0
    rtmax = u.unpack_uint()
    u.unpack_uint()
    u.unpack_uint()
    wtmax = u.unpack_uint()
    return status, rtmax, wtmax


def pack_commit_args(fh: FileHandle, offset: int = 0, count: int = 0) -> bytes:
    return pack_read_args(fh, offset, count)  # the same layout


def unpack_commit_args(data: bytes) -> Tuple[FileHandle, int, int]:
    return unpack_read_args(data)


def pack_commit_res(status: int, after: Optional[Fattr3], verf: bytes = b"\x00" * 8) -> bytes:
    p = Packer()
    p.pack_enum(status)
    pack_wcc_data(p, after)
    if status == NfsStatus.OK:
        p.pack_fopaque(8, verf)
    return p.get_bytes()


def unpack_commit_res(data: bytes) -> Tuple[int, Optional[Fattr3], bytes]:
    u = Unpacker(data)
    status = u.unpack_enum()
    after = unpack_wcc_data(u)
    verf = u.unpack_fopaque(8) if status == NfsStatus.OK else b""
    return status, after, verf
