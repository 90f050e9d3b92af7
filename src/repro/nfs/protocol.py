"""NFSv3 wire types and per-procedure codecs (RFC 1813).

Both endpoints and the SGFS proxies share these codecs.  The proxies
decode just enough of a message to authorize and rewrite it (procedure
number, directory handles, credentials) — the ability to do that on real
encoded messages is the essence of NFS virtualization.  Most of the
``pack_*``/``unpack_*`` functions are compiled at import from the codec
table, ``ROWS``.
"""

from __future__ import annotations

import enum
import linecache
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
#: Plain ints, the numbers ``CallMessage.proc`` carries: the set every
#: serving hop hands to ``DuplicateRequestCache.answer``.
NON_IDEMPOTENT_PROCS = frozenset(int(p) for p in (
    Proc.SETATTR, Proc.CREATE, Proc.MKDIR, Proc.SYMLINK, Proc.MKNOD,
    Proc.REMOVE, Proc.RMDIR, Proc.RENAME, Proc.LINK,
))

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


def unpack_diropargs_prefix(data: bytes) -> Tuple[FileHandle, str]:
    """The (dir handle, name) prefix shared by CREATE/MKDIR/SYMLINK args.

    Proxies use this to learn names without decoding the full argument
    structure of every create-family procedure.
    """
    u = Unpacker(data)
    return FileHandle.unpack(u), u.unpack_string(max_len=255)


#: where a WRITE's stable_how word sits in its arguments: after the
#: handle (always its 20 wire bytes), the offset and the count
_WRITE_STABLE_AT = FileHandle._WIRE.size + 12
_UNSTABLE_WORD = struct.pack(">i", UNSTABLE)


def unstable_write_args(args: bytes) -> Tuple[FileHandle, bytes]:
    """A WRITE's file handle, and its arguments re-marked UNSTABLE.

    The stable_how word is patched, not the arguments re-encoded, so the
    payload is copied once and never unpacked."""
    fh = FileHandle.unpack(Unpacker(args))
    at = _WRITE_STABLE_AT
    return fh, b"".join((args[:at], _UNSTABLE_WORD, memoryview(args)[at + 4:]))


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


# ---------------------------------------------------------------------------
# The codec table.  Each procedure's arguments and result are declared
# once, as fields in wire order (ROWS); at import the table is compiled
# into the module's pack_<proc>_args, unpack_<proc>_args, pack_<proc>_res
# and unpack_<proc>_res functions.  Results decode into (status, ...)
# tuples.  The bodies the table cannot express are hand-written below it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Kind:
    """How a field travels.  ``fmt`` holds the struct letters of its
    fixed part: the fixed parts of adjacent fields fuse into one
    ``struct.Struct``.  ``words`` turns the value ``{v}`` into those
    words and ``value`` turns the words ``{w}`` back.  ``pack`` and
    ``unpack`` are the statements for what follows the fixed part (when
    ``unpack`` runs, ``{v}`` holds the fixed part's value)."""

    fmt: str = ""
    words: str = "{v}"
    value: str = "{w}"
    pack: str = ""
    unpack: str = ""


STATUS, U32, I32, U64 = Kind("i"), Kind("I"), Kind("i"), Kind("Q")
BOOL = Kind("I", "bool({v})", "check_bool({w})")
FH = Kind(FileHandle._LAYOUT, "*{v}._words()", "FileHandle._from_words(*{w})")
ATTR = Kind(Fattr3._LAYOUT, "*{v}._words()", "Fattr3._from_words({w})")
POST_OP_ATTR = Kind(pack="pack_post_op_attr(p, {v})", unpack="{v} = unpack_post_op_attr(u)")
WCC_DATA = Kind(pack="pack_wcc_data(p, {v})", unpack="{v} = unpack_wcc_data(u)")
POST_OP_FH = Kind(pack="p.pack_optional({v}, lambda fh: fh.pack(p))",
                  unpack="{v} = u.unpack_optional(lambda: FileHandle.unpack(u))")
NAME = Kind(pack="p.pack_string({v})", unpack="{v} = u.unpack_string(max_len=255)")
PATH = Kind(pack="p.pack_string({v})", unpack="{v} = u.unpack_string()")
VERF = Kind(pack="p.pack_fopaque(8, {v})", unpack="{v} = u.unpack_fopaque(8)")
SATTR = Kind(pack="{v}.pack(p)", unpack="{v} = Sattr3.unpack(u)")
#: sattrguard3: never sent; a ctime check that arrives is read and ignored
GUARD = Kind(pack="p.pack_bool(False)", unpack="if u.unpack_bool(): _unpack_time(u)")
#: READ's and WRITE's count word: the length of the row's ``data``, ...
COUNT = Kind("I", "len(data)")
#: ... whose own length word must agree with it
DATA = Kind("I", "len({v})", pack="p.pack_fopaque(len({v}), {v})", unpack=(
    "{v} = u.unpack_fopaque({v})\n"
    "if len({v}) != _count: raise XdrError('count word and data length disagree')"))


@dataclass(frozen=True)
class Field:
    """A named field.  One whose name starts with ``_`` travels but is
    neither a parameter nor returned.  ``fail`` is what the decoder of a
    failed result returns for a field only the OK arm carries."""

    name: str
    kind: Kind
    fail: object = None


@dataclass(frozen=True)
class Row:
    """One procedure's arguments or result (a ``*_res`` name).

    ``fields`` are the arguments, or the fields every arm of the result
    carries.  A result starts with its status and the OK-only
    ``prefix``, and ends with the OK-only ``suffix``.  ``sig`` and
    ``ret`` are the pack parameters and the decoded order where they are
    not the wire order.  A ``hand`` result's OK arm is hand-written: only
    its failure arm comes from the table."""

    name: str
    fields: Tuple[Field, ...] = ()
    prefix: Tuple[Field, ...] = ()
    suffix: Tuple[Field, ...] = ()
    sig: str = ""
    ret: str = ""
    hand: bool = False

    @property
    def wire(self) -> Tuple[Field, ...]:
        status = (_F("status", STATUS),) if self.name.endswith("_res") else ()
        return status + self.prefix + self.fields + self.suffix


_F = Field
_DIROPARGS = (_F("dir_fh", FH), _F("name", NAME))
_POST_OP = _F("attr", POST_OP_ATTR)

ROWS = (
    Row("getattr_args", (_F("fh", FH),)),
    Row("getattr_res", prefix=(_F("attr", ATTR),)),
    Row("setattr_args", (_F("fh", FH), _F("sattr", SATTR), _F("_guard", GUARD))),
    Row("setattr_res", (_F("after", WCC_DATA),)),
    Row("lookup_args", _DIROPARGS),
    Row("lookup_res", (_F("dir_attr", POST_OP_ATTR),), prefix=(_F("fh", FH), _POST_OP)),
    Row("access_args", (_F("fh", FH), _F("access", U32))),
    Row("access_res", (_POST_OP,), suffix=(_F("access", U32, 0),)),
    Row("readlink_args", (_F("fh", FH),)),
    Row("readlink_res", (_POST_OP,), suffix=(_F("target", PATH, ""),)),
    Row("read_args", (_F("fh", FH), _F("offset", U64), _F("count", U32))),
    Row("read_res", (_POST_OP,), suffix=(
        _F("_count", COUNT), _F("eof", BOOL, False), _F("data", DATA, b"")),
        sig='status, attr, data=b"", eof=False', ret="status, attr, data, eof"),
    Row("write_args", (_F("fh", FH), _F("offset", U64), _F("_count", COUNT),
                       _F("stable", I32), _F("data", DATA)),
        sig="fh, offset, data, stable=FILE_SYNC"),
    Row("write_res", (_F("after", WCC_DATA),), suffix=(
        _F("count", U32, 0), _F("committed", I32, 0), _F("verf", VERF, b"")),
        sig="status, after, count=0, committed=FILE_SYNC, verf=bytes(8)"),
    # CREATE's arguments are hand-written; its result is MKDIR's and SYMLINK's
    Row("create_res", (_F("dir_after", WCC_DATA),),
        prefix=(_F("fh", POST_OP_FH), _POST_OP)),
    Row("mkdir_args", (*_DIROPARGS, _F("sattr", SATTR))),
    Row("symlink_args", (*_DIROPARGS, _F("sattr", SATTR), _F("target", PATH)),
        sig="dir_fh, name, target, sattr"),
    Row("remove_args", _DIROPARGS),  # REMOVE's and RMDIR's
    Row("remove_res", (_F("dir_after", WCC_DATA),)),
    Row("rename_args", (_F("from_dir", FH), _F("from_name", NAME),
                        _F("to_dir", FH), _F("to_name", NAME))),
    Row("rename_res", (_F("from_after", WCC_DATA), _F("to_after", WCC_DATA))),
    Row("link_args", (_F("fh", FH), *_DIROPARGS)),
    Row("link_res", (_POST_OP, _F("dir_after", WCC_DATA))),
    Row("readdir_res", (_F("dir_attr", POST_OP_ATTR),), hand=True),  # and READDIRPLUS's
    Row("fsstat_res", (_POST_OP,), hand=True),
    Row("fsinfo_res", (_POST_OP,), hand=True),
    Row("pathconf_res", (_POST_OP,), suffix=(
        _F("linkmax", U32, 0), _F("name_max", U32, 0), _F("no_trunc", BOOL, False),
        _F("chown_restricted", BOOL, False), _F("case_insensitive", BOOL, False),
        _F("case_preserving", BOOL, False))),
    Row("commit_args", (_F("fh", FH), _F("offset", U64), _F("count", U32)),
        sig="fh, offset=0, count=0"),
    Row("commit_res", (_F("after", WCC_DATA),), suffix=(_F("verf", VERF, b""),),
        sig="status, after, verf=bytes(8)"),
)

#: procedures that share another's result
_SAME_RESULT = {Proc.MKDIR: Proc.CREATE, Proc.SYMLINK: Proc.CREATE, Proc.MKNOD: Proc.CREATE,
                Proc.RMDIR: Proc.REMOVE, Proc.READDIRPLUS: Proc.READDIR}


# -- the table compiler -------------------------------------------------------

_STRUCTS: Dict[str, str] = {}  # struct letters -> the name of their Struct here


def _struct(fmt: str) -> str:
    if fmt not in _STRUCTS:
        _STRUCTS[fmt] = f"_S{len(_STRUCTS)}"
        globals()[_STRUCTS[fmt]] = struct.Struct(">" + fmt)
    return _STRUCTS[fmt]


def _pack(fields) -> List[str]:
    """Statements packing ``fields`` into ``p``."""
    out, run = [], []

    def flush():
        if run:
            words = ", ".join(f.kind.words.format(v=f.name) for f in run)
            out.append(f"p.pack_struct({_struct(''.join(f.kind.fmt for f in run))}, {words})")
            run.clear()

    for f in fields:
        if f.kind.fmt:
            run.append(f)
        if f.kind.pack:
            flush()
            out.append(f.kind.pack.format(v=f.name))
    flush()
    return out


def _unpack(fields) -> List[str]:
    """Statements reading ``fields`` from ``u`` into locals of their names."""
    out, run = [], []

    def flush():
        if run:
            out.append(f"w = u.unpack_struct({_struct(''.join(f.kind.fmt for f in run))})")
            i = 0
            for f in run:
                n = len(f.kind.fmt)
                w = f"w[{i}]" if n == 1 else "w" if len(run) == 1 else f"w[{i}:{i + n}]"
                out.append(f"{f.name} = " + f.kind.value.format(w=w))
                i += n
            run.clear()

    for f in fields:
        if f.kind.fmt:
            run.append(f)
        if f.kind.unpack:
            flush()
            out += f.kind.unpack.format(v=f.name).split("\n")
    flush()
    return out


def _def(name: str, params: str, body: List[str]) -> str:
    return "\n    ".join([f"def {name}({params}):", *body]) + "\n\n"


def _ok_only(test: str, body: List[str]) -> List[str]:
    return [f"if status {test} {int(NfsStatus.OK)}:", *("    " + line for line in body)]


def _source(row: Row) -> str:
    """The Python source of ``row``'s functions."""
    names = [f.name for f in row.wire if not f.name.startswith("_")]
    sig, ret = row.sig or ", ".join(names), row.ret or ", ".join(names)
    if not row.name.endswith("_res"):
        return _def(f"pack_{row.name}", sig, ["p = Packer()", *_pack(row.fields),
                                              "return p.get_bytes()"]) + \
            _def(f"unpack_{row.name}", "data", ["u = Unpacker(data)", *_unpack(row.fields),
                                                "u.assert_done()", f"return {ret}"])
    status = (_F("status", STATUS),)
    # a failed call's result: the status, then the fields every arm carries, empty
    src = _def(f"_failed_{row.name}", "status", [
        "p = Packer()", *(f"{f.name} = None" for f in row.fields),
        *_pack(status + row.fields), "return p.get_bytes()"])
    if row.hand:
        return src
    pack, unpack = _pack(status), _unpack(status)
    if row.prefix:
        pack = [*_ok_only("==", _pack(status + row.prefix)), "else:", *("    " + s for s in pack)]
        unpack += [*_ok_only("==", _unpack(row.prefix)),
                   "else:", "    " + " = ".join(f.name for f in row.prefix) + " = None"]
    pack += _pack(row.fields)
    unpack += _unpack(row.fields)
    if row.suffix:
        pack += _ok_only("==", _pack(row.suffix))
        fail = {f.name: repr(f.fail) for f in row.suffix}
        failed = ", ".join(fail.get(n, n) for n in ret.split(", "))
        unpack += [*_ok_only("!=", [f"return {failed}"]), *_unpack(row.suffix)]
    return src + \
        _def(f"pack_{row.name}", sig, ["p = Packer()", *pack, "return p.get_bytes()"]) + \
        _def(f"unpack_{row.name}", "data", ["u = Unpacker(data)", *unpack, f"return {ret}"])


_SOURCE = "\n".join(_source(row) for row in ROWS)
_FILENAME = f"{__file__}<codec table>"
linecache.cache[_FILENAME] = (len(_SOURCE), None, _SOURCE.splitlines(True), _FILENAME)
exec(compile(_SOURCE, _FILENAME, "exec"), globals())

_FAILED = {proc: globals()[f"_failed_{_SAME_RESULT.get(proc, proc).name.lower()}_res"]
           for proc in Proc if proc != Proc.NULL}


def error_result(proc: Proc, status: int) -> bytes:
    """The result of a ``proc`` call that failed with ``status``."""
    return _FAILED[proc](status)


# -- the bodies the table cannot express ---------------------------------------

def pack_create_args(
    dir_fh: FileHandle, name: str, sattr: Sattr3, mode: int = UNCHECKED
) -> bytes:
    """createhow3 is a union: attributes, or an exclusive-create verifier."""
    p = Packer()
    dir_fh.pack(p)
    p.pack_string(name)
    p.pack_enum(mode)
    if mode in (UNCHECKED, GUARDED):
        sattr.pack(p)
    else:
        p.pack_fopaque(8, b"\x00" * 8)  # exclusive createverf
    return p.get_bytes()


def unpack_create_args(data: bytes) -> Tuple[FileHandle, str, int, Sattr3]:
    u = Unpacker(data)
    dir_fh, name = FileHandle.unpack(u), u.unpack_string(max_len=255)
    mode = u.unpack_enum()
    if mode in (UNCHECKED, GUARDED):
        sattr = Sattr3.unpack(u)
    else:
        u.unpack_fopaque(8)
        sattr = Sattr3()
    u.assert_done()
    return dir_fh, name, mode, sattr


def pack_readdir_args(
    dir_fh: FileHandle, cookie: int = 0, cookieverf: bytes = b"\x00" * 8,
    count: int = 8192, plus: bool = False, maxcount: int = 32768,
) -> bytes:
    """READDIR's arguments, or with ``plus`` READDIRPLUS's (one more count)."""
    p = Packer()
    dir_fh.pack(p)
    p.pack_uhyper(cookie)
    p.pack_fopaque(8, cookieverf)
    p.pack_uint(count)
    if plus:
        p.pack_uint(maxcount)
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
    """The entries are an XDR linked list, each with attributes and a
    handle only under ``plus``."""
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


_FSSTAT_OK = struct.Struct(">QQQQQQI")  # t/f/a bytes, t/f/a files, invarsec
_FSINFO_OK = struct.Struct(">IIIIIIIQIII")  # rt, wt, dt sizes, maxfilesize, delta, properties
_FSSTAT_SIZES, _FSINFO_SIZES = struct.Struct(">QQQQ"), struct.Struct(">IIII")  # the prefixes read


def pack_fsstat_res(
    status: int, attr: Optional[Fattr3], tbytes: int, fbytes: int, files: int
) -> bytes:
    """Sent: free bytes as available too (no reservation), one count as
    all three file counts.  Decoded: what the client asks about."""
    p = Packer()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        p.pack_struct(_FSSTAT_OK, tbytes, fbytes, fbytes, files, files, files, 0)
    return p.get_bytes()


def unpack_fsstat_res(data: bytes) -> Tuple[int, int, int, int]:
    u = Unpacker(data)
    status = u.unpack_enum()
    unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, 0, 0, 0
    tbytes, fbytes, _abytes, files = u.unpack_struct(_FSSTAT_SIZES)
    return status, tbytes, fbytes, files


def pack_fsinfo_res(status: int, attr: Optional[Fattr3], rtmax: int, wtmax: int) -> bytes:
    """Sent: each transfer size as its maximum and preferred size, and
    constants.  Decoded: the two maxima."""
    p = Packer()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        # properties: LINK|SYMLINK|HOMOGENEOUS|CANSETTIME
        p.pack_struct(_FSINFO_OK, rtmax, rtmax, 4096, wtmax, wtmax, 4096, rtmax,
                      2**63 - 1, *_time_words(0.001), 0x1B)
    return p.get_bytes()


def unpack_fsinfo_res(data: bytes) -> Tuple[int, int, int]:
    u = Unpacker(data)
    status = u.unpack_enum()
    unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, 0, 0
    rtmax, _rtpref, _rtmult, wtmax = u.unpack_struct(_FSINFO_SIZES)
    return status, rtmax, wtmax
