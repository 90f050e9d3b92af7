"""The field-at-a-time codec as it stood before the compiled layouts.

These are the method bodies of ``repro.xdr.codec``, ``repro.rpc.auth``,
``repro.rpc.messages`` and ``repro.nfs.protocol`` from before the codec
was compiled — the RPC headers and the READ/WRITE/GETATTR/LOOKUP/ACCESS
bodies from before the fused layouts, the other NFS bodies from before
the codec table — kept verbatim (one field per call, a fresh slice per
read) as the reference the differential tests in ``test_xdr.py``,
``test_rpc_messages.py`` and ``test_nfs_protocol.py`` compare the
compiled codecs against: same bytes out, same values in, same exception
class on every malformed input.  The program never imports this module.
"""

import struct

from repro.nfs.protocol import (
    GUARDED, UNCHECKED, DirEntry, Fattr3, FileHandle, NfsStatus, Proc, Sattr3,
)
from repro.rpc.auth import AUTH_SYS, MAX_AUTH_BODY, AuthSys, OpaqueAuth
from repro.rpc.errors import RpcError
from repro.rpc.messages import (
    CALL,
    MSG_ACCEPTED,
    MSG_DENIED,
    PROG_MISMATCH,
    REPLY,
    RPC_MISMATCH,
    RPC_VERSION,
    SUCCESS,
    CallMessage,
    ReplyMessage,
)
from repro.xdr import XdrError

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")


def _pad(n):
    return (4 - (n & 3)) & 3


class RefPacker:
    def __init__(self):
        self._parts = []

    def get_bytes(self):
        return b"".join(self._parts)

    def pack_uint(self, v):
        if not 0 <= v <= 0xFFFFFFFF:
            raise XdrError(f"uint32 out of range: {v}")
        self._parts.append(_U32.pack(v))

    def pack_int(self, v):
        if not -0x80000000 <= v <= 0x7FFFFFFF:
            raise XdrError(f"int32 out of range: {v}")
        self._parts.append(_I32.pack(v))

    def pack_uhyper(self, v):
        if not 0 <= v <= 0xFFFFFFFFFFFFFFFF:
            raise XdrError(f"uint64 out of range: {v}")
        self._parts.append(_U64.pack(v))

    def pack_bool(self, v):
        self.pack_uint(1 if v else 0)

    pack_enum = pack_int

    def pack_fopaque(self, n, data):
        if len(data) != n:
            raise XdrError(f"fixed opaque wants {n} bytes, got {len(data)}")
        self._parts.append(bytes(data) + b"\x00" * _pad(n))

    def pack_opaque(self, data):
        self.pack_uint(len(data))
        self._parts.append(bytes(data) + b"\x00" * _pad(len(data)))

    def pack_string(self, s):
        self.pack_opaque(s.encode("utf-8"))

    def pack_array(self, items, pack_item):
        self.pack_uint(len(items))
        for item in items:
            pack_item(item)

    def pack_optional(self, value, pack_item):
        if value is None:
            self.pack_bool(False)
        else:
            self.pack_bool(True)
            pack_item(value)

    def pack_list(self, items, pack_item):
        for item in items:
            self.pack_bool(True)
            pack_item(item)
        self.pack_bool(False)


class RefUnpacker:
    def __init__(self, data):
        self._data = memoryview(bytes(data))
        self._pos = 0

    @property
    def position(self):
        return self._pos

    def assert_done(self):
        if self._pos < len(self._data):
            raise XdrError(f"{len(self._data) - self._pos} trailing bytes after decode")

    def _take(self, n):
        if self._pos + n > len(self._data):
            raise XdrError(f"buffer underrun: need {n} bytes at offset {self._pos}")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def unpack_uint(self):
        return _U32.unpack(self._take(4))[0]

    def unpack_int(self):
        return _I32.unpack(self._take(4))[0]

    unpack_enum = unpack_int

    def unpack_uhyper(self):
        return _U64.unpack(self._take(8))[0]

    def unpack_bool(self):
        v = self.unpack_uint()
        if v not in (0, 1):
            raise XdrError(f"bool must be 0 or 1, got {v}")
        return bool(v)

    def unpack_fopaque(self, n):
        data = bytes(self._take(n))
        pad = bytes(self._take(_pad(n)))
        if pad.strip(b"\x00"):
            raise XdrError("nonzero padding bytes")
        return data

    def unpack_opaque(self, max_len=None):
        n = self.unpack_uint()
        if max_len is not None and n > max_len:
            raise XdrError(f"opaque length {n} exceeds limit {max_len}")
        return self.unpack_fopaque(n)

    def unpack_string(self, max_len=None):
        raw = self.unpack_opaque(max_len)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XdrError(f"invalid UTF-8 in string: {exc}") from None

    def unpack_array(self, unpack_item, max_len=None):
        n = self.unpack_uint()
        if max_len is not None and n > max_len:
            raise XdrError(f"array length {n} exceeds limit {max_len}")
        return [unpack_item() for _ in range(n)]

    def unpack_optional(self, unpack_item):
        return unpack_item() if self.unpack_bool() else None

    def unpack_list(self, unpack_item, max_len=1_000_000):
        out = []
        while self.unpack_bool():
            out.append(unpack_item())
            if len(out) > max_len:
                raise XdrError("XDR list exceeds sanity limit")
        return out


def outcome(fn, *args):
    """``("ok", value)`` or ``("error", exception class)`` — what a
    differential test compares.  Only the codec's two typed errors are
    caught: anything else (a leaked ``struct.error``) fails the test."""
    try:
        return ("ok", fn(*args))
    except (XdrError, RpcError) as exc:
        return ("error", type(exc))


# -- rpc: opaque_auth, AUTH_SYS, CALL, REPLY ------------------------------------


def pack_auth(p, auth):
    if len(auth.body) > MAX_AUTH_BODY:
        raise XdrError(f"auth body {len(auth.body)} exceeds {MAX_AUTH_BODY}")
    p.pack_enum(auth.flavor)
    p.pack_opaque(auth.body)


def unpack_auth(u):
    flavor = u.unpack_enum()
    body = u.unpack_opaque(max_len=MAX_AUTH_BODY)
    return OpaqueAuth(flavor, body)


def auth_sys_to_opaque(a):
    p = RefPacker()
    p.pack_uint(a.stamp)
    p.pack_string(a.machinename)
    p.pack_uint(a.uid)
    p.pack_uint(a.gid)
    p.pack_array(a.gids, p.pack_uint)
    return OpaqueAuth(AUTH_SYS, p.get_bytes())


def auth_sys_from_opaque(auth):
    if auth.flavor != AUTH_SYS:
        raise XdrError(f"not an AUTH_SYS credential (flavor={auth.flavor})")
    u = RefUnpacker(auth.body)
    stamp = u.unpack_uint()
    machinename = u.unpack_string(max_len=255)
    uid = u.unpack_uint()
    gid = u.unpack_uint()
    gids = u.unpack_array(u.unpack_uint, max_len=16)
    u.assert_done()
    return AuthSys(stamp, machinename, uid, gid, gids)


def encode_call(msg):
    p = RefPacker()
    p.pack_uint(msg.xid)
    p.pack_enum(CALL)
    p.pack_uint(RPC_VERSION)
    p.pack_uint(msg.prog)
    p.pack_uint(msg.vers)
    p.pack_uint(msg.proc)
    pack_auth(p, msg.cred)
    pack_auth(p, msg.verf)
    return p.get_bytes() + msg.args


def decode_call(record):
    u = RefUnpacker(record)
    xid = u.unpack_uint()
    mtype = u.unpack_enum()
    if mtype != CALL:
        raise RpcError(f"expected CALL, got msg_type={mtype}")
    rpcvers = u.unpack_uint()
    if rpcvers != RPC_VERSION:
        raise RpcError(f"unsupported RPC version {rpcvers}")
    prog = u.unpack_uint()
    vers = u.unpack_uint()
    proc = u.unpack_uint()
    cred = unpack_auth(u)
    verf = unpack_auth(u)
    return CallMessage(xid, prog, vers, proc, cred, verf, bytes(record[u.position :]))


def encode_reply(msg):
    p = RefPacker()
    p.pack_uint(msg.xid)
    p.pack_enum(REPLY)
    p.pack_enum(msg.reply_stat)
    if msg.reply_stat == MSG_ACCEPTED:
        pack_auth(p, msg.verf)
        p.pack_enum(msg.accept_stat)
        if msg.accept_stat == PROG_MISMATCH:
            p.pack_uint(msg.mismatch_low)
            p.pack_uint(msg.mismatch_high)
        return p.get_bytes() + (msg.results if msg.accept_stat == SUCCESS else b"")
    p.pack_enum(msg.reject_stat)
    if msg.reject_stat == RPC_MISMATCH:
        p.pack_uint(msg.mismatch_low)
        p.pack_uint(msg.mismatch_high)
    else:
        p.pack_enum(msg.auth_stat)
    return p.get_bytes()


def decode_reply(record):
    u = RefUnpacker(record)
    xid = u.unpack_uint()
    mtype = u.unpack_enum()
    if mtype != REPLY:
        raise RpcError(f"expected REPLY, got msg_type={mtype}")
    reply_stat = u.unpack_enum()
    msg = ReplyMessage(xid, reply_stat)
    if reply_stat == MSG_ACCEPTED:
        msg.verf = unpack_auth(u)
        msg.accept_stat = u.unpack_enum()
        if msg.accept_stat == PROG_MISMATCH:
            msg.mismatch_low = u.unpack_uint()
            msg.mismatch_high = u.unpack_uint()
        elif msg.accept_stat == SUCCESS:
            msg.results = bytes(record[u.position :])
    elif reply_stat == MSG_DENIED:
        msg.reject_stat = u.unpack_enum()
        if msg.reject_stat == RPC_MISMATCH:
            msg.mismatch_low = u.unpack_uint()
            msg.mismatch_high = u.unpack_uint()
        else:
            msg.auth_stat = u.unpack_enum()
    else:
        raise RpcError(f"bad reply_stat {reply_stat}")
    return msg


# -- nfs: nfs_fh3, fattr3, sattr3, and every procedure's codec ----------------


def pack_fh(p, fh):
    p.pack_opaque(fh.to_bytes())


def unpack_fh(u):
    return FileHandle.from_bytes(u.unpack_opaque(max_len=64))


def _pack_time(p, t):
    sec = int(t)
    nsec = int(round((t - sec) * 1e9))
    if nsec >= 1_000_000_000:
        sec += 1
        nsec -= 1_000_000_000
    p.pack_uint(sec & 0xFFFFFFFF)
    p.pack_uint(nsec)


def _unpack_time(u):
    sec = u.unpack_uint()
    nsec = u.unpack_uint()
    return sec + nsec / 1e9


def pack_fattr3(p, a):
    p.pack_enum(a.ftype)
    p.pack_uint(a.mode)
    p.pack_uint(a.nlink)
    p.pack_uint(a.uid)
    p.pack_uint(a.gid)
    p.pack_uhyper(a.size)
    p.pack_uhyper(a.used)
    p.pack_uint(0)
    p.pack_uint(0)
    p.pack_uhyper(a.fsid)
    p.pack_uhyper(a.fileid)
    _pack_time(p, a.atime)
    _pack_time(p, a.mtime)
    _pack_time(p, a.ctime)


def unpack_fattr3(u):
    ftype = u.unpack_enum()
    mode = u.unpack_uint()
    nlink = u.unpack_uint()
    uid = u.unpack_uint()
    gid = u.unpack_uint()
    size = u.unpack_uhyper()
    used = u.unpack_uhyper()
    u.unpack_uint()
    u.unpack_uint()
    fsid = u.unpack_uhyper()
    fileid = u.unpack_uhyper()
    atime = _unpack_time(u)
    mtime = _unpack_time(u)
    ctime = _unpack_time(u)
    return Fattr3(ftype, mode, nlink, uid, gid, size, used, fsid, fileid, atime, mtime, ctime)


def pack_post_op_attr(p, attr):
    p.pack_optional(attr, lambda a: pack_fattr3(p, a))


def unpack_post_op_attr(u):
    return u.unpack_optional(lambda: unpack_fattr3(u))


def pack_wcc_data(p, after):
    p.pack_bool(False)
    pack_post_op_attr(p, after)


def unpack_wcc_data(u):
    if u.unpack_bool():
        u.unpack_uhyper()
        _unpack_time(u)
        _unpack_time(u)
    return unpack_post_op_attr(u)


def pack_sattr3(p, s):
    p.pack_optional(s.mode, p.pack_uint)
    p.pack_optional(s.uid, p.pack_uint)
    p.pack_optional(s.gid, p.pack_uint)
    p.pack_optional(s.size, p.pack_uhyper)
    # set_atime/set_mtime: 0 = don't change, 2 = set to client time
    if s.atime is None:
        p.pack_enum(0)
    else:
        p.pack_enum(2)
        _pack_time(p, s.atime)
    if s.mtime is None:
        p.pack_enum(0)
    else:
        p.pack_enum(2)
        _pack_time(p, s.mtime)


def unpack_sattr3(u):
    mode = u.unpack_optional(u.unpack_uint)
    uid = u.unpack_optional(u.unpack_uint)
    gid = u.unpack_optional(u.unpack_uint)
    size = u.unpack_optional(u.unpack_uhyper)
    atime = _unpack_time(u) if u.unpack_enum() == 2 else None
    mtime = _unpack_time(u) if u.unpack_enum() == 2 else None
    return Sattr3(mode, uid, gid, size, atime, mtime)


def pack_diropargs(p, dir_fh, name):
    pack_fh(p, dir_fh)
    p.pack_string(name)


def unpack_diropargs(u):
    return unpack_fh(u), u.unpack_string(max_len=255)


def pack_getattr_args(fh):
    p = RefPacker()
    pack_fh(p, fh)
    return p.get_bytes()


def unpack_getattr_args(data):
    u = RefUnpacker(data)
    fh = unpack_fh(u)
    u.assert_done()
    return fh


def pack_getattr_res(status, attr):
    p = RefPacker()
    p.pack_enum(status)
    if status == NfsStatus.OK:
        pack_fattr3(p, attr)
    return p.get_bytes()


def unpack_getattr_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    return status, (unpack_fattr3(u) if status == NfsStatus.OK else None)


def pack_lookup_args(dir_fh, name):
    p = RefPacker()
    pack_fh(p, dir_fh)
    p.pack_string(name)
    return p.get_bytes()


def unpack_lookup_args(data):
    u = RefUnpacker(data)
    out = unpack_fh(u), u.unpack_string(max_len=255)
    u.assert_done()
    return out


def pack_lookup_res(status, fh, attr, dir_attr):
    p = RefPacker()
    p.pack_enum(status)
    if status == NfsStatus.OK:
        pack_fh(p, fh)
        pack_post_op_attr(p, attr)
        pack_post_op_attr(p, dir_attr)
    else:
        pack_post_op_attr(p, dir_attr)
    return p.get_bytes()


def unpack_lookup_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    if status == NfsStatus.OK:
        fh = unpack_fh(u)
        attr = unpack_post_op_attr(u)
        return status, fh, attr, unpack_post_op_attr(u)
    return status, None, None, unpack_post_op_attr(u)


def pack_access_args(fh, access):
    p = RefPacker()
    pack_fh(p, fh)
    p.pack_uint(access)
    return p.get_bytes()


def unpack_access_args(data):
    u = RefUnpacker(data)
    fh = unpack_fh(u)
    access = u.unpack_uint()
    u.assert_done()
    return fh, access


def pack_access_res(status, attr, access):
    p = RefPacker()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        p.pack_uint(access)
    return p.get_bytes()


def unpack_access_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    attr = unpack_post_op_attr(u)
    return status, attr, (u.unpack_uint() if status == NfsStatus.OK else 0)


def pack_read_args(fh, offset, count):
    p = RefPacker()
    pack_fh(p, fh)
    p.pack_uhyper(offset)
    p.pack_uint(count)
    return p.get_bytes()


def unpack_read_args(data):
    u = RefUnpacker(data)
    fh = unpack_fh(u)
    offset = u.unpack_uhyper()
    count = u.unpack_uint()
    u.assert_done()
    return fh, offset, count


def pack_read_res(status, attr, data=b"", eof=False):
    p = RefPacker()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        p.pack_uint(len(data))
        p.pack_bool(eof)
        p.pack_opaque(data)
    return p.get_bytes()


def unpack_read_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    attr = unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, attr, b"", False
    count = u.unpack_uint()
    eof = u.unpack_bool()
    payload = u.unpack_opaque()
    if len(payload) != count:
        raise XdrError("READ reply count mismatch")
    return status, attr, payload, eof


def pack_write_args(fh, offset, data, stable):
    p = RefPacker()
    pack_fh(p, fh)
    p.pack_uhyper(offset)
    p.pack_uint(len(data))
    p.pack_enum(stable)
    p.pack_opaque(data)
    return p.get_bytes()


def unpack_write_args(data):
    u = RefUnpacker(data)
    fh = unpack_fh(u)
    offset = u.unpack_uhyper()
    count = u.unpack_uint()
    stable = u.unpack_enum()
    payload = u.unpack_opaque()
    if len(payload) != count:
        raise XdrError("WRITE args count mismatch")
    u.assert_done()
    return fh, offset, stable, payload


def pack_write_res(status, after, count, committed, verf):
    p = RefPacker()
    p.pack_enum(status)
    pack_wcc_data(p, after)
    if status == NfsStatus.OK:
        p.pack_uint(count)
        p.pack_enum(committed)
        p.pack_fopaque(8, verf)
    return p.get_bytes()


def unpack_write_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    after = unpack_wcc_data(u)
    if status != NfsStatus.OK:
        return status, after, 0, 0, b""
    count = u.unpack_uint()
    committed = u.unpack_enum()
    verf = u.unpack_fopaque(8)
    return status, after, count, committed, verf


def pack_setattr_args(fh, sattr):
    p = RefPacker()
    pack_fh(p, fh)
    pack_sattr3(p, sattr)
    p.pack_bool(False)  # guard: no ctime check
    return p.get_bytes()


def unpack_setattr_args(data):
    u = RefUnpacker(data)
    fh = unpack_fh(u)
    sattr = unpack_sattr3(u)
    if u.unpack_bool():
        _unpack_time(u)
    u.assert_done()
    return fh, sattr


def pack_setattr_res(status, after):
    p = RefPacker()
    p.pack_enum(status)
    pack_wcc_data(p, after)
    return p.get_bytes()


def unpack_setattr_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    return status, unpack_wcc_data(u)


def pack_readlink_args(fh):
    return pack_getattr_args(fh)


def unpack_readlink_args(data):
    return unpack_getattr_args(data)


def pack_readlink_res(status, attr, target):
    p = RefPacker()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        p.pack_string(target)
    return p.get_bytes()


def unpack_readlink_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    attr = unpack_post_op_attr(u)
    target = u.unpack_string() if status == NfsStatus.OK else ""
    return status, attr, target


def pack_create_args(dir_fh, name, sattr, mode=UNCHECKED):
    p = RefPacker()
    pack_diropargs(p, dir_fh, name)
    p.pack_enum(mode)
    if mode in (UNCHECKED, GUARDED):
        pack_sattr3(p, sattr)
    else:
        p.pack_fopaque(8, b"\x00" * 8)  # exclusive createverf
    return p.get_bytes()


def unpack_create_args(data):
    u = RefUnpacker(data)
    dir_fh, name = unpack_diropargs(u)
    mode = u.unpack_enum()
    if mode in (UNCHECKED, GUARDED):
        sattr = unpack_sattr3(u)
    else:
        u.unpack_fopaque(8)
        sattr = Sattr3()
    u.assert_done()
    return dir_fh, name, mode, sattr


def pack_mkdir_args(dir_fh, name, sattr):
    p = RefPacker()
    pack_diropargs(p, dir_fh, name)
    pack_sattr3(p, sattr)
    return p.get_bytes()


def unpack_mkdir_args(data):
    u = RefUnpacker(data)
    dir_fh, name = unpack_diropargs(u)
    sattr = unpack_sattr3(u)
    u.assert_done()
    return dir_fh, name, sattr


def pack_create_res(status, fh, attr, dir_after):
    """Shared by CREATE, MKDIR, SYMLINK."""
    p = RefPacker()
    p.pack_enum(status)
    if status == NfsStatus.OK:
        p.pack_optional(fh, lambda f: pack_fh(p, f))
        pack_post_op_attr(p, attr)
    pack_wcc_data(p, dir_after)
    return p.get_bytes()


def unpack_create_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    if status == NfsStatus.OK:
        fh = u.unpack_optional(lambda: unpack_fh(u))
        attr = unpack_post_op_attr(u)
        dir_after = unpack_wcc_data(u)
        return status, fh, attr, dir_after
    return status, None, None, unpack_wcc_data(u)


def pack_symlink_args(dir_fh, name, target, sattr):
    p = RefPacker()
    pack_diropargs(p, dir_fh, name)
    pack_sattr3(p, sattr)
    p.pack_string(target)
    return p.get_bytes()


def unpack_symlink_args(data):
    u = RefUnpacker(data)
    dir_fh, name = unpack_diropargs(u)
    sattr = unpack_sattr3(u)
    target = u.unpack_string()
    u.assert_done()
    return dir_fh, name, sattr, target


def pack_remove_args(dir_fh, name):
    return pack_lookup_args(dir_fh, name)


def unpack_remove_args(data):
    return unpack_lookup_args(data)


def pack_remove_res(status, dir_after):
    p = RefPacker()
    p.pack_enum(status)
    pack_wcc_data(p, dir_after)
    return p.get_bytes()


def unpack_remove_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    return status, unpack_wcc_data(u)


def pack_rename_args(from_dir, from_name, to_dir, to_name):
    p = RefPacker()
    pack_diropargs(p, from_dir, from_name)
    pack_diropargs(p, to_dir, to_name)
    return p.get_bytes()


def unpack_rename_args(data):
    u = RefUnpacker(data)
    from_dir, from_name = unpack_diropargs(u)
    to_dir, to_name = unpack_diropargs(u)
    u.assert_done()
    return from_dir, from_name, to_dir, to_name


def pack_rename_res(status, from_after, to_after):
    p = RefPacker()
    p.pack_enum(status)
    pack_wcc_data(p, from_after)
    pack_wcc_data(p, to_after)
    return p.get_bytes()


def unpack_rename_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    return status, unpack_wcc_data(u), unpack_wcc_data(u)


def pack_link_args(fh, dir_fh, name):
    p = RefPacker()
    pack_fh(p, fh)
    pack_diropargs(p, dir_fh, name)
    return p.get_bytes()


def unpack_link_args(data):
    u = RefUnpacker(data)
    fh = unpack_fh(u)
    dir_fh, name = unpack_diropargs(u)
    u.assert_done()
    return fh, dir_fh, name


def pack_link_res(status, attr, dir_after):
    p = RefPacker()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    pack_wcc_data(p, dir_after)
    return p.get_bytes()


def unpack_link_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    return status, unpack_post_op_attr(u), unpack_wcc_data(u)


def pack_readdir_args(dir_fh, cookie=0, cookieverf=b"\x00" * 8, count=8192, plus=False,
                      maxcount=32768):
    p = RefPacker()
    pack_fh(p, dir_fh)
    p.pack_uhyper(cookie)
    p.pack_fopaque(8, cookieverf)
    if plus:
        p.pack_uint(count)
        p.pack_uint(maxcount)
    else:
        p.pack_uint(count)
    return p.get_bytes()


def unpack_readdir_args(data, plus=False):
    u = RefUnpacker(data)
    fh = unpack_fh(u)
    cookie = u.unpack_uhyper()
    verf = u.unpack_fopaque(8)
    count = u.unpack_uint()
    if plus:
        u.unpack_uint()
    u.assert_done()
    return fh, cookie, verf, count


def pack_readdir_res(status, dir_attr, entries, eof, plus=False, cookieverf=b"\x00" * 8):
    p = RefPacker()
    p.pack_enum(status)
    pack_post_op_attr(p, dir_attr)
    if status != NfsStatus.OK:
        return p.get_bytes()
    p.pack_fopaque(8, cookieverf)

    def pack_entry(e):
        p.pack_uhyper(e.fileid)
        p.pack_string(e.name)
        p.pack_uhyper(e.cookie)
        if plus:
            pack_post_op_attr(p, e.attr)
            p.pack_optional(e.handle, lambda f: pack_fh(p, f))

    p.pack_list(entries, pack_entry)
    p.pack_bool(eof)
    return p.get_bytes()


def unpack_readdir_res(data, plus=False):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    dir_attr = unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, dir_attr, [], True
    u.unpack_fopaque(8)

    def unpack_entry():
        fileid = u.unpack_uhyper()
        name = u.unpack_string(max_len=255)
        cookie = u.unpack_uhyper()
        attr = None
        handle = None
        if plus:
            attr = unpack_post_op_attr(u)
            handle = u.unpack_optional(lambda: unpack_fh(u))
        return DirEntry(fileid, name, cookie, attr, handle)

    entries = u.unpack_list(unpack_entry, max_len=100_000)
    eof = u.unpack_bool()
    return status, dir_attr, entries, eof


def pack_fsstat_res(status, attr, tbytes, fbytes, files):
    p = RefPacker()
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


def unpack_fsstat_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, 0, 0, 0
    tbytes = u.unpack_uhyper()
    fbytes = u.unpack_uhyper()
    u.unpack_uhyper()
    files = u.unpack_uhyper()
    return status, tbytes, fbytes, files


def pack_fsinfo_res(status, attr, rtmax, wtmax):
    p = RefPacker()
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


def unpack_fsinfo_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, 0, 0
    rtmax = u.unpack_uint()
    u.unpack_uint()
    u.unpack_uint()
    wtmax = u.unpack_uint()
    return status, rtmax, wtmax


def pack_pathconf_res(status, attr, linkmax, name_max, no_trunc, chown_restricted,
                      case_insensitive, case_preserving):
    """The OK arm as nfsd packed it field by field; a failure carries the
    status and the attributes, as every other result does."""
    p = RefPacker()
    p.pack_enum(status)
    pack_post_op_attr(p, attr)
    if status == NfsStatus.OK:
        p.pack_uint(linkmax)
        p.pack_uint(name_max)
        p.pack_bool(no_trunc)
        p.pack_bool(chown_restricted)
        p.pack_bool(case_insensitive)
        p.pack_bool(case_preserving)
    return p.get_bytes()


def unpack_pathconf_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    attr = unpack_post_op_attr(u)
    if status != NfsStatus.OK:
        return status, attr, 0, 0, False, False, False, False
    linkmax = u.unpack_uint()
    name_max = u.unpack_uint()
    bools = [u.unpack_bool() for _ in range(4)]
    return (status, attr, linkmax, name_max, *bools)


def pack_commit_args(fh, offset=0, count=0):
    return pack_read_args(fh, offset, count)  # the same layout


def unpack_commit_args(data):
    return unpack_read_args(data)


def pack_commit_res(status, after, verf=b"\x00" * 8):
    p = RefPacker()
    p.pack_enum(status)
    pack_wcc_data(p, after)
    if status == NfsStatus.OK:
        p.pack_fopaque(8, verf)
    return p.get_bytes()


def unpack_commit_res(data):
    u = RefUnpacker(data)
    status = u.unpack_enum()
    after = unpack_wcc_data(u)
    verf = u.unpack_fopaque(8) if status == NfsStatus.OK else b""
    return status, after, verf


def error_result(proc, status):
    """nfsd's per-family error encodings.  FSSTAT, FSINFO and PATHCONF
    carry their attributes too: a bare status is not a result their
    decoders read."""
    if proc in (Proc.GETATTR,):
        return pack_getattr_res(status, None)
    if proc in (Proc.SETATTR,):
        return pack_setattr_res(status, None)
    if proc in (Proc.LOOKUP,):
        return pack_lookup_res(status, None, None, None)
    if proc in (Proc.ACCESS,):
        return pack_access_res(status, None, 0)
    if proc in (Proc.READLINK,):
        return pack_readlink_res(status, None, "")
    if proc in (Proc.READ,):
        return pack_read_res(status, None)
    if proc in (Proc.WRITE,):
        return pack_write_res(status, None, 0, 0, b"")
    if proc in (Proc.CREATE, Proc.MKDIR, Proc.SYMLINK, Proc.MKNOD):
        return pack_create_res(status, None, None, None)
    if proc in (Proc.REMOVE, Proc.RMDIR):
        return pack_remove_res(status, None)
    if proc in (Proc.RENAME,):
        return pack_rename_res(status, None, None)
    if proc in (Proc.LINK,):
        return pack_link_res(status, None, None)
    if proc in (Proc.READDIR, Proc.READDIRPLUS):
        return pack_readdir_res(status, None, [], True)
    if proc in (Proc.COMMIT,):
        return pack_commit_res(status, None)
    if proc in (Proc.FSSTAT,):
        return pack_fsstat_res(status, None, 0, 0, 0)
    if proc in (Proc.FSINFO,):
        return pack_fsinfo_res(status, None, 0, 0)
    return pack_pathconf_res(status, None, 0, 0, False, False, False, False)
