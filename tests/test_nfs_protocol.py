"""NFSv3 wire codecs: roundtrips for every procedure's args/results."""

import pytest
from hypothesis import given, strategies as st

from repro.nfs import protocol as pr
from repro.nfs.protocol import Fattr3, FileHandle, NfsStatus, Sattr3
from repro.xdr import Packer, Unpacker, XdrError
from tests import _reference_codec as ref
from tests._reference_codec import RefPacker, RefUnpacker, outcome

FH = FileHandle(fsid=1, fileid=42, generation=7)
DIR_FH = FileHandle(fsid=1, fileid=1, generation=1)

ATTR = Fattr3(
    ftype=1, mode=0o644, nlink=1, uid=901, gid=901, size=1234, used=2048,
    fsid=1, fileid=42, atime=10.5, mtime=11.25, ctime=11.25,
)


def test_filehandle_roundtrip():
    assert FileHandle.from_bytes(FH.to_bytes()) == FH


def test_filehandle_bad_length_rejected():
    with pytest.raises(XdrError):
        FileHandle.from_bytes(b"short")


def test_fattr3_roundtrip():
    from repro.xdr import Packer, Unpacker

    p = Packer()
    ATTR.pack(p)
    back = Fattr3.unpack(Unpacker(p.get_bytes()))
    assert back == ATTR
    assert back.is_reg and not back.is_dir


def test_sattr3_roundtrip_all_fields():
    from repro.xdr import Packer, Unpacker

    s = Sattr3(mode=0o600, uid=5, gid=6, size=99, atime=1.5, mtime=2.5)
    p = Packer()
    s.pack(p)
    back = Sattr3.unpack(Unpacker(p.get_bytes()))
    assert back == s


def test_sattr3_roundtrip_empty():
    from repro.xdr import Packer, Unpacker

    p = Packer()
    Sattr3().pack(p)
    back = Sattr3.unpack(Unpacker(p.get_bytes()))
    assert back == Sattr3()


def test_getattr_codec():
    assert pr.unpack_getattr_args(pr.pack_getattr_args(FH)) == FH
    status, attr = pr.unpack_getattr_res(pr.pack_getattr_res(NfsStatus.OK, ATTR))
    assert status == NfsStatus.OK and attr == ATTR
    status, attr = pr.unpack_getattr_res(pr.pack_getattr_res(NfsStatus.STALE, None))
    assert status == NfsStatus.STALE and attr is None


def test_lookup_codec():
    args = pr.pack_lookup_args(DIR_FH, "file.txt")
    assert pr.unpack_lookup_args(args) == (DIR_FH, "file.txt")
    res = pr.pack_lookup_res(NfsStatus.OK, FH, ATTR, ATTR)
    status, fh, attr, dir_attr = pr.unpack_lookup_res(res)
    assert (status, fh, attr, dir_attr) == (NfsStatus.OK, FH, ATTR, ATTR)
    res = pr.pack_lookup_res(NfsStatus.NOENT, None, None, ATTR)
    status, fh, attr, dir_attr = pr.unpack_lookup_res(res)
    assert status == NfsStatus.NOENT and fh is None and dir_attr == ATTR


def test_access_codec():
    args = pr.pack_access_args(FH, pr.ACCESS_READ | pr.ACCESS_MODIFY)
    assert pr.unpack_access_args(args) == (FH, pr.ACCESS_READ | pr.ACCESS_MODIFY)
    res = pr.pack_access_res(NfsStatus.OK, ATTR, pr.ACCESS_READ)
    assert pr.unpack_access_res(res) == (NfsStatus.OK, ATTR, pr.ACCESS_READ)


def test_read_codec():
    args = pr.pack_read_args(FH, 65536, 32768)
    assert pr.unpack_read_args(args) == (FH, 65536, 32768)
    res = pr.pack_read_res(NfsStatus.OK, ATTR, b"payload", eof=True)
    status, attr, data, eof = pr.unpack_read_res(res)
    assert (status, data, eof) == (NfsStatus.OK, b"payload", True)


def test_read_res_count_mismatch_detected():
    good = pr.pack_read_res(NfsStatus.OK, ATTR, b"abcd", eof=False)
    # corrupt the count word (first word after attr block + status)
    from repro.xdr import Packer

    p = Packer()
    p.pack_enum(NfsStatus.OK)
    pr.pack_post_op_attr(p, ATTR)
    p.pack_uint(99)  # count that disagrees with the opaque
    p.pack_bool(False)
    p.pack_opaque(b"abcd")
    with pytest.raises(XdrError):
        pr.unpack_read_res(p.get_bytes())
    # and the good one parses
    pr.unpack_read_res(good)


def test_write_codec():
    args = pr.pack_write_args(FH, 0, b"datadata", pr.UNSTABLE)
    fh, offset, stable, payload = pr.unpack_write_args(args)
    assert (fh, offset, stable, payload) == (FH, 0, pr.UNSTABLE, b"datadata")
    res = pr.pack_write_res(NfsStatus.OK, ATTR, 8, pr.FILE_SYNC, b"verfverf")
    status, after, count, committed, verf = pr.unpack_write_res(res)
    assert (status, count, committed, verf) == (NfsStatus.OK, 8, pr.FILE_SYNC, b"verfverf")


def test_create_codec():
    args = pr.pack_create_args(DIR_FH, "new", Sattr3(mode=0o644), pr.GUARDED)
    dir_fh, name, mode, sattr = pr.unpack_create_args(args)
    assert (dir_fh, name, mode, sattr.mode) == (DIR_FH, "new", pr.GUARDED, 0o644)
    res = pr.pack_create_res(NfsStatus.OK, FH, ATTR, ATTR)
    status, fh, attr, dir_after = pr.unpack_create_res(res)
    assert (status, fh) == (NfsStatus.OK, FH)


def test_create_exclusive_carries_verf():
    args = pr.pack_create_args(DIR_FH, "x", Sattr3(), pr.EXCLUSIVE)
    _fh, _name, mode, _sattr = pr.unpack_create_args(args)
    assert mode == pr.EXCLUSIVE


def test_mkdir_symlink_codecs():
    args = pr.pack_mkdir_args(DIR_FH, "d", Sattr3(mode=0o755))
    assert pr.unpack_mkdir_args(args)[1] == "d"
    args = pr.pack_symlink_args(DIR_FH, "ln", "target", Sattr3())
    dir_fh, name, _sattr, target = pr.unpack_symlink_args(args)
    assert (name, target) == ("ln", "target")


def test_remove_rename_link_codecs():
    args = pr.pack_remove_args(DIR_FH, "gone")
    assert pr.unpack_remove_args(args) == (DIR_FH, "gone")
    res = pr.pack_remove_res(NfsStatus.OK, ATTR)
    assert pr.unpack_remove_res(res)[0] == NfsStatus.OK

    args = pr.pack_rename_args(DIR_FH, "a", DIR_FH, "b")
    assert pr.unpack_rename_args(args) == (DIR_FH, "a", DIR_FH, "b")

    args = pr.pack_link_args(FH, DIR_FH, "alias")
    assert pr.unpack_link_args(args) == (FH, DIR_FH, "alias")


@pytest.mark.parametrize("plus", [False, True])
def test_readdir_codec(plus):
    entries = [
        pr.DirEntry(10, "alpha", 1, ATTR if plus else None, FH if plus else None),
        pr.DirEntry(11, "beta", 2, ATTR if plus else None, FH if plus else None),
    ]
    res = pr.pack_readdir_res(NfsStatus.OK, ATTR, entries, eof=True, plus=plus)
    status, dir_attr, out, eof = pr.unpack_readdir_res(res, plus=plus)
    assert status == NfsStatus.OK and eof
    assert [e.name for e in out] == ["alpha", "beta"]
    if plus:
        assert out[0].handle == FH and out[0].attr == ATTR


def test_commit_codec():
    args = pr.pack_commit_args(FH, 4096, 8192)
    assert pr.unpack_commit_args(args) == (FH, 4096, 8192)
    res = pr.pack_commit_res(NfsStatus.OK, ATTR, b"12345678")
    status, _after, verf = pr.unpack_commit_res(res)
    assert (status, verf) == (NfsStatus.OK, b"12345678")


def test_fsinfo_fsstat_codecs():
    res = pr.pack_fsinfo_res(NfsStatus.OK, ATTR, 32768, 32768)
    status, rtmax, wtmax = pr.unpack_fsinfo_res(res)
    assert (status, rtmax, wtmax) == (NfsStatus.OK, 32768, 32768)
    res = pr.pack_fsstat_res(NfsStatus.OK, ATTR, 10**12, 10**11, 10**6)
    status, tbytes, fbytes, files = pr.unpack_fsstat_res(res)
    assert (tbytes, fbytes, files) == (10**12, 10**11, 10**6)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_read_args_roundtrip(offset, count):
    fh, off, cnt = pr.unpack_read_args(pr.pack_read_args(FH, offset, count))
    assert (fh, off, cnt) == (FH, offset, count)


@given(st.binary(max_size=1024), st.integers(min_value=0, max_value=2**40))
def test_property_write_args_roundtrip(payload, offset):
    fh, off, stable, data = pr.unpack_write_args(
        pr.pack_write_args(FH, offset, payload, pr.FILE_SYNC)
    )
    assert (off, data) == (offset, payload)


@given(st.text(min_size=1, max_size=80).filter(lambda s: "\x00" not in s))
def test_property_diropargs_roundtrip(name):
    dir_fh, out = pr.unpack_lookup_args(pr.pack_lookup_args(DIR_FH, name))
    assert out == name


# -- differential: compiled layouts against the field-at-a-time reference ------------

U32 = st.integers(min_value=0, max_value=2**32 - 1)
U64 = st.integers(min_value=0, max_value=2**64 - 1)
I32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
# seconds that need all 32 bits, and fractions that round up into the next second
TIMES = st.one_of(
    st.floats(min_value=0, max_value=2**32 - 2),
    st.builds(lambda sec, nsec: sec + nsec / 1e9,
              st.integers(0, 2**32 - 2), st.integers(0, 999_999_999)),
    st.builds(lambda sec: sec + 0.9999999996, st.integers(0, 2**20)),
)
HANDLES = st.builds(FileHandle, U32, U64, U32)
ATTRS = st.builds(Fattr3, I32, U32, U32, U32, U32, U64, U64, U64, U64, TIMES, TIMES, TIMES)
MAYBE_ATTRS = st.one_of(st.none(), ATTRS)
STATUSES = st.sampled_from([NfsStatus.OK, NfsStatus.NOENT, NfsStatus.STALE, NfsStatus.IO])
PAYLOADS = st.binary(max_size=70)


def _new(obj):
    p = Packer()
    obj.pack(p)
    return p.get_bytes()


def _ref(pack, obj):
    p = RefPacker()
    pack(p, obj)
    return p.get_bytes()


def _check(new_pack, ref_pack, new_unpack, ref_unpack, args, exact=True):
    """Same bytes as the reference encoder; the same value back from both
    decoders (and the input itself, unless float times were rounded to
    nanoseconds on the way); the same outcome on every truncation."""
    data = new_pack(*args)
    assert data == ref_pack(*args)
    assert new_unpack(data) == ref_unpack(data)
    if exact:
        got = new_unpack(data)
        assert (got if isinstance(got, tuple) else (got,)) == tuple(args)
    for k in range(len(data)):
        assert outcome(new_unpack, data[:k]) == outcome(ref_unpack, data[:k])
    return data


@given(ATTRS)
def test_fattr3_matches_reference(attr):
    data = _new(attr)
    assert data == _ref(ref.pack_fattr3, attr) and len(data) == 84
    back = Fattr3.unpack(Unpacker(data))
    assert back == ref.unpack_fattr3(RefUnpacker(data))
    # integers survive exactly; times to the nanosecond they are sent at
    assert (back.ftype, back.mode, back.nlink, back.uid, back.gid, back.size,
            back.used, back.fsid, back.fileid) == (
        attr.ftype, attr.mode, attr.nlink, attr.uid, attr.gid, attr.size,
        attr.used, attr.fsid, attr.fileid)
    for got, sent in ((back.atime, attr.atime), (back.mtime, attr.mtime),
                      (back.ctime, attr.ctime)):
        assert abs(got - sent) < 1e-6
    for k in range(len(data)):
        assert outcome(Fattr3.unpack, Unpacker(data[:k])) == ("error", XdrError)


def test_fattr3_nanoseconds_that_round_up_carry_into_the_seconds():
    # ... and past 2**32 only the low word of the seconds travels
    attr = Fattr3(1, 0, 1, 0, 0, 0, 0, 1, 2, atime=1.9999999996, mtime=7.0,
                  ctime=2**32 + 5.5)
    data = _new(attr)
    assert data == _ref(ref.pack_fattr3, attr)
    assert data[60:68] == (2).to_bytes(4, "big") + bytes(4)
    back = Fattr3.unpack(Unpacker(data))
    assert (back.atime, back.mtime, back.ctime) == (2.0, 7.0, 5.5)


@pytest.mark.parametrize("field,value", [
    ("ftype", 2**31), ("ftype", -(2**31) - 1), ("mode", -1), ("mode", 2**32),
    ("nlink", 2**32), ("uid", -1), ("gid", 2**32), ("size", -1), ("size", 2**64),
    ("used", 2**64), ("fsid", -1), ("fileid", 2**64), ("atime", -0.5),
])
def test_fattr3_out_of_range_fields_refused(field, value):
    attr = Fattr3(**{**ATTR.__dict__, field: value})
    assert outcome(_new, attr) == outcome(_ref, ref.pack_fattr3, attr) \
        == ("error", XdrError)
    assert outcome(pr.pack_getattr_res, NfsStatus.OK, attr) == ("error", XdrError)


@given(HANDLES)
def test_filehandle_matches_reference(fh):
    _check(pr.pack_getattr_args, ref.pack_getattr_args,
           pr.unpack_getattr_args, ref.unpack_getattr_args, (fh,))


@pytest.mark.parametrize("field,value", [
    ("fsid", -1), ("fsid", 2**32), ("fileid", 2**64), ("generation", 2**32),
])
def test_filehandle_out_of_range_fields_refused(field, value):
    fh = FileHandle(**{**FH.__dict__, field: value})
    for pack in (pr.pack_getattr_args, lambda f: pr.pack_read_args(f, 0, 0),
                 lambda f: pr.pack_lookup_res(NfsStatus.OK, f, None, None)):
        assert outcome(pack, fh) == ("error", XdrError)


@pytest.mark.parametrize("length", [0, 4, 12, 15, 17, 20, 64, 65, 2**32 - 1])
def test_filehandle_of_any_other_length_refused(length):
    """nfs_fh3 is a variable-length opaque on the wire; only 16 is ours."""
    body = bytes(length if length <= 65 else 0)
    data = length.to_bytes(4, "big") + body + bytes(-len(body) % 4) + bytes(12)
    for new, old in (
        (pr.unpack_getattr_args, ref.unpack_getattr_args),
        (pr.unpack_read_args, ref.unpack_read_args),
        (pr.unpack_access_args, ref.unpack_access_args),
        (pr.unpack_write_args, ref.unpack_write_args),
        (pr.unpack_lookup_args, ref.unpack_lookup_args),
    ):
        assert outcome(new, data) == outcome(old, data) == ("error", XdrError)


@given(HANDLES, U64, U32)
def test_read_args_match_reference(fh, offset, count):
    data = _check(pr.pack_read_args, ref.pack_read_args,
                  pr.unpack_read_args, ref.unpack_read_args, (fh, offset, count))
    assert pr.pack_commit_args(fh, offset, count) == data
    assert outcome(pr.unpack_read_args, data + bytes(4)) == ("error", XdrError)


@given(HANDLES, U32)
def test_access_args_match_reference(fh, access):
    data = _check(pr.pack_access_args, ref.pack_access_args,
                  pr.unpack_access_args, ref.unpack_access_args, (fh, access))
    assert outcome(pr.unpack_access_args, data + bytes(4)) == ("error", XdrError)


@given(HANDLES, U64, PAYLOADS, I32)
def test_write_args_match_reference(fh, offset, payload, stable):
    data = pr.pack_write_args(fh, offset, payload, stable)
    assert data == ref.pack_write_args(fh, offset, payload, stable)
    assert pr.unpack_write_args(data) == (fh, offset, stable, payload)
    for k in range(len(data)):
        assert outcome(pr.unpack_write_args, data[:k]) \
            == outcome(ref.unpack_write_args, data[:k]) == ("error", XdrError)
    # the count word and the opaque's own length must agree
    bad = data[:28] + (len(payload) + 1).to_bytes(4, "big") + data[32:]
    assert outcome(pr.unpack_write_args, bad) == outcome(ref.unpack_write_args, bad) \
        == ("error", XdrError)
    for i in range(40 + len(payload), len(data)):  # each pad byte
        bad = data[:i] + b"\x01" + data[i + 1 :]
        assert outcome(pr.unpack_write_args, bad) == ("error", XdrError)


@given(HANDLES, st.text(max_size=20))
def test_lookup_args_match_reference(fh, name):
    data = _check(pr.pack_lookup_args, ref.pack_lookup_args,
                  pr.unpack_lookup_args, ref.unpack_lookup_args, (fh, name))
    for i in range(24 + len(name.encode()), len(data)):  # each pad byte
        bad = data[:i] + b"\x01" + data[i + 1 :]
        assert outcome(pr.unpack_lookup_args, bad) == ("error", XdrError)


@given(STATUSES, ATTRS)
def test_getattr_res_matches_reference(status, attr):
    attr = attr if status == NfsStatus.OK else None
    _check(pr.pack_getattr_res, ref.pack_getattr_res,
           pr.unpack_getattr_res, ref.unpack_getattr_res, (status, attr), exact=False)


@given(STATUSES, HANDLES, MAYBE_ATTRS, MAYBE_ATTRS)
def test_lookup_res_matches_reference(status, fh, attr, dir_attr):
    _check(pr.pack_lookup_res, ref.pack_lookup_res,
           pr.unpack_lookup_res, ref.unpack_lookup_res,
           (status, fh, attr, dir_attr), exact=False)


@given(STATUSES, MAYBE_ATTRS, U32)
def test_access_res_matches_reference(status, attr, access):
    _check(pr.pack_access_res, ref.pack_access_res,
           pr.unpack_access_res, ref.unpack_access_res,
           (status, attr, access), exact=False)


@given(STATUSES, MAYBE_ATTRS, PAYLOADS, st.booleans())
def test_read_res_matches_reference(status, attr, payload, eof):
    data = _check(pr.pack_read_res, ref.pack_read_res,
                  pr.unpack_read_res, ref.unpack_read_res,
                  (status, attr, payload, eof), exact=False)
    if status == NfsStatus.OK:
        assert pr.unpack_read_res(data)[2:] == (payload, eof)
        at = len(data) - len(payload) - (-len(payload) % 4) - 12  # count, eof, length
        for off, word in ((at, len(payload) + 1), (at + 4, 2), (at + 8, len(payload) + 1)):
            bad = data[:off] + word.to_bytes(4, "big") + data[off + 4 :]
            assert outcome(pr.unpack_read_res, bad) == outcome(ref.unpack_read_res, bad) \
                == ("error", XdrError)


@given(STATUSES, MAYBE_ATTRS, U32, I32, st.binary(min_size=8, max_size=8))
def test_write_res_matches_reference(status, after, count, committed, verf):
    _check(pr.pack_write_res, ref.pack_write_res,
           pr.unpack_write_res, ref.unpack_write_res,
           (status, after, count, committed, verf), exact=False)


def test_write_res_verifier_must_be_eight_bytes():
    for verf in (b"", b"short", b"nine byte"):
        assert outcome(pr.pack_write_res, NfsStatus.OK, ATTR, 1, pr.FILE_SYNC, verf) \
            == outcome(ref.pack_write_res, NfsStatus.OK, ATTR, 1, pr.FILE_SYNC, verf) \
            == ("error", XdrError)


@given(st.binary(max_size=200))
def test_decoders_match_reference_on_garbage(data):
    for name in ("getattr_args", "getattr_res", "lookup_args", "lookup_res",
                 "access_args", "access_res", "read_args", "read_res",
                 "write_args", "write_res"):
        new, old = getattr(pr, "unpack_" + name), getattr(ref, "unpack_" + name)
        assert outcome(new, data) == outcome(old, data), name


@given(ATTRS, st.binary(max_size=12))
def test_pre_op_attrs_are_skipped_like_the_reference(attr, tail):
    """wcc_data with the pre-op attributes a real server would send."""
    p = RefPacker()
    p.pack_enum(NfsStatus.OK)
    p.pack_bool(True)
    p.pack_uhyper(77)
    for _ in range(4):
        p.pack_uint(5)
    ref.pack_post_op_attr(p, attr)
    data = p.get_bytes() + tail
    assert outcome(pr.unpack_remove_res, data) == ("ok", (NfsStatus.OK, ref.unpack_fattr3(
        RefUnpacker(data[36:]))))
    for k in range(36):
        assert outcome(pr.unpack_remove_res, data[:k]) == ("error", XdrError)
