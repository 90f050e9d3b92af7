"""XDR codec: RFC 4506 semantics, strictness, property-based roundtrips."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.xdr import Packer, Unpacker, XdrError
from tests._reference_codec import RefPacker, RefUnpacker, outcome


def roundtrip(pack, unpack):
    p = Packer()
    pack(p)
    u = Unpacker(p.get_bytes())
    out = unpack(u)
    u.assert_done()
    return out


# -- fixed encodings (wire compatibility) ---------------------------------------


def test_uint_encoding_is_big_endian():
    p = Packer()
    p.pack_uint(0x01020304)
    assert p.get_bytes() == b"\x01\x02\x03\x04"


def test_int_negative_twos_complement():
    p = Packer()
    p.pack_int(-1)
    assert p.get_bytes() == b"\xff\xff\xff\xff"


def test_string_padded_to_four_bytes():
    p = Packer()
    p.pack_string("abcde")
    assert p.get_bytes() == b"\x00\x00\x00\x05abcde\x00\x00\x00"


def test_bool_is_one_word():
    p = Packer()
    p.pack_bool(True)
    p.pack_bool(False)
    assert p.get_bytes() == b"\x00\x00\x00\x01\x00\x00\x00\x00"


def test_hyper_is_eight_bytes():
    p = Packer()
    p.pack_uhyper(2**40)
    assert len(p.get_bytes()) == 8


# -- range and error handling ----------------------------------------------------


@pytest.mark.parametrize("value", [-1, 2**32])
def test_uint_out_of_range(value):
    with pytest.raises(XdrError):
        Packer().pack_uint(value)


@pytest.mark.parametrize("value", [-(2**31) - 1, 2**31])
def test_int_out_of_range(value):
    with pytest.raises(XdrError):
        Packer().pack_int(value)


def test_underrun_detected():
    u = Unpacker(b"\x00\x00")
    with pytest.raises(XdrError, match="underrun"):
        u.unpack_uint()


def test_trailing_bytes_detected():
    u = Unpacker(b"\x00\x00\x00\x01\xff")
    u.unpack_uint()
    with pytest.raises(XdrError, match="trailing"):
        u.assert_done()


def test_nonzero_padding_rejected():
    # string "a" with garbage in the padding
    data = b"\x00\x00\x00\x01a\x01\x00\x00"
    with pytest.raises(XdrError, match="padding"):
        Unpacker(data).unpack_string()


def test_bool_strictness():
    u = Unpacker(b"\x00\x00\x00\x02")
    with pytest.raises(XdrError):
        u.unpack_bool()


def test_opaque_length_limit():
    p = Packer()
    p.pack_opaque(b"x" * 100)
    with pytest.raises(XdrError, match="exceeds"):
        Unpacker(p.get_bytes()).unpack_opaque(max_len=10)


def test_string_invalid_utf8_rejected():
    p = Packer()
    p.pack_opaque(b"\xff\xfe")
    with pytest.raises(XdrError, match="UTF-8"):
        Unpacker(p.get_bytes()).unpack_string()


def test_fopaque_length_mismatch_on_pack():
    with pytest.raises(XdrError):
        Packer().pack_fopaque(4, b"abc")


def test_array_length_limit():
    p = Packer()
    p.pack_array([1, 2, 3], p.pack_uint)
    u = Unpacker(p.get_bytes())
    with pytest.raises(XdrError):
        u.unpack_array(u.unpack_uint, max_len=2)


# -- composites --------------------------------------------------------------------


def test_optional_roundtrip():
    def pack(p):
        p.pack_optional(None, p.pack_uint)
        p.pack_optional(7, p.pack_uint)

    def unpack(u):
        return u.unpack_optional(u.unpack_uint), u.unpack_optional(u.unpack_uint)

    assert roundtrip(pack, unpack) == (None, 7)


def test_list_roundtrip():
    def pack(p):
        p.pack_list(["x", "y", "z"], p.pack_string)

    def unpack(u):
        return u.unpack_list(u.unpack_string)

    assert roundtrip(pack, unpack) == ["x", "y", "z"]


# -- property-based roundtrips -------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_uint_roundtrip(v):
    assert roundtrip(lambda p: p.pack_uint(v), lambda u: u.unpack_uint()) == v


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_int_roundtrip(v):
    assert roundtrip(lambda p: p.pack_int(v), lambda u: u.unpack_int()) == v


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uhyper_roundtrip(v):
    assert roundtrip(lambda p: p.pack_uhyper(v), lambda u: u.unpack_uhyper()) == v


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_hyper_roundtrip(v):
    assert roundtrip(lambda p: p.pack_hyper(v), lambda u: u.unpack_hyper()) == v


@given(st.binary(max_size=300))
def test_opaque_roundtrip(v):
    assert roundtrip(lambda p: p.pack_opaque(v), lambda u: u.unpack_opaque()) == v
    # encoding is always word-aligned
    p = Packer()
    p.pack_opaque(v)
    assert len(p.get_bytes()) % 4 == 0


@given(st.text(max_size=120))
def test_string_roundtrip(v):
    assert roundtrip(lambda p: p.pack_string(v), lambda u: u.unpack_string()) == v


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=40))
def test_uint_array_roundtrip(v):
    assert roundtrip(
        lambda p: p.pack_array(v, p.pack_uint),
        lambda u: u.unpack_array(u.unpack_uint),
    ) == v


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_double_roundtrip(v):
    assert roundtrip(lambda p: p.pack_double(v), lambda u: u.unpack_double()) == v


@given(st.binary(max_size=64), st.integers(min_value=0, max_value=32))
def test_concatenated_fields_roundtrip(blob, n):
    def pack(p):
        p.pack_uint(n)
        p.pack_opaque(blob)
        p.pack_bool(bool(n % 2))

    def unpack(u):
        return u.unpack_uint(), u.unpack_opaque(), u.unpack_bool()

    assert roundtrip(pack, unpack) == (n, blob, bool(n % 2))


# -- differential: the cursor codec against the field-at-a-time reference -----------

UNPACK_OPS = [
    ("unpack_uint",), ("unpack_int",), ("unpack_uhyper",), ("unpack_bool",),
    ("unpack_enum",), ("unpack_opaque",), ("unpack_opaque", 5), ("unpack_string",),
    ("unpack_string", 3), ("unpack_fopaque", 0), ("unpack_fopaque", 1),
    ("unpack_fopaque", 6), ("unpack_fopaque", 8),
]


@given(st.binary(max_size=48), st.lists(st.sampled_from(UNPACK_OPS), max_size=8))
def test_unpacker_matches_reference_on_any_bytes(data, ops):
    """Same value, same cursor, same exception class, whatever the bytes."""
    new, ref = Unpacker(data), RefUnpacker(data)
    for name, *args in ops:
        got = outcome(getattr(new, name), *args)
        assert got == outcome(getattr(ref, name), *args)
        if got[0] == "error":
            return
        assert new.position == ref.position
    assert outcome(new.assert_done) == outcome(ref.assert_done)


INTS = st.one_of(
    st.integers(min_value=-(2**64) - 1, max_value=2**64 + 1),
    st.sampled_from([-1, 0, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64,
                     -(2**31), -(2**31) - 1]),
)
PACK_OPS = st.one_of(
    st.tuples(st.sampled_from(["pack_uint", "pack_int", "pack_uhyper", "pack_enum"]), INTS),
    st.tuples(st.just("pack_bool"), st.booleans()),
    st.tuples(st.just("pack_opaque"), st.binary(max_size=9)),
    st.tuples(st.just("pack_string"), st.text(max_size=5)),
)


@given(st.lists(PACK_OPS, max_size=8))
def test_packer_matches_reference_bytes_and_range_errors(ops):
    new, ref = Packer(), RefPacker()
    for name, value in ops:
        got = outcome(getattr(new, name), value)
        assert got == outcome(getattr(ref, name), value)
        if got[0] == "error":
            assert got[1] is XdrError
            return
    assert new.get_bytes() == ref.get_bytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7])
def test_each_nonzero_pad_byte_rejected(n):
    good = RefPacker()
    good.pack_opaque(b"x" * n)
    good = good.get_bytes()
    assert Unpacker(good).unpack_opaque() == b"x" * n
    for i in range(4 + n, len(good)):
        bad = bytearray(good)
        bad[i] = 1
        with pytest.raises(XdrError, match="padding"):
            Unpacker(bytes(bad)).unpack_opaque()


def test_struct_layouts_read_and_write_in_one_call():
    layout = struct.Struct(">IiQ")
    p = Packer()
    p.pack_struct(layout, 7, -2, 2**40)
    ref = RefPacker()
    ref.pack_uint(7)
    ref.pack_int(-2)
    ref.pack_uhyper(2**40)
    assert p.get_bytes() == ref.get_bytes()
    u = Unpacker(p.get_bytes() + b"\x00\x00\x00\x09")
    assert u.unpack_struct(layout) == (7, -2, 2**40)
    assert u.position == layout.size and u.unpack_uint() == 9


@pytest.mark.parametrize("values", [(-1, 0, 0), (2**32, 0, 0), (0, 2**31, 0), (0, 0, 2**64)])
def test_struct_layout_out_of_range_is_an_xdr_error(values):
    with pytest.raises(XdrError):
        Packer().pack_struct(struct.Struct(">IiQ"), *values)


def test_struct_layout_short_buffer_is_an_underrun():
    u = Unpacker(b"\x00" * 15)
    with pytest.raises(XdrError, match="underrun"):
        u.unpack_struct(struct.Struct(">IiQ"))
    assert u.position == 0


def test_mutable_buffers_are_snapshotted():
    """A bytes input is read in place, so a mutable one must be copied
    once up front: later writes to it may not show through."""
    buf = bytearray(b"\x00\x00\x00\x01\x00\x00\x00\x02")
    u = Unpacker(buf)
    buf[3] = 0xFF
    assert (u.unpack_uint(), u.unpack_uint()) == (1, 2)
    payload = bytearray(b"abcd")
    p = Packer()
    p.pack_opaque(payload)
    p.pack_encoded(payload)
    payload[0] = 0
    assert p.get_bytes() == b"\x00\x00\x00\x04abcdabcd"
