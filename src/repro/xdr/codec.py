"""XDR packer/unpacker per RFC 4506.

All quantities are big-endian and padded to 4-byte boundaries.  The
implementation is strict on decode: short buffers, nonzero padding, and
out-of-range discriminants raise :class:`XdrError` rather than being
silently tolerated — the server-side proxy depends on malformed input
being rejected cleanly.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class XdrError(Exception):
    """Malformed XDR data or out-of-range value."""


_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


_ZEROS = b"\x00\x00\x00"


def _pad(n: int) -> int:
    return (4 - (n & 3)) & 3


def check_bool(v: int) -> bool:
    """The XDR bool rule, for a word read as part of a larger layout."""
    if v not in (0, 1):
        raise XdrError(f"bool must be 0 or 1, got {v}")
    return bool(v)


class Packer:
    """Accumulates XDR-encoded bytes."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def get_bytes(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(p) for p in self._parts)

    # -- integers --------------------------------------------------------

    def pack_uint(self, v: int) -> None:
        if not 0 <= v <= 0xFFFFFFFF:
            raise XdrError(f"uint32 out of range: {v}")
        self._parts.append(_U32.pack(v))

    def pack_int(self, v: int) -> None:
        if not -0x80000000 <= v <= 0x7FFFFFFF:
            raise XdrError(f"int32 out of range: {v}")
        self._parts.append(_I32.pack(v))

    def pack_uhyper(self, v: int) -> None:
        if not 0 <= v <= 0xFFFFFFFFFFFFFFFF:
            raise XdrError(f"uint64 out of range: {v}")
        self._parts.append(_U64.pack(v))

    def pack_hyper(self, v: int) -> None:
        if not -(2**63) <= v <= 2**63 - 1:
            raise XdrError(f"int64 out of range: {v}")
        self._parts.append(_I64.pack(v))

    def pack_bool(self, v: bool) -> None:
        self.pack_uint(1 if v else 0)

    def pack_enum(self, v: int) -> None:
        self.pack_int(v)

    def pack_double(self, v: float) -> None:
        self._parts.append(_F64.pack(v))

    def pack_struct(self, layout: struct.Struct, *values) -> None:
        """A precompiled fixed layout (big-endian, word-aligned) in one
        call; ``struct``'s own range checks refuse what the per-field
        packers would."""
        try:
            self._parts.append(layout.pack(*values))
        except struct.error as exc:
            raise XdrError(f"value out of range: {exc}") from None

    # -- opaques and strings ----------------------------------------------

    def pack_fopaque(self, n: int, data: bytes) -> None:
        """Fixed-length opaque: exactly n bytes plus padding."""
        if len(data) != n:
            raise XdrError(f"fixed opaque wants {n} bytes, got {len(data)}")
        # bytes() hands an immutable input back as it is and snapshots a
        # mutable one: the payload's one copy is the join in get_bytes().
        self._parts.append(bytes(data))
        if n & 3:
            self._parts.append(_ZEROS[: _pad(n)])

    def pack_opaque(self, data: bytes) -> None:
        """Variable-length opaque: length word, bytes, padding."""
        self.pack_uint(len(data))
        self.pack_fopaque(len(data), data)

    def pack_string(self, s: str) -> None:
        self.pack_opaque(s.encode("utf-8"))

    def pack_encoded(self, data: bytes) -> None:
        """Bytes that are XDR already (RPC arguments, results), verbatim."""
        self._parts.append(bytes(data))

    # -- composites --------------------------------------------------------

    def pack_array(self, items: Sequence[T], pack_item: Callable[[T], None]) -> None:
        """Variable-length array: counted, then each element."""
        self.pack_uint(len(items))
        for item in items:
            pack_item(item)

    def pack_optional(self, value: Optional[T], pack_item: Callable[[T], None]) -> None:
        """XDR optional (``*`` pointer syntax): bool then value-if-present."""
        if value is None:
            self.pack_bool(False)
        else:
            self.pack_bool(True)
            pack_item(value)

    def pack_list(self, items: Sequence[T], pack_item: Callable[[T], None]) -> None:
        """XDR linked list: (TRUE item)* FALSE — used by READDIR replies."""
        for item in items:
            self.pack_bool(True)
            pack_item(item)
        self.pack_bool(False)


class Unpacker:
    """Consumes XDR-encoded bytes at a cursor, without slicing per field."""

    def __init__(self, data: bytes):
        # bytes input is read in place; a mutable buffer is snapshotted
        self._data = bytes(data)
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> bool:
        return self._pos >= len(self._data)

    def assert_done(self) -> None:
        if not self.done():
            raise XdrError(f"{self.remaining()} trailing bytes after decode")

    def _underrun(self, n: int) -> XdrError:
        return XdrError(
            f"buffer underrun: need {n} bytes at offset {self._pos}, "
            f"have {len(self._data) - self._pos}"
        )

    def unpack_struct(self, layout: struct.Struct) -> tuple:
        """A precompiled fixed layout read at the cursor in one call."""
        try:
            out = layout.unpack_from(self._data, self._pos)
        except struct.error:
            raise self._underrun(layout.size) from None
        self._pos += layout.size
        return out

    # -- integers --------------------------------------------------------

    def unpack_uint(self) -> int:
        return self.unpack_struct(_U32)[0]

    def unpack_int(self) -> int:
        return self.unpack_struct(_I32)[0]

    def unpack_uhyper(self) -> int:
        return self.unpack_struct(_U64)[0]

    def unpack_hyper(self) -> int:
        return self.unpack_struct(_I64)[0]

    def unpack_bool(self) -> bool:
        return check_bool(self.unpack_uint())

    def unpack_enum(self) -> int:
        return self.unpack_int()

    def unpack_double(self) -> float:
        return self.unpack_struct(_F64)[0]

    # -- opaques and strings -----------------------------------------------

    def unpack_fopaque(self, n: int) -> bytes:
        start = self._pos
        end = start + n
        stop = end + _pad(n)
        if stop > len(self._data):
            raise self._underrun(stop - start)
        if stop != end and self._data[end:stop] != _ZEROS[: stop - end]:
            raise XdrError("nonzero padding bytes")
        self._pos = stop
        return self._data[start:end]  # the one copy of a payload per decode

    def unpack_opaque(self, max_len: Optional[int] = None) -> bytes:
        n = self.unpack_uint()
        if max_len is not None and n > max_len:
            raise XdrError(f"opaque length {n} exceeds limit {max_len}")
        return self.unpack_fopaque(n)

    def unpack_string(self, max_len: Optional[int] = None) -> str:
        raw = self.unpack_opaque(max_len)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XdrError(f"invalid UTF-8 in string: {exc}") from None

    # -- composites --------------------------------------------------------

    def unpack_array(self, unpack_item: Callable[[], T], max_len: Optional[int] = None) -> List[T]:
        n = self.unpack_uint()
        if max_len is not None and n > max_len:
            raise XdrError(f"array length {n} exceeds limit {max_len}")
        return [unpack_item() for _ in range(n)]

    def unpack_optional(self, unpack_item: Callable[[], T]) -> Optional[T]:
        return unpack_item() if self.unpack_bool() else None

    def unpack_list(self, unpack_item: Callable[[], T], max_len: int = 1_000_000) -> List[T]:
        out: List[T] = []
        while self.unpack_bool():
            out.append(unpack_item())
            if len(out) > max_len:
                raise XdrError("XDR list exceeds sanity limit")
        return out
