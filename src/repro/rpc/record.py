"""Record marking for RPC over stream transports (RFC 1831 §10).

A record is sent as one or more fragments.  Each fragment is preceded by
a 4-byte big-endian header: the top bit marks the final fragment of the
record, the remaining 31 bits give the fragment length.  The reader
reassembles records from an arbitrary chunking of the byte stream, which
our simulated sockets genuinely produce.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.rpc.errors import RpcError

_HDR = struct.Struct(">I")
LAST_FRAGMENT = 0x80000000
MAX_FRAGMENT = 0x7FFFFFFF

#: Fragment size used when splitting large records.  Real stacks use the
#: write buffer size; anything works as long as both codecs agree on the
#: framing, and a sub-record size exercises reassembly in tests.
DEFAULT_FRAGMENT_SIZE = 1 << 20


def frame_record(record: bytes, fragment_size: int = DEFAULT_FRAGMENT_SIZE) -> bytes:
    """Encode one record into its on-the-wire framed form."""
    if fragment_size < 1 or fragment_size > MAX_FRAGMENT:
        raise RpcError(f"bad fragment size {fragment_size}")
    n = len(record)
    if n <= fragment_size:  # one fragment (or the empty record): one join
        return b"".join((_HDR.pack(LAST_FRAGMENT | n), record))
    parts: List[bytes] = []
    for off in range(0, n, fragment_size):
        chunk = record[off : off + fragment_size]
        last = off + fragment_size >= n
        parts.append(_HDR.pack((LAST_FRAGMENT if last else 0) | len(chunk)))
        parts.append(chunk)
    return b"".join(parts)


class RecordWriter:
    """Frames records onto a transport-like object with a ``send``."""

    def __init__(self, sink, fragment_size: int = DEFAULT_FRAGMENT_SIZE):
        self._sink = sink
        self.fragment_size = fragment_size

    def write(self, record: bytes) -> None:
        self._sink.send(frame_record(record, self.fragment_size))


class RecordReader:
    """Incremental record reassembler.

    Feed it raw stream bytes with :meth:`feed`; pull completed records
    with :meth:`next_record`.  This push design lets one connection
    process interleave reading with other work.
    """

    def __init__(self, max_record: int = 256 * 1024 * 1024):
        self._buf = bytearray()
        self._records: List[bytes] = []
        self._current = bytearray()
        self._need: Optional[int] = None  # bytes left in current fragment
        self._last = False
        self.max_record = max_record

    def feed(self, data: bytes) -> None:
        # Common case: nothing staged and ``data`` starts with whole
        # single-fragment records (the simulated socket delivers one
        # ``send`` as one chunk).  Peel them straight off the chunk —
        # one copy per record — and stage only what is left.
        pos = 0
        if self._need is None and not self._buf and not self._current:
            end = len(data)
            while end - pos >= 4:
                hdr = _HDR.unpack_from(data, pos)[0]
                size = hdr & MAX_FRAGMENT
                nxt = pos + 4 + size
                if not hdr & LAST_FRAGMENT or size > self.max_record or nxt > end:
                    break  # multi-fragment, oversized or partial: stage it
                self._records.append(bytes(data[pos + 4 : nxt]))
                pos = nxt
            if pos == end:
                return
        self._buf.extend(data[pos:] if pos else data)
        self._drain()

    def _drain(self) -> None:
        while True:
            if self._need is None:
                if len(self._buf) < 4:
                    return
                hdr = _HDR.unpack(bytes(self._buf[:4]))[0]
                del self._buf[:4]
                self._last = bool(hdr & LAST_FRAGMENT)
                self._need = hdr & MAX_FRAGMENT
                if len(self._current) + self._need > self.max_record:
                    raise RpcError(
                        f"record exceeds {self.max_record} bytes; corrupt stream?"
                    )
            take = min(self._need, len(self._buf))
            if take:
                self._current.extend(self._buf[:take])
                del self._buf[:take]
                self._need -= take
            if self._need == 0:
                self._need = None
                if self._last:
                    self._records.append(bytes(self._current))
                    self._current.clear()
            else:
                return  # need more stream data

    def next_record(self) -> Optional[bytes]:
        """Pop a completed record, or None if none is ready."""
        if self._records:
            return self._records.pop(0)
        return None

    @property
    def pending(self) -> int:
        """Completed records waiting to be popped."""
        return len(self._records)
