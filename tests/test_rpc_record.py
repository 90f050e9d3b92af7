"""RPC record marking: framing, fragmentation, incremental reassembly."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.rpc.errors import RpcError
from repro.rpc.record import (
    LAST_FRAGMENT,
    RecordReader,
    RecordWriter,
    frame_record,
)


def test_single_fragment_framing():
    framed = frame_record(b"hello")
    header = struct.unpack(">I", framed[:4])[0]
    assert header == (LAST_FRAGMENT | 5)
    assert framed[4:] == b"hello"


def test_empty_record_framing():
    framed = frame_record(b"")
    assert framed == struct.pack(">I", LAST_FRAGMENT)
    reader = RecordReader()
    reader.feed(framed)
    assert reader.next_record() == b""


def test_multi_fragment_framing_and_reassembly():
    record = bytes(range(256)) * 10  # 2560 bytes
    framed = frame_record(record, fragment_size=1000)
    # 3 fragments: 1000 + 1000 + 560
    assert len(framed) == len(record) + 3 * 4
    reader = RecordReader()
    reader.feed(framed)
    assert reader.next_record() == record
    assert reader.next_record() is None


def test_byte_at_a_time_reassembly():
    records = [b"first", b"second record", b""]
    stream = b"".join(frame_record(r, fragment_size=4) for r in records)
    reader = RecordReader()
    out = []
    for i in range(len(stream)):
        reader.feed(stream[i : i + 1])
        while True:
            rec = reader.next_record()
            if rec is None:
                break
            out.append(rec)
    assert out == records


def test_interleaved_feed_and_pop():
    reader = RecordReader()
    reader.feed(frame_record(b"aaa") + frame_record(b"bbb"))
    assert reader.pending == 2
    assert reader.next_record() == b"aaa"
    assert reader.next_record() == b"bbb"
    assert reader.next_record() is None


def test_oversized_record_rejected():
    reader = RecordReader(max_record=100)
    with pytest.raises(RpcError, match="exceeds"):
        reader.feed(frame_record(b"x" * 200))


def test_bad_fragment_size_rejected():
    with pytest.raises(RpcError):
        frame_record(b"x", fragment_size=0)


def test_writer_writes_through_sink():
    chunks = []

    class Sink:
        def send(self, data):
            chunks.append(data)

    RecordWriter(Sink()).write(b"payload")
    reader = RecordReader()
    for c in chunks:
        reader.feed(c)
    assert reader.next_record() == b"payload"


@given(
    st.lists(st.binary(max_size=400), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=97),
)
def test_property_stream_reassembly(records, fragment_size, chunk_size):
    """Any records, any fragmentation, any stream chunking: reassembles."""
    stream = b"".join(frame_record(r, fragment_size=fragment_size) for r in records)
    reader = RecordReader()
    out = []
    for off in range(0, len(stream), chunk_size):
        reader.feed(stream[off : off + chunk_size])
        while True:
            rec = reader.next_record()
            if rec is None:
                break
            out.append(rec)
    assert out == records


# -- whole records peeled off the arriving chunk vs. the staging buffers ----------


def _drain(reader):
    out = []
    while (rec := reader.next_record()) is not None:
        out.append(rec)
    return out


def test_every_split_of_a_mixed_stream_reassembles():
    """Single-fragment records take the direct path when they arrive
    whole, multi-fragment and partial ones the staging buffers; every
    1-, 2- and 3-way cut of the stream must hand back the same records
    in the same order whichever path each piece took."""
    records = [b"", b"abc", b"0123456789", b"", b"z" * 15, b"tail"]
    sizes = [1 << 20, 7, 1 << 20, 1, 1, 7]  # 1 << 20: one fragment each
    stream = b"".join(frame_record(r, fragment_size=s) for r, s in zip(records, sizes))
    n = len(stream)
    cuts = [()] + [(i,) for i in range(n + 1)] + [
        (i, j) for i in range(n + 1) for j in range(i, n + 1)
    ]
    for cut in cuts:
        reader = RecordReader()
        out = []
        for lo, hi in zip((0,) + cut, cut + (n,)):
            reader.feed(stream[lo:hi])
            out.extend(_drain(reader))
        assert out == records, cut
        assert reader.pending == 0


def test_whole_records_are_ready_without_staging():
    reader = RecordReader()
    reader.feed(frame_record(b"one") + frame_record(b"") + frame_record(b"three")[:5])
    assert reader.pending == 2
    assert _drain(reader) == [b"one", b""]
    reader.feed(frame_record(b"three")[5:] + frame_record(b"four"))
    assert _drain(reader) == [b"three", b"four"]


@pytest.mark.parametrize("before,ready", [
    (b"", []),
    (frame_record(b"ok"), [b"ok"]),  # met on the direct path
    (frame_record(b"ab", fragment_size=1), [b"ab"]),  # met while staging
])
def test_oversized_header_rejected_on_either_path(before, ready):
    """max_record is enforced on the header alone, before any payload
    arrives; records completed before it stay readable."""
    reader = RecordReader(max_record=100)
    with pytest.raises(RpcError, match="exceeds"):
        reader.feed(before + struct.pack(">I", LAST_FRAGMENT | 101))
    assert _drain(reader) == ready
    exact = RecordReader(max_record=100)
    exact.feed(frame_record(b"x" * 100))
    assert exact.next_record() == b"x" * 100


def test_fragments_summing_past_the_limit_rejected():
    reader = RecordReader(max_record=100)
    with pytest.raises(RpcError, match="exceeds"):
        reader.feed(frame_record(b"x" * 101, fragment_size=60))


def test_framing_is_one_header_per_fragment_whatever_the_input_type():
    for record in (b"", b"a", b"abcdefgh"):
        for size in (1, 3, 8, 1 << 20):
            framed = frame_record(record, fragment_size=size)
            pieces = [record[i : i + size] for i in range(0, len(record), size)] or [b""]
            want = b"".join(
                struct.pack(">I", (LAST_FRAGMENT if i == len(pieces) - 1 else 0) | len(p)) + p
                for i, p in enumerate(pieces)
            )
            assert framed == want == frame_record(bytearray(record), fragment_size=size)
