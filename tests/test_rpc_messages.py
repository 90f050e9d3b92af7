"""RPC CALL/REPLY message codecs and error mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.rpc import CallMessage, ReplyMessage, MSG_DENIED, SUCCESS
from repro.rpc.auth import AUTH_SYS, AuthSys, OpaqueAuth, MAX_AUTH_BODY
from repro.rpc.errors import (
    RpcAuthError,
    RpcError,
    RpcGarbageArgs,
    RpcProcUnavail,
    RpcProgMismatch,
    RpcProgUnavail,
    RpcSystemError,
)
from repro.rpc.messages import (
    AUTH_BADCRED,
    AUTH_ERROR,
    GARBAGE_ARGS,
    MSG_ACCEPTED,
    PROC_UNAVAIL,
    PROG_MISMATCH,
    PROG_UNAVAIL,
    RPC_MISMATCH,
    SYSTEM_ERR,
    denied_reply,
    error_reply,
    success_reply,
)
from repro.xdr import XdrError
from tests import _reference_codec as ref
from tests._reference_codec import outcome


def test_call_roundtrip():
    cred = AuthSys(uid=42, gid=43, gids=[1, 2, 3]).to_opaque()
    call = CallMessage(7, 100003, 3, 6, cred=cred, args=b"\x00\x01\x02\x03")
    decoded = CallMessage.decode(call.encode())
    assert decoded.xid == 7
    assert (decoded.prog, decoded.vers, decoded.proc) == (100003, 3, 6)
    assert decoded.args == b"\x00\x01\x02\x03"
    auth = AuthSys.from_opaque(decoded.cred)
    assert (auth.uid, auth.gid, auth.gids) == (42, 43, (1, 2, 3))


def test_reply_is_not_a_call():
    reply = success_reply(9, b"")
    with pytest.raises(RpcError, match="expected CALL"):
        CallMessage.decode(reply.encode())


def test_call_is_not_a_reply():
    call = CallMessage(1, 1, 1, 0)
    with pytest.raises(RpcError, match="expected REPLY"):
        ReplyMessage.decode(call.encode())


def test_success_reply_roundtrip():
    reply = success_reply(11, b"results here")
    decoded = ReplyMessage.decode(reply.encode())
    assert decoded.xid == 11
    assert decoded.accept_stat == SUCCESS
    assert decoded.results == b"results here"
    decoded.raise_for_status()  # no exception


@pytest.mark.parametrize(
    "stat,exc",
    [
        (PROG_UNAVAIL, RpcProgUnavail),
        (PROC_UNAVAIL, RpcProcUnavail),
        (GARBAGE_ARGS, RpcGarbageArgs),
        (SYSTEM_ERR, RpcSystemError),
    ],
)
def test_error_replies_map_to_exceptions(stat, exc):
    decoded = ReplyMessage.decode(error_reply(5, stat).encode())
    with pytest.raises(exc):
        decoded.raise_for_status()


def test_prog_mismatch_carries_versions():
    reply = error_reply(5, PROG_MISMATCH)
    reply.mismatch_low, reply.mismatch_high = 2, 4
    decoded = ReplyMessage.decode(reply.encode())
    with pytest.raises(RpcProgMismatch) as info:
        decoded.raise_for_status()
    assert (info.value.low, info.value.high) == (2, 4)


def test_denied_reply_roundtrip():
    decoded = ReplyMessage.decode(denied_reply(3, AUTH_BADCRED).encode())
    assert decoded.reply_stat == MSG_DENIED
    with pytest.raises(RpcAuthError) as info:
        decoded.raise_for_status()
    assert info.value.stat == AUTH_BADCRED


def test_with_cred_rewrites_only_credentials():
    original = CallMessage(1, 2, 3, 4, cred=AuthSys(uid=10, gid=10).to_opaque(), args=b"zz")
    remapped = original.with_cred(AuthSys(uid=901, gid=901).to_opaque())
    assert remapped.xid == original.xid
    assert remapped.args == original.args
    assert AuthSys.from_opaque(remapped.cred).uid == 901
    assert AuthSys.from_opaque(original.cred).uid == 10


def test_auth_body_size_limit():
    big = OpaqueAuth(AUTH_SYS, b"x" * (MAX_AUTH_BODY + 1))
    call = CallMessage(1, 2, 3, 4, cred=big)
    with pytest.raises(XdrError):
        call.encode()


def test_auth_sys_wrong_flavor_rejected():
    with pytest.raises(XdrError):
        AuthSys.from_opaque(OpaqueAuth(0, b""))


def test_auth_sys_with_identity():
    base = AuthSys(uid=5001, gid=5001, machinename="client", gids=[7])
    mapped = base.with_identity(901, 901)
    assert (mapped.uid, mapped.gid) == (901, 901)
    assert mapped.machinename == "client"
    assert mapped.gids == (7,)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.binary(max_size=200),
)
def test_property_call_roundtrip(xid, prog, proc, args):
    call = CallMessage(xid, prog, 3, proc, args=args)
    decoded = CallMessage.decode(call.encode())
    assert (decoded.xid, decoded.prog, decoded.proc, decoded.args) == (
        xid, prog, proc, args,
    )


@given(st.integers(min_value=0, max_value=2**32 - 1), st.binary(max_size=200))
def test_property_reply_roundtrip(xid, results):
    decoded = ReplyMessage.decode(success_reply(xid, results).encode())
    assert (decoded.xid, decoded.results) == (xid, results)


# -- differential: compiled headers against the field-at-a-time reference ------------

U32 = st.integers(min_value=0, max_value=2**32 - 1)
I32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
AUTHS = st.builds(OpaqueAuth, I32, st.binary(max_size=MAX_AUTH_BODY))
SMALL_AUTHS = st.builds(OpaqueAuth, I32, st.binary(max_size=7))
CALLS = st.builds(CallMessage, U32, U32, U32, U32, AUTHS, SMALL_AUTHS, st.binary(max_size=40))
REPLIES = st.one_of(
    # every arm of the reply union, each in the shape decode() returns it
    st.builds(ReplyMessage, U32, verf=SMALL_AUTHS, results=st.binary(max_size=40)),
    st.builds(ReplyMessage, U32, verf=SMALL_AUTHS, accept_stat=st.just(PROG_MISMATCH),
              mismatch_low=U32, mismatch_high=U32),
    st.builds(ReplyMessage, U32, verf=SMALL_AUTHS,
              accept_stat=st.sampled_from([PROG_UNAVAIL, PROC_UNAVAIL, GARBAGE_ARGS,
                                           SYSTEM_ERR, 6, -1])),
    st.builds(ReplyMessage, U32, st.just(MSG_DENIED), reject_stat=st.just(RPC_MISMATCH),
              mismatch_low=U32, mismatch_high=U32),
    st.builds(ReplyMessage, U32, st.just(MSG_DENIED), reject_stat=st.just(AUTH_ERROR),
              auth_stat=I32),
)
AUTH_SYSES = st.builds(
    AuthSys, U32, st.text(max_size=60), U32, U32, st.lists(U32, max_size=16))
WORDS = [0, 1, 2, 3, 5, 6, 400, 401, 2**31 - 1, 2**31, 2**32 - 1]


def _prefixes_and_word_flips(record):
    """Every truncated prefix, and every word of the first 48 bytes
    overwritten with each interesting value: bad msg_type, rpcvers,
    reply_stat, accept/reject discriminants, auth flavors and lengths."""
    for k in range(len(record)):
        yield record[:k]
    for off in range(0, min(len(record), 48), 4):
        for word in WORDS:
            yield record[:off] + word.to_bytes(4, "big") + record[off + 4 :]


@given(CALLS)
def test_call_codec_matches_reference(call):
    record = call.encode()
    assert record == ref.encode_call(call)
    assert CallMessage.decode(record) == call
    for bad in _prefixes_and_word_flips(record):
        assert outcome(CallMessage.decode, bad) == outcome(ref.decode_call, bad)


@given(REPLIES)
def test_reply_codec_matches_reference(reply):
    record = reply.encode()
    assert record == ref.encode_reply(reply)
    assert ReplyMessage.decode(record) == reply
    for bad in _prefixes_and_word_flips(record):
        assert outcome(ReplyMessage.decode, bad) == outcome(ref.decode_reply, bad)


@given(st.binary(max_size=120))
def test_decoders_match_reference_on_garbage(data):
    assert outcome(CallMessage.decode, data) == outcome(ref.decode_call, data)
    assert outcome(ReplyMessage.decode, data) == outcome(ref.decode_reply, data)


def test_short_record_of_the_wrong_type_is_an_rpc_error_not_an_underrun():
    """The reply pump skips RpcError and dies on anything else, so which
    class a truncated header raises is behaviour, not wording."""
    wrong_type = (7).to_bytes(4, "big") + (1).to_bytes(4, "big")  # xid, REPLY
    with pytest.raises(RpcError, match="expected CALL"):
        CallMessage.decode(wrong_type)
    with pytest.raises(RpcError, match="unsupported RPC version"):
        CallMessage.decode(bytes(8) + (3).to_bytes(4, "big"))
    with pytest.raises(XdrError, match="underrun"):
        CallMessage.decode(bytes(8) + (2).to_bytes(4, "big"))
    with pytest.raises(RpcError, match="expected REPLY"):
        ReplyMessage.decode(bytes(8))
    with pytest.raises(RpcError, match="bad reply_stat"):
        ReplyMessage.decode(bytes(4) + (1).to_bytes(4, "big") + (2).to_bytes(4, "big"))


@pytest.mark.parametrize("body_len", [1, 2, 3, 5])
def test_each_nonzero_auth_pad_byte_rejected(body_len):
    cred = OpaqueAuth(AUTH_SYS, b"b" * body_len)
    for message, decode, refdecode, at in (
        (CallMessage(1, 2, 3, 4, cred=cred), CallMessage.decode, ref.decode_call, 24),
        (ReplyMessage(1, verf=cred), ReplyMessage.decode, ref.decode_reply, 12),
    ):
        record = message.encode()
        pad_start = at + 8 + body_len
        for i in range(pad_start, pad_start + (-body_len % 4)):
            bad = record[:i] + b"\x01" + record[i + 1 :]
            assert outcome(decode, bad) == outcome(refdecode, bad) == ("error", XdrError)


def test_auth_body_of_401_bytes_refused_both_ways():
    big = OpaqueAuth(AUTH_SYS, b"x" * (MAX_AUTH_BODY + 1))
    for message, encode in (
        (CallMessage(1, 2, 3, 4, cred=big), ref.encode_call),
        (CallMessage(1, 2, 3, 4, verf=big), ref.encode_call),
        (ReplyMessage(1, verf=big), ref.encode_reply),
    ):
        assert outcome(message.encode) == outcome(encode, message) == ("error", XdrError)
    # on the wire: a 400-byte body whose length word says 401
    record = bytearray(CallMessage(1, 2, 3, 4, cred=OpaqueAuth(1, b"x" * 400)).encode())
    record[28:32] = (401).to_bytes(4, "big")
    record = bytes(record) + bytes(8)
    assert outcome(CallMessage.decode, record) == outcome(ref.decode_call, record) \
        == ("error", XdrError)


@pytest.mark.parametrize("field,value", [
    ("xid", -1), ("xid", 2**32), ("prog", 2**32), ("vers", -1), ("proc", 2**32),
])
def test_call_out_of_range_fields_refused(field, value):
    call = CallMessage(1, 2, 3, 4)
    setattr(call, field, value)
    assert outcome(call.encode) == outcome(ref.encode_call, call) == ("error", XdrError)


@pytest.mark.parametrize("fields", [
    {"xid": 2**32}, {"reply_stat": 2**31}, {"accept_stat": -(2**31) - 1},
    {"accept_stat": PROG_MISMATCH, "mismatch_low": -1},
    {"reply_stat": MSG_DENIED, "reject_stat": RPC_MISMATCH, "mismatch_high": 2**32},
    {"reply_stat": MSG_DENIED, "reject_stat": AUTH_ERROR, "auth_stat": 2**31},
])
def test_reply_out_of_range_fields_refused(fields):
    reply = ReplyMessage(**{"xid": 1, **fields})
    assert outcome(reply.encode) == outcome(ref.encode_reply, reply) == ("error", XdrError)


@given(AUTH_SYSES)
def test_auth_sys_codec_matches_reference(auth):
    cred = auth.to_opaque()
    assert cred == ref.auth_sys_to_opaque(auth)
    assert AuthSys.from_opaque(cred) == auth == ref.auth_sys_from_opaque(cred)
    for k in range(len(cred.body)):
        cut = OpaqueAuth(AUTH_SYS, cred.body[:k])
        assert outcome(AuthSys.from_opaque, cut) == outcome(ref.auth_sys_from_opaque, cut)
    for extra in (b"\x00", bytes(4)):
        long = OpaqueAuth(AUTH_SYS, cred.body + extra)
        assert outcome(AuthSys.from_opaque, long) == ("error", XdrError)


@given(st.binary(max_size=80))
def test_auth_sys_parse_matches_reference_on_garbage(body):
    cred = OpaqueAuth(AUTH_SYS, body)
    assert outcome(AuthSys.from_opaque, cred) == outcome(ref.auth_sys_from_opaque, cred)


def test_auth_sys_is_immutable_and_shareable():
    """A parsed credential is handed to every call that carries the same
    bytes, so nothing about it may be mutable."""
    auth = AuthSys(uid=7, gid=8, gids=[1, 2])
    assert auth.gids == (1, 2) and auth == AuthSys(uid=7, gid=8, gids=(1, 2))
    assert hash(auth) == hash(AuthSys(uid=7, gid=8, gids=(1, 2)))
    with pytest.raises(AttributeError):
        auth.uid = 0
    cred = auth.to_opaque()
    assert AuthSys.from_opaque(cred) == AuthSys.from_opaque(OpaqueAuth(AUTH_SYS, cred.body))
    seventeen = AuthSys(gids=range(17)).to_opaque()
    for _ in range(2):  # a refused body is refused every time, not cached
        with pytest.raises(XdrError):
            AuthSys.from_opaque(seventeen)
