"""Adversarial robustness: corrupted and fuzzed inputs fail *cleanly*.

A user-level security proxy lives on untrusted input.  These property
tests require that arbitrary garbage and targeted bit-flips produce
typed errors (XdrError, RpcError, IntegrityError, ServiceFault, ...) —
never unhandled exceptions, hangs, or silent acceptance.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import Drbg
from repro.crypto.hmac import hmac_sha1
from repro.crypto.rsa import CryptoError, generate_keypair
from repro.gsi import Certificate, CertificateAuthority, DistinguishedName
from repro.gsi.certs import CertError, ValidationError, validate_chain
from repro.nfs import protocol as pr
from repro.rpc.errors import RpcError
from repro.rpc.messages import CallMessage, ReplyMessage
from repro.rpc.record import RecordReader
from repro.services.envelope import Envelope, ServiceFault, sign_envelope, verify_envelope
from repro.xdr import Unpacker, XdrError

CA = CertificateAuthority(
    DistinguishedName.parse("/O=FuzzCA/CN=Root"), rng=Drbg("fuzz-ca"), key_bits=768
)
ALICE = CA.issue_identity(
    DistinguishedName.parse("/O=Fuzz/CN=Alice"), rng=Drbg("fuzz-alice"), key_bits=768
)


@given(st.binary(max_size=200))
def test_call_decode_never_crashes(data):
    try:
        CallMessage.decode(data)
    except (RpcError, XdrError):
        pass


@given(st.binary(max_size=200))
def test_reply_decode_never_crashes(data):
    try:
        ReplyMessage.decode(data)
    except (RpcError, XdrError):
        pass


@given(st.binary(max_size=300))
def test_nfs_arg_decoders_never_crash(data):
    for decoder in (
        pr.unpack_getattr_args, pr.unpack_lookup_args, pr.unpack_access_args,
        pr.unpack_read_args, pr.unpack_write_args, pr.unpack_create_args,
        pr.unpack_rename_args, pr.unpack_commit_args,
    ):
        try:
            decoder(data)
        except XdrError:
            pass


@given(st.binary(max_size=300))
def test_nfs_result_decoders_never_crash(data):
    for decoder in (
        pr.unpack_getattr_res, pr.unpack_lookup_res, pr.unpack_read_res,
        pr.unpack_write_res, pr.unpack_create_res, pr.unpack_remove_res,
    ):
        try:
            decoder(data)
        except XdrError:
            pass


@given(st.binary(max_size=200))
def test_readdir_res_decoder_never_crashes(data):
    try:
        pr.unpack_readdir_res(data, plus=True)
        pr.unpack_readdir_res(data, plus=False)
    except XdrError:
        pass


@given(st.binary(max_size=400))
def test_record_reader_survives_garbage(data):
    reader = RecordReader(max_record=4096)
    try:
        reader.feed(data)
        while reader.next_record() is not None:
            pass
    except RpcError:
        pass


@given(st.binary(max_size=300))
def test_certificate_decode_never_crashes(data):
    try:
        Certificate.from_bytes(data)
    except (CertError, XdrError, CryptoError, Exception) as exc:
        # must be a *typed* failure, not a crash with partial state
        assert isinstance(exc, (CertError, XdrError, CryptoError, ValueError))


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=7))
def test_certificate_bitflip_never_validates(byte_index, bit):
    raw = bytearray(ALICE.certificate.to_bytes())
    idx = byte_index % len(raw)
    raw[idx] ^= 1 << bit
    try:
        forged = Certificate.from_bytes(bytes(raw))
    except Exception:
        return  # undecodable: fine
    try:
        validate_chain(forged, ALICE.chain, [CA.certificate], now=1.0)
    except ValidationError:
        return
    # a decodable flip that still validates must be a no-op flip
    assert bytes(raw) == ALICE.certificate.to_bytes()


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=7))
def test_signature_bitflip_never_verifies(byte_index, bit):
    keys = generate_keypair(768, Drbg("sig-fuzz"))
    message = b"the signed statement"
    sig = bytearray(keys.sign(message))
    sig[byte_index % len(sig)] ^= 1 << bit
    assert not keys.public.verify(message, bytes(sig))


@settings(max_examples=25)
@given(st.binary(min_size=1, max_size=600), st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=7))
def test_hmac_bitflip_always_detected(message, byte_index, bit):
    key = b"integrity-key-123"
    mac = hmac_sha1(key, message)
    mutated = bytearray(message)
    mutated[byte_index % len(mutated)] ^= 1 << bit
    if bytes(mutated) != message:
        assert hmac_sha1(key, bytes(mutated)) != mac


# -- the management services' signed envelope ------------------------------


def _signed_request() -> bytes:
    """A request signed by a proxy of ALICE: the token carries a chain."""
    from repro.gsi import issue_proxy_certificate

    proxy = issue_proxy_certificate(ALICE, now=5.0, rng=Drbg("fuzz-px"), key_bits=768)
    envelope = Envelope("CreateSession", {"filesystem": "/GFS/x", "suite": "null-sha1"})
    return sign_envelope(envelope, proxy, 10.0, "n-1").encode()


SIGNED_REQUEST = _signed_request()


@given(st.one_of(
    st.binary(max_size=400),
    # a real request with a stretch overwritten: decoding gets deep
    st.tuples(st.integers(min_value=0, max_value=len(SIGNED_REQUEST)),
              st.binary(min_size=1, max_size=16)).map(
        lambda cut: SIGNED_REQUEST[:cut[0]] + cut[1]
        + SIGNED_REQUEST[cut[0] + len(cut[1]):]),
))
def test_envelope_decode_never_crashes(data):
    try:
        Envelope.decode(data)
    except (ServiceFault, XdrError, CertError):
        pass


def test_envelope_bitflip_never_verifies():
    """Every single-bit flip of a signed request, one at a time: each
    fails to decode or fails verification — none verifies."""
    assert verify_envelope(Envelope.decode(SIGNED_REQUEST), [CA.certificate], 11.0)
    for i in range(len(SIGNED_REQUEST) * 8):
        wire = bytearray(SIGNED_REQUEST)
        wire[i // 8] ^= 1 << (i % 8)
        try:
            envelope = Envelope.decode(bytes(wire))
        except XdrError:
            continue
        with pytest.raises(ServiceFault):
            verify_envelope(envelope, [CA.certificate], now=11.0)


# -- the one record layer (repro.crypto.suites.Direction), attacked once ------

#: how each protocol uses it — (suite, what travels beside the
#: ciphertext and is authenticated with it): the TLS channel's DATA
#: content-type byte; SFS and the SSH tunnel send the sealed record bare
RECORD_CONVENTIONS = {
    "tls": ("aes-256-cbc-sha1", b"\x02"),
    "sfs": ("rc4-128-sha1", b""),
    "sshtun": ("aes-256-cbc-sha1", b""),
}


def _fresh_directions(convention):
    """(client->server, server->client) under the real ciphers, keyed
    the same on every call: one call is the sender, another a receiver
    whose cipher state no earlier attempt has advanced."""
    from repro.crypto.suites import SUITES, derive_directions

    suite, aad = RECORD_CONVENTIONS[convention]
    return derive_directions(SUITES[suite], b"m" * 32, "attack", fast=False), aad


@settings(max_examples=20)
@given(st.binary(min_size=32, max_size=256), st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=7), st.sampled_from(sorted(RECORD_CONVENTIONS)))
def test_tls_record_bitflip_always_detected(payload, byte_index, bit, convention):
    """Flip any bit of a record as it crosses the wire — the type byte
    included: the receiver must reject it."""
    from repro.tls import IntegrityError

    (send, _), aad = _fresh_directions(convention)
    (recv, _), _ = _fresh_directions(convention)
    wire = bytearray(aad + send.seal(payload, aad))
    wire[byte_index % len(wire)] ^= 1 << bit
    with pytest.raises(IntegrityError):
        recv.open(bytes(wire[len(aad):]), bytes(wire[:len(aad)]))


@pytest.mark.parametrize("convention", sorted(RECORD_CONVENTIONS))
def test_sealed_record_truncated_replayed_swapped_or_reflected_is_rejected(convention):
    from repro.crypto.suites import IntegrityError

    (send, _), aad = _fresh_directions(convention)
    first = send.seal(b"first record " * 3, aad)
    second = send.seal(b"second record", aad)

    for n in range(len(first)):  # truncation to every shorter length
        (recv, _), _ = _fresh_directions(convention)
        with pytest.raises(IntegrityError):
            recv.open(first[:n], aad)

    (recv, reverse), _ = _fresh_directions(convention)
    with pytest.raises(IntegrityError):  # reflected back at its sender
        reverse.open(first, aad)
    assert recv.open(first, aad) == b"first record " * 3
    with pytest.raises(IntegrityError):  # replayed: its sequence number is stale
        recv.open(first, aad)

    (recv, _), _ = _fresh_directions(convention)
    with pytest.raises(IntegrityError):  # swapped with its successor
        recv.open(second, aad)


def test_tampered_record_ends_the_sgfs_session_normally_and_the_mount_recovers():
    """One flipped WAN byte inside an established sgfs-aes session is a
    *refusal*, not an accident: the server proxy's session process reads
    a record that fails its MAC, closes the channel and ends — it does
    not die of ``IntegrityError`` with nobody told — and the client
    proxy goes through its ordinary reconnect-and-retry path to a second
    session, content exact."""
    from repro.core import Testbed
    from repro.core.setups import SETUP_BUILDERS
    from repro.vfs.fs import Credentials
    from tests.test_sshtun_sfs import WanTap

    tb = Testbed.build(rtt=0.02)
    tap = WanTap(tb.client, "server")
    sessions = []  # the server proxy's per-session processes, in accept order
    spawn = tb.sim.spawn

    def recording_spawn(generator, name=""):
        proc = spawn(generator, name=name)
        if name == "sgfs-session":
            sessions.append(proc)
        return proc

    tb.sim.spawn = recording_spawn
    mount = SETUP_BUILDERS["sgfs-aes"](tb)
    first_channel = mount.client_proxy._upstream
    payload = bytes(range(256)) * 1024

    def job():
        tap.arm(5)  # past LOOKUP and CREATE: inside the WRITEs
        yield from mount.client.write_file("/big.bin", payload)
        return (yield from mount.client.read_file("/big.bin"))

    proc = tb.sim.spawn(job())
    tb.sim.run(until=tb.sim.now + 300.0)
    assert proc.result() == payload
    assert bytes(tb.fs.resolve("/big.bin", Credentials(0, 0)).data) == payload
    assert tap.flipped is not None and len(sessions) == 2
    refused, current = sessions
    assert not refused.alive and not refused.completion.failed
    assert current.alive
    assert first_channel.closed and mount.client_proxy._upstream is not first_channel
    assert mount.client_proxy.stats["upstream_retries"] >= 1
    assert tb.sim.died == []
