"""Crypto primitives against published vectors plus property tests."""

import hashlib
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import AES, RC4, PaddingError, hmac_sha1, hmac_sha256, pkcs7_pad, pkcs7_unpad
from repro.crypto.hmac import constant_time_equal, hmac_digest
from repro.crypto.suites import SUITES, Direction, FastXorState, NullCipherState, draw_pad
from repro.proxy.cryptofs import BlockCryptor


# -- AES (FIPS-197 appendix C vectors) ------------------------------------------

FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")


def test_aes128_fips_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    ct = AES(key).encrypt_block(FIPS_PT)
    assert ct == bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    assert AES(key).decrypt_block(ct) == FIPS_PT


def test_aes192_fips_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
    ct = AES(key).encrypt_block(FIPS_PT)
    assert ct == bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")


def test_aes256_fips_vector():
    key = bytes.fromhex(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    )
    ct = AES(key).encrypt_block(FIPS_PT)
    assert ct == bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
    assert AES(key).decrypt_block(ct) == FIPS_PT


def test_aes_nist_sp800_38a_cbc_vector():
    # CBC-AES128.Encrypt from SP 800-38A F.2.1 (first two blocks)
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
    )
    ct = AES(key).cbc_encrypt(iv, pt)
    assert ct == bytes.fromhex(
        "7649abac8119b246cee98e9b12e9197d"
        "5086cb9b507219ee95db113a917678b2"
    )
    assert AES(key).cbc_decrypt(iv, ct) == pt


def test_aes_bad_key_and_block_sizes():
    with pytest.raises(ValueError):
        AES(b"short")
    aes = AES(b"k" * 16)
    with pytest.raises(ValueError):
        aes.encrypt_block(b"x" * 15)
    with pytest.raises(ValueError):
        aes.cbc_encrypt(b"i" * 15, b"x" * 16)
    with pytest.raises(ValueError):
        aes.cbc_encrypt(b"i" * 16, b"x" * 17)


@settings(max_examples=20)
@given(st.binary(min_size=16, max_size=16), st.binary(min_size=32, max_size=32))
def test_aes_block_roundtrip_property(block, key):
    aes = AES(key)
    assert aes.decrypt_block(aes.encrypt_block(block)) == block


# -- RC4 --------------------------------------------------------------------------


def test_rc4_classic_vectors():
    assert RC4(b"Key").process(b"Plaintext").hex().upper() == "BBF316E8D940AF0AD3"
    assert (
        RC4(b"Secret").process(b"Attack at dawn").hex().upper()
        == "45A01F645FC35B383552544B9BF5"
    )


def test_rc4_is_symmetric_and_stateful():
    enc = RC4(b"k")
    dec = RC4(b"k")
    c1 = enc.process(b"first")
    c2 = enc.process(b"second")
    assert dec.process(c1) == b"first"
    assert dec.process(c2) == b"second"
    # a fresh instance is NOT at the same keystream position
    assert RC4(b"k").process(c2) != b"second"


def test_rc4_skip_advances_keystream():
    a = RC4(b"k")
    b = RC4(b"k")
    a.skip(768)
    b.process(b"\x00" * 768)
    assert a.process(b"data") == b.process(b"data")


def test_rc4_key_length_limits():
    with pytest.raises(ValueError):
        RC4(b"")
    with pytest.raises(ValueError):
        RC4(b"x" * 257)


# -- HMAC (RFC 2202 / RFC 4231 vectors) ---------------------------------------------


def test_hmac_sha1_rfc2202_case1():
    assert hmac_sha1(b"\x0b" * 20, b"Hi There").hex() == (
        "b617318655057264e28bc0b6fb378c8ef146be00"
    )


def test_hmac_sha1_rfc2202_case2():
    assert hmac_sha1(b"Jefe", b"what do ya want for nothing?").hex() == (
        "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    )


def test_hmac_sha1_long_key_hashed_first():
    # RFC 2202 case 6: 80-byte key
    key = b"\xaa" * 80
    msg = b"Test Using Larger Than Block-Size Key - Hash Key First"
    assert hmac_sha1(key, msg).hex() == "aa4ae5e15272d00e95705637ce8a3b55ed402112"


def test_hmac_sha256_rfc4231_case1():
    assert hmac_sha256(b"\x0b" * 20, b"Hi There").hex() == (
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    )


@given(st.binary(max_size=100), st.binary(max_size=200))
def test_hmac_matches_stdlib(key, msg):
    import hashlib
    import hmac as stdlib_hmac

    assert hmac_digest(key, msg, "sha1") == stdlib_hmac.new(
        key, msg, hashlib.sha1
    ).digest()


@pytest.mark.parametrize("suite", SUITES.values(), ids=lambda s: s.name)
@given(key=st.binary(min_size=1, max_size=80), aad=st.binary(max_size=3),
       payloads=st.lists(st.binary(max_size=200), min_size=1, max_size=3))
def test_record_mac_is_hmac_of_seq_aad_payload(suite, key, aad, payloads):
    """A direction's keyed MAC is HMAC(key, seq || aad || payload) for
    every suite, record after record (under the null cipher the sealed
    record is the payload followed by its MAC)."""
    sender = Direction(suite, NullCipherState(), key)
    receiver = Direction(suite, NullCipherState(), key)
    for seq, payload in enumerate(payloads):
        record = sender.seal(payload, aad)
        assert record == payload + suite.mac.compute(
            key, seq.to_bytes(8, "big") + aad + payload)
        assert receiver.open(record, aad) == payload


def test_constant_time_equal():
    assert constant_time_equal(b"same", b"same")
    assert not constant_time_equal(b"same", b"samx")
    assert not constant_time_equal(b"short", b"longer")
    assert not constant_time_equal(b"", b"x")
    assert constant_time_equal(b"", b"")


# -- PKCS#7 -------------------------------------------------------------------------


def test_pkcs7_full_block_when_aligned():
    padded = pkcs7_pad(b"x" * 16, 16)
    assert len(padded) == 32 and padded[-1] == 16


@pytest.mark.parametrize(
    "bad",
    [
        b"",  # empty
        b"x" * 15,  # not block aligned
        b"x" * 15 + b"\x00",  # zero pad byte
        b"x" * 15 + b"\x11",  # pad > block
        b"x" * 14 + b"\x01\x02",  # inconsistent pad bytes
    ],
)
def test_pkcs7_unpad_rejects_bad_padding(bad):
    with pytest.raises(PaddingError):
        pkcs7_unpad(bad, 16)


@given(st.binary(max_size=100), st.integers(min_value=1, max_value=32))
def test_pkcs7_roundtrip_property(data, block):
    padded = pkcs7_pad(data, block)
    assert len(padded) % block == 0
    assert len(padded) > len(data)
    assert pkcs7_unpad(padded, block) == data


# -- FastXorState: the benchmark stand-in's keystream -----------------------------


PAD_LEN = FastXorState.PAD_LEN
KEY, IV = b"k" * 32, b"i" * 16


def _reference_pad(material: bytes, n: int = PAD_LEN):
    """The keyed pad as ``Generator.integers`` draws it, independent of
    how the state draws its own: PCG64 seeded with SHA-256(material)'s
    first 8 bytes, big-endian."""
    seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
    return np.random.Generator(np.random.PCG64(seed)).integers(0, 256, n, np.uint8)


REFERENCE = _reference_pad(KEY + IV)


def _tiled_xor(data, off, pad=REFERENCE):
    """The reference keystream: the whole pad tiled over the record."""
    n = len(data)
    start = off % len(pad)
    reps = (start + n + len(pad) - 1) // len(pad)
    keystream = np.tile(pad, reps)[start : start + n]
    return np.bitwise_xor(np.frombuffer(data, dtype=np.uint8), keystream).tobytes()


def test_fast_xor_keystream_equals_tiled_pad_at_every_wrap():
    lengths = [0, 1, PAD_LEN - 1, PAD_LEN, PAD_LEN + 1, 3 * PAD_LEN + 7]
    offsets = [0, 1, PAD_LEN - 1, PAD_LEN, PAD_LEN + 1, 5 * PAD_LEN - 3, 7 * PAD_LEN + 12345]
    for fresh in (False, True):  # one state that has grown, and one per pairing
        state = FastXorState(KEY, IV)
        for n in lengths:
            data = bytes(i * 31 % 251 for i in range(n))
            for off in offsets:  # every pairing: ends before, at, and past the pad's end
                if fresh:
                    state = FastXorState(KEY, IV)
                out, new_off = state._xor(data, off)
                assert out == _tiled_xor(data, off), (n, off, fresh)
                assert new_off == off + n


def test_fast_xor_streams_stay_in_step_over_mixed_records():
    sender = FastXorState(KEY, IV)
    receiver = FastXorState(KEY, IV)
    rng = random.Random(17)
    sizes = [0, 1, 100, 4096, 32 * 1024 + 20, PAD_LEN, 3 * PAD_LEN + 7]
    off = 0
    for _ in range(1000):
        record = rng.randbytes(rng.choice(sizes) if rng.random() < 0.3 else rng.randrange(300))
        sealed = sender.encrypt(record)
        assert sealed == _tiled_xor(record, off)
        assert receiver.decrypt(sealed) == record
        off += len(record)
    assert sender._enc_off == receiver._dec_off == off


_RECORD_SIZES = st.one_of(
    st.integers(0, 64),
    st.integers(0, 3 * PAD_LEN),
    st.sampled_from([7, 8, 9, PAD_LEN - 1, PAD_LEN, PAD_LEN + 1]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_RECORD_SIZES, max_size=12))
def test_fast_xor_keystream_equals_reference_across_growth_and_wrap(sizes):
    """Sealing zeros exposes the keystream: whatever sequence of records
    makes the pad grow (from nothing, to twice what they reach) and wrap,
    each one is keyed by the reference pad at its offset."""
    state = FastXorState(KEY, IV)
    off = 0
    for n in sizes:
        assert state.encrypt(bytes(n)) == _tiled_xor(bytes(n), off), (sizes, n, off)
        off += n


def test_fast_xor_draws_nothing_until_it_seals_and_never_past_one_pad(monkeypatch):
    from repro.crypto import suites

    drawn = []

    def counting(source, nbytes):
        pad = draw_pad(source, nbytes)
        drawn.append(len(pad))
        return pad

    monkeypatch.setattr(suites, "draw_pad", counting)
    c2s, s2c = suites.derive_directions(SUITES["aes-256-cbc-sha1"], b"secret",
                                        "label", fast=True)
    c2s.cipher_state.encrypt(b"")
    assert drawn == []  # a session that seals nothing pays for no pad
    c2s.seal(b"x" * 19)  # 19 bytes + a 20-byte MAC: twice that, in whole words
    assert drawn == [80]
    c2s.seal(b"y")  # 60 bytes reached: inside the spare
    assert drawn == [80]
    c2s.seal(b"z" * 30)  # 110 reached: drawn out to 220, 224 in whole words
    assert drawn == [80, 144]
    for _ in range(100):
        c2s.seal(b"z" * 5000)
    assert sum(drawn) == PAD_LEN  # whole once, then only reused
    c2s.seal(b"w" * 3 * PAD_LEN)  # wraps the whole pad
    s2c.cipher_state.decrypt(b"")  # the other direction opens nothing
    assert sum(drawn) == PAD_LEN


def test_block_cryptor_pads_equal_the_reference_at_any_length():
    key = b"s" * 32
    cryptor = BlockCryptor(key)
    for n in (1, 7, 9, 13, 4095, 32767, 32769):
        for fileid, block in ((1, 0), (42, 3)):
            material = key + struct.pack(">QQ", fileid, block)
            assert cryptor.seal(fileid, block, bytes(n)) == \
                _reference_pad(material, n).tobytes(), (n, fileid, block)
