"""RSA, DRBG, hybrid encryption, cipher suites."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import Drbg, CryptoError, generate_keypair
from repro.crypto.hybrid import open_sealed, seal
from repro.crypto import rsa
from repro.crypto.rsa import RsaPublicKey, generate_prime, is_probable_prime
from repro.crypto.suites import (
    SUITE_AES_SHA,
    SUITE_NULL_SHA,
    SUITE_PLAIN,
    SUITE_RC4_SHA,
    SUITES,
    derive_key_block,
)

KEYS = generate_keypair(768, Drbg("test-keys"))
OTHER = generate_keypair(768, Drbg("other-keys"))


# -- DRBG -----------------------------------------------------------------------


def test_drbg_deterministic():
    assert Drbg("seed").randbytes(64) == Drbg("seed").randbytes(64)
    assert Drbg("seed").randbytes(64) != Drbg("other").randbytes(64)


def test_drbg_fork_independent_streams():
    root = Drbg("root")
    a = root.fork("a")
    b = root.fork("b")
    assert a.randbytes(32) != b.randbytes(32)
    # fork labels are stable regardless of consumption order
    assert Drbg("root").fork("a").randbytes(32) == Drbg("root").fork("a").randbytes(32)


def test_drbg_snapshot_restore_roundtrip():
    rng = Drbg("snap")
    rng.randbytes(5)  # leaves 27 bytes in the pool
    state = rng.snapshot()
    hash(state)
    first = rng.randbytes(100)
    assert rng.snapshot() != state
    rng.restore(state)
    assert rng.snapshot() == state
    assert rng.randbytes(100) == first
    other = Drbg("unrelated")
    other.restore(state)
    assert other.randbytes(100) == first
    assert Drbg("snap").snapshot() == Drbg("snap").snapshot() != state


def test_drbg_accepts_int_and_bytes_seeds():
    assert Drbg(12345).randbytes(8) == Drbg(12345).randbytes(8)
    assert Drbg(b"raw").randbytes(8) == Drbg(b"raw").randbytes(8)


def test_drbg_randrange_bounds():
    rng = Drbg("ranges")
    values = [rng.randrange(5, 15) for _ in range(500)]
    assert min(values) >= 5 and max(values) < 15
    assert len(set(values)) == 10  # all values hit over 500 draws


def test_drbg_randint_inclusive():
    rng = Drbg("randint")
    values = {rng.randint(0, 3) for _ in range(200)}
    assert values == {0, 1, 2, 3}


def test_drbg_empty_range_rejected():
    with pytest.raises(ValueError):
        Drbg("x").randrange(5, 5)


def test_drbg_shuffle_is_permutation():
    rng = Drbg("shuffle")
    items = list(range(50))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_drbg_choice():
    assert Drbg("c").choice([7]) == 7
    with pytest.raises(IndexError):
        Drbg("c").choice([])


def test_drbg_random_unit_interval():
    rng = Drbg("float")
    for _ in range(100):
        x = rng.random()
        assert 0.0 <= x < 1.0


# -- primality / keygen ------------------------------------------------------------


def test_small_primes_recognized():
    rng = Drbg("prime-test")
    for p in (2, 3, 5, 7, 97, 101):
        assert is_probable_prime(p, rng)
    for c in (0, 1, 4, 100, 561, 1105):  # includes Carmichael numbers
        assert not is_probable_prime(c, rng)


def test_generate_prime_has_top_bits_set():
    p = generate_prime(128, Drbg("p"))
    assert p.bit_length() == 128 and p % 2 == 1


def test_keypair_modulus_size():
    assert KEYS.public.n.bit_length() == 768
    assert KEYS.public.size_bytes == 96


def test_keygen_deterministic_from_seed():
    a = generate_keypair(512, Drbg("same"))
    b = generate_keypair(512, Drbg("same"))
    assert a.public.n == b.public.n


def test_keygen_rejects_tiny_modulus():
    with pytest.raises(CryptoError):
        generate_keypair(128, Drbg("tiny"))


def _partly_consumed(label, skip):
    rng = Drbg("memo").fork(label)
    if skip:
        rng.randbytes(skip)
    return rng


@pytest.mark.parametrize("label,bits,skip", [
    ("ca", 512, 0), ("user3", 512, 7), ("delegate5:2", 768, 0),
    ("delegate5:3", 768, 33), ("server", 1024, 13),
])
def test_memoised_keygen_equals_the_search(monkeypatch, label, bits, skip):
    monkeypatch.setattr(rsa, "_KEYPAIR_MEMO", {})
    twin = _partly_consumed(label, skip)
    reference = rsa._search_keypair(bits, twin, 65537)
    after = twin.randbytes(64)
    for _ in range(2):  # a miss, then a hit
        rng = _partly_consumed(label, skip)
        assert bool(rng.snapshot()[2]) == bool(skip % 32)  # pool non-empty
        assert generate_keypair(bits, rng) == reference
        assert rng.randbytes(64) == after
        assert len(rsa._KEYPAIR_MEMO) == 1
    assert generate_keypair(bits, _partly_consumed(label, skip)) is \
        generate_keypair(bits, _partly_consumed(label, skip))


def test_memo_keyed_on_state_bits_and_exponent(monkeypatch):
    monkeypatch.setattr(rsa, "_KEYPAIR_MEMO", {})
    base = generate_keypair(512, Drbg("k"))
    moved = Drbg("k")
    moved.randbytes(1)
    others = [
        generate_keypair(512, Drbg("k2")),
        generate_keypair(512, moved),
        generate_keypair(520, Drbg("k")),
        generate_keypair(512, Drbg("k"), e=3),
    ]
    assert len(rsa._KEYPAIR_MEMO) == 5
    assert len({k.public.n for k in [base] + others}) == 5
    assert others[2].public.n.bit_length() == 520 and others[3].public.e == 3
    with pytest.raises(CryptoError):  # a failed search stores nothing
        generate_keypair(128, Drbg("k"))
    assert len(rsa._KEYPAIR_MEMO) == 5


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(rsa, "_KEYPAIR_MEMO", {})
    monkeypatch.setattr(rsa, "_KEYPAIR_MEMO_MAX", 3)
    keys = [generate_keypair(256, Drbg(f"bound{i}")) for i in range(5)]
    assert len(rsa._KEYPAIR_MEMO) == 3
    # oldest went first; an evicted label is searched again, same key
    assert generate_keypair(256, Drbg("bound4")) is keys[4]
    again = generate_keypair(256, Drbg("bound0"))
    assert again == keys[0] and again is not keys[0]
    assert len(rsa._KEYPAIR_MEMO) == 3


def test_modinv_large_operands_and_non_invertible():
    # 2048-bit operands: deep enough to overflow a recursive egcd
    rng = Drbg("modinv")
    for _ in range(20):
        m = rng.getrandbits(2048) | (1 << 2047)
        a = rng.getrandbits(2048) | (1 << 2047)
        if math.gcd(a, m) == 1:
            inv = rsa._modinv(a, m)
            assert 0 <= inv < m and (a * inv) % m == 1
        else:
            with pytest.raises(CryptoError, match="no modular inverse"):
                rsa._modinv(a, m)
    mersenne = (1 << 2203) - 1
    assert (rsa._modinv(65537, mersenne) * 65537) % mersenne == 1
    with pytest.raises(CryptoError, match="no modular inverse"):
        rsa._modinv(6, 9)
    with pytest.raises(CryptoError, match="no modular inverse"):
        rsa._modinv(2 * mersenne, 4 * mersenne)


def test_private_op_matches_plain_exponentiation():
    m = int.from_bytes(Drbg("crt").randbytes(90), "big")
    assert KEYS._private_op(m) == pow(m, KEYS.d, KEYS.public.n)
    dp, dq, qinv = KEYS._crt
    assert (dp, dq) == (KEYS.d % (KEYS.p - 1), KEYS.d % (KEYS.q - 1))
    assert (qinv * KEYS.q) % KEYS.p == 1
    assert KEYS == rsa.RsaKeyPair(KEYS.public, KEYS.d, KEYS.p, KEYS.q)  # cache is not a field


# -- sign / verify --------------------------------------------------------------------


def test_sign_verify_roundtrip():
    sig = KEYS.sign(b"message")
    assert KEYS.public.verify(b"message", sig)


def test_verify_rejects_modified_message():
    sig = KEYS.sign(b"message")
    assert not KEYS.public.verify(b"messagX", sig)


def test_verify_rejects_modified_signature():
    sig = bytearray(KEYS.sign(b"message"))
    sig[0] ^= 1
    assert not KEYS.public.verify(b"message", bytes(sig))


def test_verify_rejects_wrong_key():
    sig = KEYS.sign(b"message")
    assert not OTHER.public.verify(b"message", sig)


def test_verify_rejects_wrong_length_signature():
    assert not KEYS.public.verify(b"m", b"\x00" * 10)


# -- encrypt / decrypt -------------------------------------------------------------------


def test_encrypt_decrypt_roundtrip():
    ct = KEYS.public.encrypt(b"secret", Drbg("e"))
    assert KEYS.decrypt(ct) == b"secret"


def test_decrypt_with_wrong_key_fails():
    ct = KEYS.public.encrypt(b"secret", Drbg("e"))
    with pytest.raises(CryptoError):
        OTHER.decrypt(ct)


def test_encrypt_too_long_rejected():
    with pytest.raises(CryptoError):
        KEYS.public.encrypt(b"x" * (KEYS.public.size_bytes - 10), Drbg("e"))


def test_public_key_serialization_roundtrip():
    data = KEYS.public.to_bytes()
    back = RsaPublicKey.from_bytes(data)
    assert back == KEYS.public
    with pytest.raises(CryptoError):
        RsaPublicKey.from_bytes(data[:-2])


# -- hybrid ---------------------------------------------------------------------------------


def test_hybrid_roundtrip():
    blob = seal(b"delegated credential bytes", KEYS.public, Drbg("h"))
    assert open_sealed(blob, KEYS) == b"delegated credential bytes"


def test_hybrid_hides_plaintext():
    blob = seal(b"VISIBLE-MARKER" * 5, KEYS.public, Drbg("h"))
    assert b"VISIBLE-MARKER" not in blob


def test_hybrid_tamper_detected():
    blob = bytearray(seal(b"payload", KEYS.public, Drbg("h")))
    blob[-1] ^= 1  # flip a MAC bit
    with pytest.raises(CryptoError):
        open_sealed(bytes(blob), KEYS)


def test_hybrid_wrong_recipient_fails():
    blob = seal(b"payload", KEYS.public, Drbg("h"))
    with pytest.raises(CryptoError):
        open_sealed(blob, OTHER)


def test_hybrid_truncated_rejected():
    with pytest.raises(CryptoError):
        open_sealed(b"\x00\x00", KEYS)


# -- cipher suites ------------------------------------------------------------------------------


@pytest.mark.parametrize("suite", [SUITE_NULL_SHA, SUITE_RC4_SHA, SUITE_AES_SHA])
@pytest.mark.parametrize("fast", [False, True])
def test_suite_cipher_roundtrip(suite, fast):
    key = bytes(range(suite.cipher.key_len))
    iv = bytes(suite.cipher.iv_len)
    enc = suite.cipher.new_state(key, iv, fast)
    dec = suite.cipher.new_state(key, iv, fast)
    for message in (b"first message", b"x" * 1000, b"third"):
        ct = enc.encrypt(message)
        if suite.cipher.name != "null":
            assert ct != message
        assert dec.decrypt(ct) == message


def test_suite_key_length_enforced():
    with pytest.raises(ValueError):
        SUITE_AES_SHA.cipher.new_state(b"short", b"\x00" * 16, False)


def test_suite_registry_contents():
    assert set(SUITES) == {
        "null-sha1", "rc4-128-sha1", "aes-256-cbc-sha1", "plaintext",
    }
    assert SUITE_PLAIN.cycles_per_byte == 0.0
    assert SUITE_AES_SHA.cycles_per_byte > SUITE_RC4_SHA.cycles_per_byte


def test_key_block_derivation_deterministic_and_labelled():
    a = derive_key_block(b"master", "label one", 100)
    assert len(a) == 100
    assert a == derive_key_block(b"master", "label one", 100)
    assert a != derive_key_block(b"master", "label two", 100)
    assert a != derive_key_block(b"other!", "label one", 100)


@settings(max_examples=20)
@given(st.binary(min_size=1, max_size=2048))
def test_fast_state_roundtrip_property(data):
    enc = SUITE_AES_SHA.cipher.new_state(b"k" * 32, b"i" * 16, True)
    dec = SUITE_AES_SHA.cipher.new_state(b"k" * 32, b"i" * 16, True)
    assert dec.decrypt(enc.encrypt(data)) == data
