"""Accounts DB, session config files, the at-rest cryptofs extension."""

import pytest

from repro.crypto.drbg import Drbg
from repro.proxy.accounts import Account, AccountsDb
from repro.proxy.cryptofs import AtRestIntegrityError, BlockCryptor
from repro.proxy.session_config import ConfigError, SessionConfig


# -- accounts -------------------------------------------------------------------


def test_accounts_fixtures_present():
    db = AccountsDb()
    assert db.lookup("root").uid == 0
    assert db.lookup("nobody").uid == 65534


def test_accounts_add_and_lookup():
    db = AccountsDb()
    db.add(Account("ming", 901, 901, groups=(100,)))
    assert db.lookup("ming").gid == 901
    assert db.lookup_uid(901).name == "ming"
    assert "ming" in db and "ghost" not in db


def test_accounts_duplicates_rejected():
    db = AccountsDb()
    db.add(Account("a", 1000, 1000))
    with pytest.raises(ValueError):
        db.add(Account("a", 1001, 1001))
    with pytest.raises(ValueError):
        db.add(Account("b", 1000, 1000))


def test_accounts_ensure_allocates_on_demand():
    db = AccountsDb()
    acct = db.ensure("griduser42")
    assert acct.uid >= 1000
    assert db.ensure("griduser42") is acct  # idempotent
    other = db.ensure("griduser43")
    assert other.uid != acct.uid


# -- session config ----------------------------------------------------------------


CONFIG_TEXT = """
# security section
suite = rc4-128-sha1
user_cert = alice-proxy
host_cert = fileserver
trusted_cas = gridca, campusca
renegotiate_interval = 3600

# cache section
cache = on
cache.write_back = on
cache.block_size = 16384
cache.capacity = 1048576
"""


def test_config_parse_full():
    cfg = SessionConfig.parse(CONFIG_TEXT)
    assert cfg.suite == "rc4-128-sha1"
    assert cfg.user_cert == "alice-proxy"
    assert cfg.trusted_cas == ("gridca", "campusca")
    assert cfg.renegotiate_interval == 3600.0
    assert cfg.cache.enabled and cfg.cache.write_back
    assert cfg.cache.block_size == 16384
    assert cfg.cache.capacity_bytes == 1048576


def test_config_defaults():
    cfg = SessionConfig.parse("")
    assert cfg.suite == "aes-256-cbc-sha1"
    assert not cfg.cache.enabled
    assert cfg.renegotiate_interval is None


@pytest.mark.parametrize(
    "bad",
    ["just words no equals", "cache = maybe", "cache.block_size = big"],
)
def test_config_malformed_rejected(bad):
    with pytest.raises(ConfigError):
        SessionConfig.parse(bad)


def test_config_diff_detects_changes():
    a = SessionConfig.parse("suite = null-sha1")
    b = SessionConfig.parse("suite = aes-256-cbc-sha1\ncache = on")
    changes = a.diff(b)
    assert "suite" in changes and "cache" in changes
    assert a.diff(a) == {}


# -- at-rest cryptofs (§7 future work) ------------------------------------------------


@pytest.fixture
def cryptor():
    return BlockCryptor(Drbg("session-key").randbytes(32))


def test_seal_open_roundtrip(cryptor):
    pt = b"plaintext block" * 100
    ct = cryptor.seal(5, 0, pt)
    assert len(ct) == len(pt)  # length-preserving: NFS offsets unchanged
    assert ct != pt
    assert cryptor.open(5, 0, ct) == pt


def test_ciphertext_differs_per_block(cryptor):
    pt = b"same plaintext"
    assert cryptor.seal(1, 0, pt) != cryptor.seal(1, 1, pt)
    assert cryptor.seal(1, 0, pt) != cryptor.seal(2, 0, pt)


def test_tamper_detected(cryptor):
    ct = bytearray(cryptor.seal(7, 3, b"protected data"))
    ct[5] ^= 0x80
    with pytest.raises(AtRestIntegrityError):
        cryptor.open(7, 3, bytes(ct))


def test_unknown_block_opens_without_mac(cryptor):
    """Blocks we never sealed (pre-existing server data) decrypt
    best-effort — the MAC store only covers what the session wrote."""
    other = BlockCryptor(Drbg("session-key").randbytes(32))
    ct = other.seal(9, 9, b"from another instance")
    assert cryptor.open(9, 9, ct) == b"from another instance"


def test_forget_file_clears_macs(cryptor):
    cryptor.seal(4, 0, b"a")
    cryptor.seal(4, 1, b"b")
    cryptor.seal(5, 0, b"c")
    cryptor.forget_file(4)
    assert all(fid != 4 for fid, _b in cryptor.mac_store)
    assert (5, 0) in cryptor.mac_store


def test_wrong_session_key_garbles():
    a = BlockCryptor(Drbg("key-a").randbytes(32))
    b = BlockCryptor(Drbg("key-b").randbytes(32))
    ct = a.seal(1, 0, b"for session a only")
    assert b.open(1, 0, ct) != b"for session a only"


def test_short_session_key_rejected():
    with pytest.raises(ValueError):
        BlockCryptor(b"short")
