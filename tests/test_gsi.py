"""GSI layer: DNs, certificates, chains, delegation, gridmaps."""

from dataclasses import replace

import pytest

from repro.crypto.drbg import Drbg
from repro.crypto.rsa import generate_keypair
from repro.gsi import (
    Certificate,
    CertificateAuthority,
    DistinguishedName,
    Gridmap,
    GridmapError,
    ValidationError,
    effective_identity,
    issue_proxy_certificate,
)
from repro.gsi.certs import Credential, validate_chain
from repro.gsi.gridmap import UnmappedPolicy
from repro.gsi.names import DnError

CA = CertificateAuthority(
    DistinguishedName.parse("/C=US/O=TestCA/CN=Root"), rng=Drbg("ca"), key_bits=768
)
ALICE = CA.issue_identity(
    DistinguishedName.parse("/C=US/O=Lab/CN=Alice"), rng=Drbg("alice"), key_bits=768
)


# -- distinguished names -------------------------------------------------------


def test_dn_parse_format_roundtrip():
    text = "/C=US/O=UFL/OU=ACIS/CN=Ming Zhao"
    assert str(DistinguishedName.parse(text)) == text


def test_dn_make_orders_canonically():
    dn = DistinguishedName.make(CN="X", C="US", O="Org")
    assert str(dn) == "/C=US/O=Org/CN=X"


def test_dn_common_name_uses_last_cn():
    dn = DistinguishedName.parse("/O=X/CN=base/CN=proxy")
    assert dn.common_name == "proxy"


@pytest.mark.parametrize(
    "bad", ["no-slash", "/", "/CN=", "/BOGUS=x", "/CN=a/b=c", ""]
)
def test_dn_malformed_rejected(bad):
    with pytest.raises(DnError):
        DistinguishedName.parse(bad)


def test_dn_child_and_prefix():
    base = DistinguishedName.parse("/O=X/CN=alice")
    child = base.child("CN", "proxy")
    assert str(child) == "/O=X/CN=alice/CN=proxy"
    assert base.is_prefix_of(child)
    assert not child.is_prefix_of(base)
    assert child.parent() == base


# -- certificates & chains -----------------------------------------------------------


def test_ca_certificate_is_self_signed_ca():
    cert = CA.certificate
    assert cert.self_signed and cert.is_ca
    assert cert.verify_signature(CA.keypair.public)


def test_issue_and_validate_identity():
    identity = validate_chain(ALICE.certificate, ALICE.chain, [CA.certificate], now=1.0)
    assert str(identity) == "/C=US/O=Lab/CN=Alice"


def test_certificate_serialization_roundtrip():
    data = ALICE.certificate.to_bytes()
    back = Certificate.from_bytes(data)
    assert back == ALICE.certificate


def test_certificate_encodings_built_once_per_object():
    cert = ALICE.certificate
    assert cert.to_bytes() is cert.to_bytes()
    assert cert.tbs_bytes() is cert.tbs_bytes()
    # a parsed copy encodes its own fields, to the same bytes
    back = Certificate.from_bytes(cert.to_bytes())
    assert back.tbs_bytes() is not cert.tbs_bytes()
    assert back.tbs_bytes() == cert.tbs_bytes()
    # an edited copy is a new object: its encoding follows the edit
    forged = replace(cert, not_after=1e15)
    assert forged.tbs_bytes() != cert.tbs_bytes()
    assert not forged.verify_signature(CA.keypair.public)


def test_validation_rejects_expired():
    with pytest.raises(ValidationError, match="expired"):
        validate_chain(ALICE.certificate, ALICE.chain, [CA.certificate], now=1e12)


def test_validation_rejects_tampered_fields():
    forged = replace(ALICE.certificate, not_after=1e15)
    with pytest.raises(ValidationError):
        validate_chain(forged, ALICE.chain, [CA.certificate], now=1.0)


def test_validation_rejects_untrusted_ca():
    rogue = CertificateAuthority(
        DistinguishedName.parse("/O=Rogue/CN=CA"), rng=Drbg("rogue"), key_bits=768
    )
    mallory = rogue.issue_identity(
        DistinguishedName.parse("/O=Rogue/CN=Mallory"), key_bits=768
    )
    with pytest.raises(ValidationError):
        validate_chain(mallory.certificate, mallory.chain, [CA.certificate], now=1.0)


def test_validation_rejects_non_ca_signer():
    # Alice (not a CA) signs a certificate for Eve.
    eve_keys = generate_keypair(768, Drbg("eve"))
    cert = Certificate(
        subject=DistinguishedName.parse("/O=Lab/CN=Eve"),
        issuer=ALICE.dn,
        public_key=eve_keys.public,
        serial=99999,
        not_before=0.0,
        not_after=1e9,
    )
    cert = replace(cert, signature=ALICE.keypair.sign(cert.tbs_bytes()))
    with pytest.raises(ValidationError, match="not a CA"):
        validate_chain(cert, [ALICE.certificate], [CA.certificate], now=1.0)


def test_credential_serialization_roundtrip():
    data = ALICE.to_bytes()
    back = Credential.from_bytes(data)
    assert back.dn == ALICE.dn
    assert back.keypair.d == ALICE.keypair.d
    assert back.chain == tuple(ALICE.chain)


# -- delegation -----------------------------------------------------------------------


def test_proxy_certificate_validates_as_user():
    proxy = issue_proxy_certificate(ALICE, now=1.0, rng=Drbg("p"), key_bits=768)
    assert proxy.certificate.is_proxy
    identity = validate_chain(proxy.certificate, proxy.chain, [CA.certificate], now=2.0)
    assert identity == ALICE.dn


def test_proxy_lifetime_enforced():
    proxy = issue_proxy_certificate(
        ALICE, now=0.0, lifetime=100.0, rng=Drbg("p"), key_bits=768
    )
    validate_chain(proxy.certificate, proxy.chain, [CA.certificate], now=50.0)
    with pytest.raises(ValidationError):
        validate_chain(proxy.certificate, proxy.chain, [CA.certificate], now=200.0)


def test_proxy_signed_by_wrong_key_rejected():
    proxy = issue_proxy_certificate(ALICE, now=0.0, rng=Drbg("p"), key_bits=768)
    bob = CA.issue_identity(
        DistinguishedName.parse("/O=Lab/CN=Bob"), rng=Drbg("bob"), key_bits=768
    )
    # claim the proxy chains through Bob instead of Alice
    forged = replace(proxy.certificate, issuer=bob.dn)
    forged = replace(
        forged,
        subject=bob.dn.child("CN", "proxy"),
    )
    with pytest.raises(ValidationError):
        validate_chain(forged, (bob.certificate,) + tuple(bob.chain), [CA.certificate], now=1.0)


def test_effective_identity_strips_proxy_components():
    base = DistinguishedName.parse("/O=Lab/CN=alice")
    double = base.child("CN", "proxy").child("CN", "proxy")
    assert effective_identity(double) == base
    assert effective_identity(base) == base


# -- gridmap -----------------------------------------------------------------------------


def test_gridmap_parse_and_lookup():
    gm = Gridmap.parse(
        '# comment line\n'
        '"/C=US/O=Lab/CN=Alice" alice\n'
        '\n'
        '"/C=US/O=Lab/CN=Bob" bob\n'
    )
    assert len(gm) == 2
    assert gm.lookup(DistinguishedName.parse("/C=US/O=Lab/CN=Alice")) == "alice"
    assert gm.lookup(DistinguishedName.parse("/C=US/O=Lab/CN=Nobody")) is None


def test_gridmap_anonymous_policy():
    gm = Gridmap.parse('"/O=Lab/CN=Alice" alice', unmapped=UnmappedPolicy.ANONYMOUS)
    assert gm.lookup(DistinguishedName.parse("/O=Lab/CN=Stranger")) == "nobody"


@pytest.mark.parametrize(
    "bad",
    [
        "/O=Lab/CN=X alice",  # unquoted DN
        '"/O=Lab/CN=X',  # unterminated quote
        '"/O=Lab/CN=X"',  # missing account
        '"/O=Lab/CN=X" two words',  # account with space
        '"not-a-dn" alice',  # invalid DN
    ],
)
def test_gridmap_malformed_rejected(bad):
    with pytest.raises((GridmapError, DnError)):
        Gridmap.parse(bad)


def test_gridmap_dump_parse_roundtrip():
    gm = Gridmap()
    gm.add(DistinguishedName.parse("/O=Lab/CN=Alice"), "alice")
    gm.add(DistinguishedName.parse("/O=Lab/CN=Bob"), "bob")
    again = Gridmap.parse(gm.dump())
    assert again.entries == gm.entries


def test_gridmap_add_remove():
    gm = Gridmap()
    dn = DistinguishedName.parse("/O=Lab/CN=Carol")
    gm.add(dn, "carol")
    assert gm.lookup(dn) == "carol"
    gm.remove(dn)
    assert gm.lookup(dn) is None


def test_gridmap_duplicate_dn_last_line_wins():
    gm = Gridmap.parse(
        '"/O=Lab/CN=Alice" alice\n'
        '"/O=Lab/CN=Bob" bob\n'
        '"/O=Lab/CN=Alice" ops\n'
    )
    assert len(gm) == 2
    assert gm.lookup(DistinguishedName.parse("/O=Lab/CN=Alice")) == "ops"


def test_gridmap_anonymous_account_need_not_exist():
    # The anonymous target is just a name; resolution/creation against
    # a real accounts database is the proxy's job (AuthzCache.ensure).
    gm = Gridmap(unmapped=UnmappedPolicy.ANONYMOUS, anonymous_account="grid-anon")
    assert gm.lookup(DistinguishedName.parse("/O=Lab/CN=Stranger")) == "grid-anon"
    # A mapped DN is never demoted to the anonymous account.
    gm.add(DistinguishedName.parse("/O=Lab/CN=Alice"), "alice")
    assert gm.lookup(DistinguishedName.parse("/O=Lab/CN=Alice")) == "alice"


def test_gridmap_lookup_str_matches_lookup():
    gm = Gridmap.parse('"/O=Lab/CN=Alice" alice')
    dn = DistinguishedName.parse("/O=Lab/CN=Alice")
    assert gm.lookup_str(str(dn)) == gm.lookup(dn) == "alice"
    assert gm.lookup_str("/O=Lab/CN=Nobody") is None


def test_gridmap_epoch_counts_every_mutation():
    gm = Gridmap()
    dn = DistinguishedName.parse("/O=Lab/CN=Carol")
    assert gm.epoch == 0
    gm.add(dn, "carol")
    assert gm.epoch == 1
    gm.remove(dn)
    assert gm.epoch == 2
    # Removing an unknown DN still bumps: the mutation *attempt* is the
    # invalidation event for layered caches.
    gm.remove(dn)
    assert gm.epoch == 3
    assert gm.lookup(dn) is None
