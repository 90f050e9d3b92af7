"""Population-scale control plane: authz cache, SSO delegation, churn."""

import base64
from dataclasses import replace

import pytest

from repro.core.setups import CA_DN, FILE_ACCOUNT, SERVER_DN, USER_DN
from repro.core.topology import Testbed
from repro.crypto.drbg import Drbg
from repro.crypto.hybrid import open_sealed
from repro.gsi import (
    CertificateAuthority,
    DistinguishedName,
    Gridmap,
    effective_identity,
    is_limited_proxy,
    issue_proxy_certificate,
)
from repro.gsi.certs import Credential, validate_chain
from repro.gsi.gridmap import UnmappedPolicy
from repro.harness import Scenario, run
from repro.proxy.accounts import AccountsDb
from repro.proxy.authz import AuthzCache
from repro.services import (
    CredentialPortal,
    DataSchedulerService,
    FileSystemService,
    MAX_PORTAL_LIFETIME,
    ServiceFault,
)
from repro.services.dss import seal_credential_for
from repro.services.endpoint import ServiceClient
from repro.workloads import SessionChurn

ALICE_DN = DistinguishedName.parse("/C=US/O=Lab/CN=Alice")
BOB_DN = DistinguishedName.parse("/C=US/O=Lab/CN=Bob")


# -- versioned authorization cache ---------------------------------------------


def _cache():
    gm = Gridmap()
    gm.add(ALICE_DN, "alice")
    accounts = AccountsDb()
    accounts.ensure("alice")
    return gm, accounts, AuthzCache(accounts)


def test_authz_cache_miss_then_hit():
    gm, accounts, cache = _cache()
    first = cache.resolve(gm, ALICE_DN)
    second = cache.resolve(gm, ALICE_DN)
    assert first is second and first.name == "alice"
    assert (cache.misses, cache.hits, cache.stale) == (1, 1, 0)


def test_authz_cache_denial_is_cached_too():
    gm, accounts, cache = _cache()
    assert cache.resolve(gm, BOB_DN) is None
    assert cache.resolve(gm, BOB_DN) is None
    assert (cache.misses, cache.hits) == (1, 1)


def test_authz_cache_lookup_immediately_after_remove():
    gm, accounts, cache = _cache()
    assert cache.resolve(gm, ALICE_DN).name == "alice"
    gm.remove(ALICE_DN)
    # No explicit purge happened, but the epoch moved: the very next
    # lookup must observe the removal, never the cached grant.
    assert cache.resolve(gm, ALICE_DN) is None
    assert cache.stale == 1


def test_authz_cache_stale_reresolves_on_remap():
    gm, accounts, cache = _cache()
    accounts.ensure("other")
    assert cache.resolve(gm, ALICE_DN).name == "alice"
    gm.add(ALICE_DN, "other")
    assert cache.resolve(gm, ALICE_DN).name == "other"
    # Re-resolution restamps: the follow-up lookup is a plain hit.
    assert cache.resolve(gm, ALICE_DN).name == "other"
    assert (cache.stale, cache.hits) == (1, 1)


def test_authz_cache_unrelated_mutation_costs_one_stale_pass():
    gm, accounts, cache = _cache()
    cache.resolve(gm, ALICE_DN)
    gm.add(BOB_DN, "alice")  # bumps the epoch for everyone
    assert cache.resolve(gm, ALICE_DN).name == "alice"
    assert cache.stale == 1


def test_authz_cache_gridmap_swap_invalidates_everything():
    gm, accounts, cache = _cache()
    cache.resolve(gm, ALICE_DN)
    replacement = Gridmap()  # reconfiguration: Alice not carried over
    assert cache.resolve(replacement, ALICE_DN) is None
    assert len(cache) == 1  # old entries gone, only the re-resolution


def test_authz_cache_anonymous_policy_creates_missing_account():
    gm = Gridmap(unmapped=UnmappedPolicy.ANONYMOUS, anonymous_account="grid-anon")
    accounts = AccountsDb()
    assert accounts.lookup("grid-anon") is None
    cache = AuthzCache(accounts)
    resolved = cache.resolve(gm, BOB_DN)
    assert resolved is not None and resolved.name == "grid-anon"
    assert resolved.uid >= 1000
    # Auto-created once, then served from the accounts db (and cache).
    assert cache.resolve(gm, BOB_DN) is resolved


def test_authz_cache_under_concurrent_fleet_mutation():
    """Interleave lookups with add/remove storms; the cache must agree
    with an uncached gridmap walk after every single mutation."""
    gm, accounts, cache = _cache()
    for name in ("acct00", "acct01", "acct02"):
        accounts.ensure(name)
    dns = [DistinguishedName.parse(f"/O=Lab/CN=User {i}") for i in range(16)]
    rng = Drbg("authz-storm")
    for step in range(200):
        roll = rng.randbytes(2)
        dn = dns[roll[0] % len(dns)]
        if roll[1] % 3 == 0:
            gm.add(dn, f"acct{roll[1] % 3:02d}")
        elif roll[1] % 3 == 1:
            gm.remove(dn)
        probe = dns[roll[1] % len(dns)]
        cached = cache.resolve(gm, probe)
        truth = gm.lookup(probe)
        assert (cached.name if cached else None) == truth
    assert cache.stale > 0 and cache.hits > 0


# -- limited (restricted) proxy semantics --------------------------------------

CA = CertificateAuthority(CA_DN, rng=Drbg("cp-ca"), key_bits=768)
CAROL = CA.issue_identity(
    DistinguishedName.parse("/C=US/O=Lab/CN=Carol"), rng=Drbg("cp-carol"), key_bits=768
)


def test_limited_proxy_marked_and_strips_to_base_identity():
    proxy = issue_proxy_certificate(
        CAROL, now=0.0, rng=Drbg("lp"), key_bits=768, limited=True
    )
    assert is_limited_proxy(proxy.certificate.subject)
    assert not is_limited_proxy(CAROL.certificate.subject)
    assert effective_identity(proxy.certificate.subject) == CAROL.dn
    identity = validate_chain(
        proxy.certificate, proxy.chain, [CA.certificate], now=1.0
    )
    assert identity == CAROL.dn


def test_limited_proxy_cannot_delegate_further():
    proxy = issue_proxy_certificate(
        CAROL, now=0.0, rng=Drbg("lp2"), key_bits=768, limited=True
    )
    with pytest.raises(Exception, match="limited"):
        issue_proxy_certificate(proxy, now=1.0, rng=Drbg("lp3"), key_bits=768)


# -- credential portal (single sign-on) ----------------------------------------


def portal_deploy():
    tb = Testbed.build()
    sim = tb.sim
    rng = Drbg("portal-deploy")
    ca = CertificateAuthority(CA_DN, rng=rng.fork("ca"), key_bits=768)
    anchors = [ca.certificate]
    portal_id = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=UFL/CN=portal"),
        rng=rng.fork("portal-id"), key_bits=768,
    )
    fss_id = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=UFL/CN=fss-client"),
        rng=rng.fork("fss-id"), key_bits=768,
    )
    user = ca.issue_identity(USER_DN, rng=rng.fork("user"), key_bits=768)
    portal = CredentialPortal(
        sim, tb.server, 5100, portal_id, anchors,
        key_bits=768, rng=rng.fork("portal"),
    )
    portal.start()
    portal.enroll(user)
    portal.register_recipient("fss", fss_id.certificate)
    return tb, rng, anchors, user, fss_id, portal, ca


def _issue(tb, client, params):
    def scenario():
        return (yield from client.call("server", 5100, "IssueProxy", params))

    return tb.run(scenario())


def test_portal_issues_short_lived_proxy_sealed_to_recipient():
    tb, rng, anchors, user, fss_id, portal, ca = portal_deploy()
    me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))
    reply = _issue(tb, me, {"recipient": "fss", "lifetime": "600"})
    blob = open_sealed(base64.b64decode(reply["credential"]), fss_id.keypair)
    cred = Credential.from_bytes(blob)
    assert effective_identity(cred.certificate.subject) == user.dn
    assert not is_limited_proxy(cred.certificate.subject)
    assert cred.certificate.not_after == float(reply["not_after"])
    assert cred.certificate.not_after <= tb.sim.now + 600.0
    validate_chain(cred.certificate, cred.chain, anchors, now=tb.sim.now)
    assert portal.proxies_issued == 1 and portal.renewals == 0


def test_portal_issues_limited_proxy_on_request():
    tb, rng, anchors, user, fss_id, portal, ca = portal_deploy()
    me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))
    reply = _issue(tb, me, {"recipient": "fss", "limited": "yes"})
    cred = Credential.from_bytes(
        open_sealed(base64.b64decode(reply["credential"]), fss_id.keypair)
    )
    assert reply["limited"] == "yes"
    assert is_limited_proxy(cred.certificate.subject)


def test_portal_caps_requested_lifetime():
    tb, rng, anchors, user, fss_id, portal, ca = portal_deploy()
    me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))
    reply = _issue(tb, me, {"recipient": "fss", "lifetime": "1e9"})
    issued_at = tb.sim.now  # portal stamped not_after before our reply returned
    assert float(reply["not_after"]) <= issued_at + MAX_PORTAL_LIFETIME


def test_portal_counts_renewals_per_identity():
    tb, rng, anchors, user, fss_id, portal, ca = portal_deploy()
    me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))
    first = _issue(tb, me, {"recipient": "fss", "lifetime": "60"})
    second = _issue(tb, me, {"recipient": "fss", "lifetime": "60"})
    # Fresh keypair per issuance: re-delegation never replays a blob.
    assert first["credential"] != second["credential"]
    assert portal.proxies_issued == 2 and portal.renewals == 1


def test_portal_denies_unenrolled_identity():
    tb, rng, anchors, user, fss_id, portal, ca = portal_deploy()
    outsider = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=Other/CN=Outsider"),
        rng=rng.fork("outsider"), key_bits=768,
    )
    me = ServiceClient(tb.sim, tb.client, outsider, anchors, rng=rng.fork("out"))

    def scenario():
        with pytest.raises(ServiceFault, match="not enrolled"):
            yield from me.call("server", 5100, "IssueProxy", {"recipient": "fss"})
        return True

    assert tb.run(scenario())
    assert portal.denials == 1 and portal.proxies_issued == 0


def test_portal_rejects_unknown_recipient_and_bad_lifetime():
    tb, rng, anchors, user, fss_id, portal, ca = portal_deploy()
    me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))

    def scenario():
        with pytest.raises(ServiceFault, match="unknown recipient"):
            yield from me.call("server", 5100, "IssueProxy", {"recipient": "ghost"})
        with pytest.raises(ServiceFault, match="lifetime"):
            yield from me.call(
                "server", 5100, "IssueProxy",
                {"recipient": "fss", "lifetime": "-5"},
            )
        return True

    assert tb.run(scenario())
    assert portal.denials == 2


def test_portal_issuance_is_deterministic():
    creds = []
    times = []
    for _ in range(2):
        tb, rng, anchors, user, fss_id, portal, ca = portal_deploy()
        me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))
        reply = _issue(tb, me, {"recipient": "fss", "lifetime": "600"})
        creds.append(Credential.from_bytes(
            open_sealed(base64.b64decode(reply["credential"]), fss_id.keypair)
        ))
        times.append(float(reply["not_after"]))
    # Same seed -> bit-identical issuance time, subject, and keys.
    # (Certificate serials come from a process-global counter, so raw
    # bytes differ across two deployments in one process; fleet-level
    # bit-identity is asserted below instead.)
    assert times[0] == times[1]
    a, b = (c.certificate for c in creds)
    assert (a.subject, a.not_before, a.not_after) == (b.subject, b.not_before, b.not_after)
    assert a.public_key == b.public_key
    assert creds[0].keypair == creds[1].keypair


# -- FSS / DSS restriction enforcement -----------------------------------------


def services_deploy(max_delegation_lifetime=None):
    tb = Testbed.build()
    sim = tb.sim
    rng = Drbg("cp-deploy")
    ca = CertificateAuthority(CA_DN, rng=rng.fork("ca"), key_bits=768)
    anchors = [ca.certificate]
    ids = {
        name: ca.issue_identity(
            DistinguishedName.parse(f"/C=US/O=UFL/CN={name}"),
            rng=rng.fork(name), key_bits=768,
        )
        for name in ("fss-server", "fss-client", "dss")
    }
    user = ca.issue_identity(USER_DN, rng=rng.fork("user"), key_bits=768)
    host_id = ca.issue_identity(SERVER_DN, rng=rng.fork("host"), key_bits=768)
    fss_server = FileSystemService(
        sim, tb.server, 5000, ids["fss-server"], anchors,
        fs=tb.fs, accounts=tb.server_accounts,
        host_credential=host_id,
    )
    fss_server.start()
    fss_client = FileSystemService(
        sim, tb.client, 5001, ids["fss-client"], anchors,
        max_delegation_lifetime=max_delegation_lifetime,
    )
    fss_client.start()
    dss = DataSchedulerService(
        sim, tb.server, 5002, ids["dss"], anchors,
        client_fss={"client": ("client", 5001, ids["fss-client"].certificate)},
    )
    dss.start()
    dss.register_filesystem(
        "/GFS/ming", "server", 5000, acl={str(USER_DN): FILE_ACCOUNT.name}
    )
    return tb, rng, anchors, user, ids, fss_server, dss


def _create_session(tb, rng, anchors, user, ids, lifetime):
    sim = tb.sim
    proxy_cred = issue_proxy_certificate(
        user, now=sim.now, lifetime=lifetime, rng=rng.fork("px"), key_bits=768
    )
    me = ServiceClient(sim, tb.client, proxy_cred, anchors, rng=rng.fork("me"))
    blob = seal_credential_for(
        proxy_cred, ids["fss-client"].certificate, rng.fork("seal")
    )

    def scenario():
        return (yield from me.call(
            "server", 5002, "CreateSession",
            {"filesystem": "/GFS/ming", "client_host": "client",
             "suite": "rc4-128-sha1", "credential": blob},
        ))

    return tb.run(scenario())


def test_fss_accepts_delegation_within_lifetime_limit():
    tb, rng, anchors, user, ids, fss_server, dss = services_deploy(
        max_delegation_lifetime=900.0
    )
    reply = _create_session(tb, rng, anchors, user, ids, lifetime=600.0)
    assert "session_id" in reply and "client_port" in reply


def test_fss_rejects_overlong_delegation():
    tb, rng, anchors, user, ids, fss_server, dss = services_deploy(
        max_delegation_lifetime=900.0
    )
    with pytest.raises(ServiceFault, match="limit"):
        _create_session(tb, rng, anchors, user, ids, lifetime=3600.0)


def test_limited_proxy_cannot_manage_acls():
    tb, rng, anchors, user, ids, fss_server, dss = services_deploy()
    limited = issue_proxy_certificate(
        user, now=tb.sim.now, rng=rng.fork("lpx"), key_bits=768, limited=True
    )
    me = ServiceClient(tb.sim, tb.client, limited, anchors, rng=rng.fork("me"))

    def scenario():
        with pytest.raises(ServiceFault, match="not authorized"):
            yield from me.call(
                "server", 5000, "SetAcl",
                {"path": "/", "name": "data", "acl": f'"{user.dn}" r'},
            )
        return True

    assert tb.run(scenario())


def test_limited_proxy_cannot_grant_or_revoke_access():
    tb, rng, anchors, user, ids, fss_server, dss = services_deploy()
    limited = issue_proxy_certificate(
        user, now=tb.sim.now, rng=rng.fork("lpx"), key_bits=768, limited=True
    )
    full = issue_proxy_certificate(
        user, now=tb.sim.now, rng=rng.fork("fpx"), key_bits=768
    )
    lim = ServiceClient(tb.sim, tb.client, limited, anchors, rng=rng.fork("lc"))
    reg = ServiceClient(tb.sim, tb.client, full, anchors, rng=rng.fork("rc"))
    friend = "/C=US/O=UFL/CN=Friend"

    def scenario():
        for action in ("GrantAccess", "RevokeAccess"):
            with pytest.raises(ServiceFault, match="not authorized"):
                yield from lim.call(
                    "server", 5002, action,
                    {"filesystem": "/GFS/ming", "dn": friend, "account": "ming"},
                )
        # The unrestricted proxy of the very same user may share, and
        # take the share back.
        yield from reg.call(
            "server", 5002, "GrantAccess",
            {"filesystem": "/GFS/ming", "dn": friend, "account": "ming"},
        )
        granted = dss.gridmap_for("/GFS/ming").dump()
        yield from reg.call(
            "server", 5002, "RevokeAccess", {"filesystem": "/GFS/ming", "dn": friend},
        )
        return granted, dss.gridmap_for("/GFS/ming").dump()

    granted, revoked = tb.run(scenario())
    assert friend in granted
    assert friend not in revoked


# -- delegated fleet: expiry, renewal, ticket composition ----------------------


def _churn():
    return SessionChurn(duration=20.0, period=1.0, io_size=4096)


def _fingerprint(result):
    return (
        result.makespan,
        [(c.name, c.start, c.end, sorted(c.phases.items())) for c in result.per_client],
        result.stats,
    )


DELEGATED = Scenario(
    "sgfs-aes", clients=4, stagger=0.25, session_tickets=True,
    reconnect_interval=3.0, delegation_lifetime=6.0,
)


def test_delegated_fleet_bit_identical_same_seed():
    a = run(DELEGATED, _churn)
    b = run(DELEGATED, _churn)
    assert _fingerprint(a) == _fingerprint(b)


def test_delegated_fleet_identical_with_cold_and_warm_key_memo(monkeypatch):
    from repro.crypto import rsa

    monkeypatch.setattr(rsa, "_KEYPAIR_MEMO", {})
    cold = run(DELEGATED, _churn)  # every key searched
    searched = len(rsa._KEYPAIR_MEMO)
    # CA + server + 4 users + one proxy key per delegation, none shared
    assert searched == 6 + cold.stats["gsi"]["delegations"]
    assert len({k.public.n for k, _ in rsa._KEYPAIR_MEMO.values()}) == searched
    warm = run(DELEGATED, _churn)  # every key a memo hit
    assert len(rsa._KEYPAIR_MEMO) == searched
    assert _fingerprint(warm) == _fingerprint(cold)  # makespan, per-client, stats


@pytest.mark.parametrize("io_size", [8192, 4097, 255, 1])
def test_churn_pattern_is_the_byte_ramp(io_size):
    wl = SessionChurn(io_size=io_size)
    for burst in (0, 255, 256, 1000):
        assert wl._pattern(burst) == bytes((burst + j) % 256 for j in range(io_size))


def test_delegated_fleet_expiry_forces_renewal():
    r = run(DELEGATED, _churn)
    gsi = r.stats["gsi"]
    # 20 s sessions on 6 s delegations: every client renews mid-run.
    assert gsi["renewals"] > 0
    assert gsi["delegations"] == r.clients + gsi["renewals"]
    # Each renewal republishes the proxy DN: the server-side authz
    # cache must observe the epoch bumps as stale re-resolutions.
    assert r.stats["proxy.server"]["authz_cache_stale"] > 0


def test_delegation_composes_with_session_tickets():
    r = run(DELEGATED, _churn)
    tls = r.stats["tls"]
    suite = "aes-256-cbc-sha1"
    full = tls[f"full_handshakes{{role=server,suite={suite}}}"]
    resumed = tls[f"resumptions{{role=server,suite={suite}}}"]
    # Renewal swaps the credential but keeps the ticket store: only the
    # very first connect per client pays the full RSA handshake.
    assert full == r.clients
    assert resumed > 0


def test_long_delegation_never_renews():
    r = run(replace(DELEGATED, delegation_lifetime=10_000.0), _churn)
    gsi = r.stats["gsi"]
    assert gsi["renewals"] == 0
    assert gsi["delegations"] == r.clients


def test_delegation_requires_secure_setup():
    with pytest.raises(ValueError, match="secure"):
        run(Scenario("nfs-v3", clients=2, delegation_lifetime=5.0), _churn)
    with pytest.raises(ValueError):
        run(Scenario("sgfs-aes", clients=2, delegation_lifetime=0.0), _churn)
