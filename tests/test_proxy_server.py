"""Server-side proxy: authentication, authorization, identity mapping,
ACL interception, ACL-file protection."""

import gc

import pytest

from repro.core.setups import (
    FILE_ACCOUNT,
    JOB_ACCOUNT,
    USER_DN,
    setup_gfs,
    setup_sgfs,
)
from repro.core.topology import Testbed
from repro.gsi import DistinguishedName
from repro.gsi.gridmap import Gridmap, UnmappedPolicy
from repro.nfs.client import NfsClientError
from repro.nfs.protocol import ACCESS_LOOKUP, ACCESS_READ
from repro.proxy.accounts import Account
from repro.proxy.acl import AclEntry
from repro.rpc.auth import AuthSys, OpaqueAuth
from repro.vfs.fs import Credentials, Status


def test_identity_mapping_rewrites_uid():
    """The job account's uid (5001) must arrive at the server as the
    mapped file account's uid (901) — files are owned by the grid user's
    local account."""
    tb = Testbed.build()
    mount = setup_sgfs(tb)

    def job():
        yield from mount.client.write_file("/owned.txt", b"x")

    tb.run(job())
    node = tb.fs.resolve("/owned.txt", Credentials(0, 0))
    assert node.uid == FILE_ACCOUNT.uid != JOB_ACCOUNT.uid


def test_unmapped_user_denied():
    tb = Testbed.build()
    mount = setup_sgfs(tb)
    # empty the gridmap mid-session: authorization is per-connection, so
    # build a new session via reload + fresh mount would be heavy; patch
    # the mapping on the live proxy instead and reconnect.
    mount.server_proxy.gridmap = Gridmap(unmapped=UnmappedPolicy.DENY)

    # new connections map against the new (empty) gridmap
    from repro.core.setups import setup_nfs_v3  # noqa: F401  (for parity)

    tb2 = Testbed.build()
    m2 = setup_sgfs(tb2)
    m2.server_proxy.gridmap = Gridmap(unmapped=UnmappedPolicy.DENY)
    # force a brand-new session by building another client proxy is
    # overkill here; instead assert the mapping function result directly:
    assert m2.server_proxy._map_identity(USER_DN) is None


def test_anonymous_policy_maps_to_nobody():
    tb = Testbed.build()
    mount = setup_sgfs(tb)
    mount.server_proxy.gridmap = Gridmap(unmapped=UnmappedPolicy.ANONYMOUS)
    account = mount.server_proxy._map_identity(
        DistinguishedName.parse("/O=Else/CN=Stranger")
    )
    assert account is not None and account.name == "nobody"


def test_access_answered_from_acl():
    tb = Testbed.build()
    mount = setup_sgfs(tb)

    def job():
        cl = mount.client
        yield from cl.write_file("/guarded.txt", b"secret")
        # install a deny ACL for the session user
        mount.server_proxy.acls.set_acl(
            tb.fs.root.fileid, "guarded.txt",
            [AclEntry(str(USER_DN), 0, deny=True)],
        )
        cl.access_cache.clear()  # defeat client-side caching
        bits = yield from cl.access("/guarded.txt", 0x3F)
        return bits

    assert tb.run(job()) == 0
    assert mount.server_proxy.stats.acl_answers >= 1


def _guarded(bits: int, deny: bool = False):
    """A mount whose user's ACL entry on ``/guarded.txt`` (holding
    ``secret``) grants ``bits``, or denies them; the client's access
    cache is cleared, so the next open asks."""
    tb = Testbed.build()
    mount = setup_sgfs(tb)

    def job():
        yield from mount.client.write_file("/guarded.txt", b"secret")

    tb.run(job())
    mount.server_proxy.acls.set_acl(
        tb.fs.root.fileid, "guarded.txt", [AclEntry(str(USER_DN), bits, deny=deny)])
    mount.client.access_cache.clear()
    return tb, mount


def _refused(tb, op) -> bool:
    def job():
        try:
            yield from op
        except NfsClientError as exc:
            assert exc.status == Status.ACCES
            return True
        return False

    return tb.run(job())


@pytest.mark.parametrize("deny", [True, False])
def test_a_deny_refuses_the_open(deny):
    """A deny entry (or one that grants nothing) refuses both opens with
    ``ACCES``, and the server's bytes stay as they were."""
    tb, mount = _guarded(0, deny=deny)
    cl = mount.client
    assert _refused(tb, cl.read_file("/guarded.txt"))
    assert _refused(tb, cl.write_file("/guarded.txt", b"EVIL!!"))
    assert _refused(tb, cl.open("/guarded.txt", write=True))
    assert bytes(tb.fs.resolve("/guarded.txt", Credentials(0, 0)).data) == b"secret"


def test_read_only_acl_opens_for_read_and_refuses_a_write():
    """READ alone opens for reading; an append (a write open) and a
    truncating write are refused."""
    tb, mount = _guarded(ACCESS_READ | ACCESS_LOOKUP)
    cl = mount.client
    assert tb.run(cl.read_file("/guarded.txt")) == b"secret"
    assert _refused(tb, cl.open("/guarded.txt", write=True))
    assert _refused(tb, cl.write_file("/guarded.txt", b"EVIL!!"))
    assert bytes(tb.fs.resolve("/guarded.txt", Credentials(0, 0)).data) == b"secret"


def test_access_unix_fallback_when_no_acl():
    tb = Testbed.build()
    mount = setup_sgfs(tb)

    def job():
        cl = mount.client
        yield from cl.write_file("/plain.txt", b"x")
        cl.access_cache.clear()
        bits = yield from cl.access("/plain.txt", 0x1)
        return bits

    bits = tb.run(job())
    assert bits == 0x1  # mapped UNIX permissions grant read
    assert mount.server_proxy.stats.unix_fallbacks >= 1


def test_acl_files_hidden_from_lookup():
    tb = Testbed.build()
    mount = setup_sgfs(tb)

    def job():
        cl = mount.client
        yield from cl.write_file("/visible.txt", b"x")
        mount.server_proxy.acls.set_acl(
            tb.fs.root.fileid, "visible.txt", [AclEntry(str(USER_DN), 63)]
        )
        # lookup of the ACL file answers NOENT
        with pytest.raises(NfsClientError, match="NOENT"):
            yield from cl.stat("/.visible.txt.acl")
        return True

    assert tb.run(job())


def test_acl_files_filtered_from_readdir():
    tb = Testbed.build()
    mount = setup_sgfs(tb)

    def job():
        cl = mount.client
        yield from cl.mkdir("/d")
        yield from cl.write_file("/d/a.txt", b"x")
        d = tb.fs.resolve("/d", Credentials(0, 0))
        mount.server_proxy.acls.set_acl(d.fileid, "a.txt", [AclEntry(str(USER_DN), 63)])
        cl._dir_cache.clear()
        cl.attrs.clear()
        entries = yield from cl.readdir("/d")
        return sorted(e.name for e in entries)

    assert tb.run(job()) == ["a.txt"]
    # the ACL file genuinely exists server-side
    d = tb.fs.resolve("/d", Credentials(0, 0))
    assert ".a.txt.acl" in d.entries


def test_acl_file_mutation_refused():
    tb = Testbed.build()
    mount = setup_sgfs(tb)

    def job():
        cl = mount.client
        with pytest.raises(NfsClientError, match="ACCES|NOENT"):
            yield from cl.write_file("/.evil.txt.acl", b'"/O=X/CN=me" 63')
        with pytest.raises(NfsClientError, match="ACCES|NOENT"):
            yield from cl.unlink("/.something.acl")
        yield from cl.write_file("/real.txt", b"x")
        with pytest.raises(NfsClientError, match="ACCES"):
            yield from cl.rename("/real.txt", "/.real.txt.acl")
        # a hard link is a new name too: no ACL may appear through one
        yield from cl.write_file("/mine.txt", f'deny "{USER_DN}"\n'.encode())
        with pytest.raises(NfsClientError, match="ACCES"):
            yield from cl.link("/mine.txt", "/.real.txt.acl")
        assert b"x" == (yield from cl.read_file("/real.txt"))
        return True

    assert tb.run(job())
    real = tb.fs.resolve("/real.txt", Credentials(0, 0))
    assert mount.server_proxy.acls.evaluate(real.fileid, USER_DN) is None


def test_gfs_session_has_no_channel_security_but_maps_identity():
    tb = Testbed.build()
    mount = setup_gfs(tb)

    def job():
        yield from mount.client.write_file("/via-gfs.txt", b"y")

    tb.run(job())
    node = tb.fs.resolve("/via-gfs.txt", Credentials(0, 0))
    assert node.uid == FILE_ACCOUNT.uid
    assert mount.server_proxy.security is None


def test_proxy_forward_counters():
    tb = Testbed.build()
    mount = setup_sgfs(tb)

    def job():
        yield from mount.client.write_file("/f", b"x" * 100)
        yield from mount.client.read_file("/f")

    tb.run(job())
    assert mount.server_proxy.stats.calls_forwarded > 0
    assert mount.server_proxy.stats.granted > 0
    assert mount.server_proxy.stats.denied == 0


def test_dynamic_gridmap_reload_applies_to_new_sessions():
    tb = Testbed.build()
    mount = setup_sgfs(tb)
    new_map = Gridmap()
    new_map.add(DistinguishedName.parse("/O=New/CN=Someone"), "nobody")
    mount.server_proxy.reload(gridmap=new_map)
    assert mount.server_proxy.gridmap is new_map
    assert mount.server_proxy._map_identity(USER_DN) is None


def test_remapped_credentials_follow_the_session_not_the_credential_bytes():
    """The proxy builds the outbound credential once per (inbound bytes,
    mapped account) and session.  The kernel client stamps the same
    bytes on every call, so a memo keyed on the bytes alone, or shared
    across sessions, would keep forwarding the first account's uid after
    the gridmap maps the user elsewhere."""
    tb = Testbed.build(rtt=0.02)
    mount = setup_sgfs(tb)
    cl, sp = mount.client, mount.server_proxy
    guest = tb.server_accounts.add(Account("guest", 950, 950, groups=(77,)))
    root = Credentials(0, 0)

    def job():
        yield from cl.mkdir("/shared")
        tb.fs.setattr(tb.fs.resolve("/shared", root).fileid, root, mode=0o777)
        yield from cl.write_file("/shared/one", b"1")
        # remapped between two calls: authorization is per session, so
        # the live session keeps its account ...
        sp.gridmap.add(USER_DN, guest.name)
        yield from cl.write_file("/shared/two", b"2")
        # ... and the next session, same credential bytes, gets the new one
        sp.crash()
        yield tb.sim.timeout(0.5)
        sp.restart()
        yield from cl.write_file("/shared/three", b"3")
        sp.gridmap.add(USER_DN, FILE_ACCOUNT.name)
        sp.crash()
        yield tb.sim.timeout(0.5)
        sp.restart()
        yield from cl.write_file("/shared/four", b"4")

    tb.run(job())
    owners = [tb.fs.resolve(f"/shared/{n}", root).uid for n in ("one", "two", "three", "four")]
    assert owners == [FILE_ACCOUNT.uid, FILE_ACCOUNT.uid, guest.uid, FILE_ACCOUNT.uid]


def test_remap_memo_is_per_session_and_per_account():
    tb = Testbed.build()
    sp = setup_sgfs(tb).server_proxy
    ming, guest = FILE_ACCOUNT, Account("guest", 950, 950, groups=(77, 78))
    cred = AuthSys(stamp=9, machinename="client", uid=5001, gid=5001, gids=[5]).to_opaque()

    class Session:  # stands in for a session's upstream client (the memo's owner)
        pass

    s1, s2 = Session(), Session()
    first = sp._remap_credentials(s1, cred, ming)
    assert AuthSys.from_opaque(first) == AuthSys(9, "localhost", 901, 901, ())
    assert sp._remap_credentials(s1, OpaqueAuth(1, cred.body), ming) is first  # built once
    other = sp._remap_credentials(s2, cred, guest)
    assert AuthSys.from_opaque(other) == AuthSys(9, "localhost", 950, 950, (77, 78))
    assert sp._remap_credentials(s1, cred, ming) is first
    # the same session asked for another account (no caller does this
    # today): the account is part of the key, so still no sharing
    assert sp._remap_credentials(s1, cred, guest) == other
    assert sp._remap_credentials(s1, cred, ming) is first
    # unmapped sessions, other flavors and unparseable bodies pass through
    assert sp._remap_credentials(s1, cred, None) is cred
    junk = OpaqueAuth(1, b"\x00\x00\x00")
    assert sp._remap_credentials(s1, junk, ming) is junk
    assert sp._remap_credentials(s1, OpaqueAuth(0, b""), ming) == OpaqueAuth(0, b"")
    # bounded per session, and gone with the session
    for stamp in range(200):
        sp._remap_credentials(s1, AuthSys(stamp=stamp).to_opaque(), ming)
    assert len(sp._remapped[s1]) <= 64
    del s1
    gc.collect()
    assert list(sp._remapped) == [s2]
