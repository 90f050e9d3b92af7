"""Dynamic session reconfiguration (paper §4.2) end to end.

"A SGFS session's security customization can also be reconfigured by
signaling the proxies to reload the configuration files ... force a
proxy to reload the certificate ... force a SSL-renegotiation and
refresh the session key for a long-lived session."
"""

import pytest

from repro.core import Testbed, setup_sgfs
from repro.core.setups import USER_DN
from repro.gsi import DistinguishedName, Gridmap
from repro.proxy.session_config import SessionConfig
from repro.services.envelope import ServiceFault


def test_config_reload_detects_certificate_rotation():
    before = SessionConfig.parse("user_cert = alice-2007\nsuite = rc4-128-sha1")
    after = SessionConfig.parse("user_cert = alice-2008\nsuite = rc4-128-sha1")
    changes = before.diff(after)
    assert set(changes) == {"user_cert"}
    assert after.requires_renegotiation


def test_live_session_renegotiates_on_signal():
    tb = Testbed.build()
    mount = setup_sgfs(tb, suite="aes-256-cbc-sha1", fast_ciphers=False)
    channel = mount.client_proxy._upstream

    def job():
        cl = mount.client
        yield from cl.write_file("/pre.txt", b"before rekey")
        channel.renegotiate()  # the reload signal's effect
        yield from cl.write_file("/post.txt", b"after rekey")
        data_pre = yield from cl.read_file("/pre.txt")
        data_post = yield from cl.read_file("/post.txt")
        return data_pre, data_post

    pre, post = tb.run(job())
    assert (pre, post) == (b"before rekey", b"after rekey")
    assert channel.renegotiations == 1


def test_periodic_renegotiation_during_real_io():
    tb = Testbed.build()
    mount = setup_sgfs(tb, suite="null-sha1", renegotiate_interval=0.05)

    def job():
        cl = mount.client
        for i in range(5):
            yield tb.sim.timeout(0.04)
            yield from cl.write_file(f"/tick{i}", b"x" * 1000)
        for i in range(5):
            data = yield from cl.read_file(f"/tick{i}")
            assert data == b"x" * 1000
        return mount.client_proxy._upstream.renegotiations

    assert tb.run(job()) >= 2


def test_gridmap_reload_revokes_new_sessions_only():
    """Reload applies to sessions established afterwards; the live
    session's authorization was fixed at its handshake (per-connection
    mapping, like the paper's per-session gridmap)."""
    tb = Testbed.build()
    mount = setup_sgfs(tb)

    def before():
        yield from mount.client.write_file("/pre-revoke.txt", b"ok")
        return True

    assert tb.run(before())
    mount.server_proxy.reload(gridmap=Gridmap())  # revoke everyone
    assert mount.server_proxy._map_identity(USER_DN) is None

    def still_alive():
        # the established session keeps its mapping
        yield from mount.client.write_file("/post-revoke.txt", b"still ok")
        return True

    assert tb.run(still_alive())


def test_fss_reconfigure_action_updates_gridmap():
    from repro.core.setups import CA_DN, FILE_ACCOUNT, SERVER_DN
    from repro.crypto.drbg import Drbg
    from repro.gsi import CertificateAuthority
    from repro.services import FileSystemService
    from repro.services.endpoint import ServiceClient

    tb = Testbed.build()
    sim = tb.sim
    rng = Drbg("reconf")
    ca = CertificateAuthority(CA_DN, rng=rng.fork("ca"), key_bits=768)
    anchors = [ca.certificate]
    host_id = ca.issue_identity(SERVER_DN, rng=rng.fork("host"), key_bits=768)
    fss_id = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=UFL/CN=fss"), rng=rng.fork("fss"), key_bits=768
    )
    user = ca.issue_identity(USER_DN, rng=rng.fork("user"), key_bits=768)
    fss = FileSystemService(
        sim, tb.server, 5000, fss_id, anchors,
        fs=tb.fs, accounts=tb.server_accounts,
        host_credential=host_id,
    )
    fss.start()
    me = ServiceClient(sim, tb.client, user, anchors, rng=rng.fork("me"))

    def scenario():
        created = yield from me.call(
            "server", 5000, "CreateServerSession",
            {"suite": "null-sha1",
             "gridmap": f'"{USER_DN}" {FILE_ACCOUNT.name}'},
        )
        session_id = created["session_id"]
        proxy = fss.server_sessions[session_id]
        assert proxy.gridmap.lookup(USER_DN) == FILE_ACCOUNT.name
        yield from me.call(
            "server", 5000, "ReconfigureSession",
            {"session_id": session_id,
             "gridmap": '"/C=US/O=UFL/CN=Someone Else" nobody'},
        )
        assert proxy.gridmap.lookup(USER_DN) is None
        with pytest.raises(ServiceFault):
            yield from me.call(
                "server", 5000, "ReconfigureSession",
                {"session_id": "nope", "gridmap": ""},
            )
        yield from me.call(
            "server", 5000, "DestroySession", {"session_id": session_id}
        )
        assert session_id not in fss.server_sessions
        return True

    assert tb.run(scenario())


def test_fss_set_acl_action_enforced_by_proxy():
    from repro.core.setups import CA_DN, FILE_ACCOUNT, SERVER_DN
    from repro.crypto.drbg import Drbg
    from repro.gsi import CertificateAuthority
    from repro.services import FileSystemService
    from repro.services.endpoint import ServiceClient
    from repro.vfs.fs import Credentials

    tb = Testbed.build()
    sim = tb.sim
    rng = Drbg("setacl")
    ca = CertificateAuthority(CA_DN, rng=rng.fork("ca"), key_bits=768)
    anchors = [ca.certificate]
    admin_dn = DistinguishedName.parse("/C=US/O=UFL/CN=admin")
    admin = ca.issue_identity(admin_dn, rng=rng.fork("admin"), key_bits=768)
    outsider = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=Else/CN=user"), rng=rng.fork("o"), key_bits=768
    )
    fss_id = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=UFL/CN=fss"), rng=rng.fork("fss"), key_bits=768
    )
    host_id = ca.issue_identity(SERVER_DN, rng=rng.fork("host"), key_bits=768)
    fss = FileSystemService(
        sim, tb.server, 5000, fss_id, anchors,
        fs=tb.fs, accounts=tb.server_accounts,
        host_credential=host_id,
        authorized_admins={str(admin_dn)},
    )
    fss.start()
    # a file to protect
    tb.fs.create(1, "guarded.txt", Credentials(tb.fs.root.uid, tb.fs.root.gid))
    admin_client = ServiceClient(sim, tb.server, admin, anchors, rng=rng.fork("ac"))
    outsider_client = ServiceClient(sim, tb.server, outsider, anchors, rng=rng.fork("oc"))

    def scenario():
        yield from admin_client.call(
            "server", 5000, "SetAcl",
            {"path": "/guarded.txt", "acl": f'"{USER_DN}" r'},
        )
        node = tb.fs.resolve("/guarded.txt", Credentials(0, 0))
        from repro.proxy.acl import AclStore

        store = AclStore(tb.fs)
        assert store.evaluate(node.fileid, USER_DN) is not None
        # non-admins may not manage ACLs
        with pytest.raises(ServiceFault, match="not authorized"):
            yield from outsider_client.call(
                "server", 5000, "SetAcl",
                {"path": "/guarded.txt", "acl": '"/C=US/O=Else/CN=user" rwx'},
            )
        yield from admin_client.call(
            "server", 5000, "RemoveAcl", {"path": "/guarded.txt"}
        )
        assert AclStore(tb.fs).evaluate(node.fileid, USER_DN) is None
        return True

    assert tb.run(scenario())
