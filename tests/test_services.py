"""Management services: signed envelopes, FSS/DSS orchestration."""

import pytest

from repro.core.setups import CA_DN, FILE_ACCOUNT, JOB_ACCOUNT, SERVER_DN, USER_DN, _kernel_client
from repro.core.topology import Testbed
from repro.crypto.drbg import Drbg
from repro.gsi import CertificateAuthority, DistinguishedName, issue_proxy_certificate
from repro.rpc.auth import AuthSys
from repro.services import (
    DataSchedulerService,
    Envelope,
    FileSystemService,
    ServiceFault,
    sign_envelope,
    verify_envelope,
)
from repro.services.dss import seal_credential_for
from repro.services.endpoint import ServiceClient


# -- signed envelopes ---------------------------------------------------------------

CA = CertificateAuthority(CA_DN, rng=Drbg("svc-ca"), key_bits=768)
ALICE = CA.issue_identity(
    DistinguishedName.parse("/C=US/O=Lab/CN=Alice"), rng=Drbg("svc-alice"), key_bits=768
)
ROGUE_CA = CertificateAuthority(
    DistinguishedName.parse("/O=Rogue/CN=CA"), rng=Drbg("svc-rogue"), key_bits=768
)
MALLORY = ROGUE_CA.issue_identity(
    DistinguishedName.parse("/O=Rogue/CN=Mallory"), key_bits=768
)


def signed(action="DoThing", body=None, cred=ALICE, now=10.0, nonce="n1"):
    env = Envelope(action, body or {"k": "v"})
    return sign_envelope(env, cred, now, nonce)


def test_envelope_roundtrip():
    env = signed(body={"k": "v", "a": "first"})
    back = Envelope.decode(env.encode())
    assert back.action == "DoThing"
    assert back.params == {"a": "first", "k": "v"}
    assert back.signature == env.signature
    assert back.certificate == ALICE.certificate


def test_verify_accepts_valid_and_returns_identity():
    env = Envelope.decode(signed().encode())
    identity = verify_envelope(env, [CA.certificate], now=11.0)
    assert str(identity) == "/C=US/O=Lab/CN=Alice"


def test_verify_rejects_tampered_body():
    env = Envelope.decode(signed().encode())
    env.params["k"] = "tampered"
    with pytest.raises(ServiceFault, match="signature"):
        verify_envelope(env, [CA.certificate], now=11.0)


def test_verify_rejects_untrusted_ca():
    env = Envelope.decode(signed(cred=MALLORY).encode())
    with pytest.raises(ServiceFault, match="certificate"):
        verify_envelope(env, [CA.certificate], now=11.0)


def test_verify_rejects_unsigned():
    env = Envelope("X")
    env.certificate = ALICE.certificate
    with pytest.raises(ServiceFault, match="unsigned"):
        verify_envelope(env, [CA.certificate], now=11.0)


def test_verify_rejects_stale_timestamp():
    env = Envelope.decode(signed(now=10.0).encode())
    with pytest.raises(ServiceFault, match="freshness"):
        verify_envelope(env, [CA.certificate], now=10_000.0)


def test_verify_rejects_replayed_nonce():
    env1 = Envelope.decode(signed(nonce="same").encode())
    env2 = Envelope.decode(signed(nonce="same").encode())
    seen = set()
    verify_envelope(env1, [CA.certificate], now=11.0, seen_nonces=seen)
    with pytest.raises(ServiceFault, match="replay"):
        verify_envelope(env2, [CA.certificate], now=11.0, seen_nonces=seen)


def test_proxy_signed_message_resolves_to_user():
    proxy = issue_proxy_certificate(ALICE, now=5.0, rng=Drbg("px"), key_bits=768)
    env = Envelope.decode(signed(cred=proxy, now=6.0).encode())
    identity = verify_envelope(env, [CA.certificate], now=7.0)
    assert str(identity) == "/C=US/O=Lab/CN=Alice"


# -- full DSS/FSS deployment ------------------------------------------------------------


def deploy():
    tb = Testbed.build()
    sim = tb.sim
    rng = Drbg("deploy")
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
    fss_client = FileSystemService(sim, tb.client, 5001, ids["fss-client"], anchors)
    fss_client.start()
    dss = DataSchedulerService(
        sim, tb.server, 5002, ids["dss"], anchors,
        client_fss={"client": ("client", 5001, ids["fss-client"].certificate)},
    )
    dss.start()
    dss.register_filesystem(
        "/GFS/ming", "server", 5000, acl={str(USER_DN): FILE_ACCOUNT.name}
    )
    return tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss


def test_full_session_lifecycle_through_services(made):
    """Create a session with the disk cache on, mount it, write, destroy
    it.  The session's proxy caches on the cache disk ``setup_sgfs``
    gives one; the destroy writes back, then ends the session's
    authority: the old mount's next call fails within the kernel
    client's hard-mount ladder, nothing it writes reaches the server,
    and no process of the session is left once the simulation drains."""
    from repro.sim.process import Process
    from repro.nfs.client import RETRANS_BASE, RETRANS_CAP
    from repro.rpc.errors import RpcTransportError
    from repro.vfs.fs import VfsError

    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    sim = tb.sim
    proxy_cred = issue_proxy_certificate(user, now=sim.now, rng=rng.fork("px"), key_bits=768)
    me = ServiceClient(sim, tb.client, proxy_cred, anchors, rng=rng.fork("me"))
    blob = seal_credential_for(proxy_cred, ids["fss-client"].certificate, rng.fork("seal"))

    def scenario():
        reply = yield from me.call(
            "server", 5002, "CreateSession",
            {"filesystem": "/GFS/ming", "client_host": "client",
             "suite": "rc4-128-sha1", "credential": blob, "disk_cache": "on"},
        )
        (proxy,) = fss_client.client_sessions.values()
        cl = yield from _kernel_client(
            tb, "client", int(reply["client_port"]),
            AuthSys(uid=JOB_ACCOUNT.uid, gid=JOB_ACCOUNT.gid), None,
        )
        yield from cl.write_file("/svc.txt", b"through the service plane")
        data = yield from cl.read_file("/svc.txt")
        out = yield from me.call(
            "server", 5002, "DestroySession", {"session_id": reply["session_id"]}
        )
        t0 = sim.now
        with pytest.raises(RpcTransportError):
            yield from cl.write_file("/after.txt", b"after the destroy")
        return proxy, cl, data, out, sim.now - t0

    proxy, cl, data, out, refused_after = tb.run(scenario())
    assert data == b"through the service plane"
    assert "destroyed" in out
    assert not dss.sessions
    disk = proxy._blocks.disk
    assert disk.name == "proxy-cache-disk" and disk.writes > 0
    assert bytes(tb.fs.resolve("/svc.txt").data) == b"through the service plane"
    ladder = sum(min(RETRANS_CAP, RETRANS_BASE * cl.retrans_backoff ** k)
                 for k in range(1, cl.retrans_max + 1))
    assert refused_after < ladder + 0.1
    with pytest.raises(VfsError):
        tb.fs.resolve("/after.txt")
    tb.sim.run()
    # what is alive is the services' and nfsd's, waiting for calls
    assert {p.name.partition(".")[0] for p in made[Process] if p.alive} == {
        "nfsd", "fss:server:5000", "fss:client:5001", "dss:5002"}


def test_services_registered_on_the_testbed_close_with_their_sessions():
    """An FSS's ``stop()`` ends the sessions it started: a testbed whose
    services are registered closes empty with a live session."""
    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    for name, service in (("fss:server", fss_server), ("fss:client", fss_client),
                          ("dss", dss)):
        tb.register(name, service)
    proxy_cred = issue_proxy_certificate(
        user, now=tb.sim.now, rng=rng.fork("px"), key_bits=768)
    me = ServiceClient(tb.sim, tb.client, proxy_cred, anchors, rng=rng.fork("me"))
    blob = seal_credential_for(proxy_cred, ids["fss-client"].certificate, rng.fork("seal"))
    tb.run(me.call("server", 5002, "CreateSession",
                   {"filesystem": "/GFS/ming", "client_host": "client", "credential": blob}))
    assert fss_client.client_sessions and fss_server.server_sessions
    tb.close()


def test_unauthorized_user_cannot_create_session():
    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    sim = tb.sim
    outsider = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=Other/CN=Outsider"),
        rng=rng.fork("out"), key_bits=768,
    )
    proxy_cred = issue_proxy_certificate(outsider, now=sim.now, rng=rng.fork("opx"), key_bits=768)
    client = ServiceClient(sim, tb.client, proxy_cred, anchors, rng=rng.fork("oc"))
    blob = seal_credential_for(proxy_cred, ids["fss-client"].certificate, rng.fork("os"))

    def scenario():
        with pytest.raises(ServiceFault, match="not authorized"):
            yield from client.call(
                "server", 5002, "CreateSession",
                {"filesystem": "/GFS/ming", "client_host": "client",
                 "credential": blob},
            )
        return True

    assert tb.run(scenario())


def test_grant_access_updates_generated_gridmap():
    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    sim = tb.sim
    proxy_cred = issue_proxy_certificate(user, now=sim.now, rng=rng.fork("px"), key_bits=768)
    me = ServiceClient(sim, tb.client, proxy_cred, anchors, rng=rng.fork("me"))
    friend_dn = "/C=US/O=UFL/CN=Friend"

    def scenario():
        yield from me.call(
            "server", 5002, "GrantAccess",
            {"filesystem": "/GFS/ming", "dn": friend_dn, "account": "ming"},
        )
        return dss.gridmap_for("/GFS/ming").dump()

    gridmap_text = tb.run(scenario())
    assert friend_dn in gridmap_text


def test_unknown_action_faults():
    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    sim = tb.sim
    me = ServiceClient(sim, tb.client, user, anchors, rng=rng.fork("me"))

    def scenario():
        with pytest.raises(ServiceFault, match="unknown action"):
            yield from me.call("server", 5002, "NoSuchAction", {})
        return True

    assert tb.run(scenario())


def test_unknown_filesystem_faults():
    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))

    def scenario():
        with pytest.raises(ServiceFault, match="unknown filesystem"):
            yield from me.call(
                "server", 5002, "CreateSession",
                {"filesystem": "/GFS/ghost", "client_host": "client",
                 "credential": "xx"},
            )
        return True

    assert tb.run(scenario())


def test_service_cpu_charged_for_message_security():
    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))

    def scenario():
        with pytest.raises(ServiceFault):
            yield from me.call("server", 5002, "NoSuchAction", {})

    tb.run(scenario())
    assert tb.client.cpu.busy_total("services") > 0
    assert tb.server.cpu.busy_total("services") > 0


def test_a_stopped_service_ends_its_processes_and_refuses_calls(made):
    """``stop()`` ends everything the endpoint runs — its accept loop,
    its worker pool and a connection still open — with nothing else
    closed, and the next call is refused."""
    from repro.net.errors import ConnectionRefused
    from repro.sim.process import Process

    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))
    friend = {"filesystem": "/GFS/ming", "dn": "/C=US/O=UFL/CN=Friend",
              "account": "ming"}

    def scenario():
        yield from me.call("server", 5002, "GrantAccess", friend)
        idle = yield from tb.client.connect("server", 5002)  # sends nothing
        yield tb.sim.timeout(0.1)
        dss.stop()
        eof = yield from idle.recv()
        yield tb.sim.timeout(0.1)
        with pytest.raises(ConnectionRefused):
            yield from me.call("server", 5002, "GrantAccess", friend)
        return eof

    assert tb.run(scenario()) == b""
    mine = [p for p in made[Process] if p.name.startswith("dss:5002.")]
    assert {p.name for p in mine} >= {"dss:5002.accept", "dss:5002.conn",
                                      "dss:5002.worker7"}
    assert not [p.name for p in mine if p.alive]


# -- the envelope on the wire ---------------------------------------------------------


def test_envelope_decode_refuses_unsorted_params():
    from repro.xdr import Packer, XdrError

    p = Packer()
    p.pack_string("DoThing")
    p.pack_uint(2)
    for key in ("k", "a"):  # the signer's encoding sorts them
        p.pack_string(key)
        p.pack_string("v")
    with pytest.raises(XdrError, match="out of order"):
        Envelope.decode(p.get_bytes())


def test_malformed_envelope_is_garbage_args():
    from repro.rpc.messages import GARBAGE_ARGS, CallMessage, ReplyMessage
    from repro.rpc.transport import StreamTransport
    from repro.services.endpoint import INVOKE, SERVICE_PROGRAM, SERVICE_VERSION

    tb, *_ = deploy()

    def scenario():
        sock = yield from tb.client.connect("server", 5002)
        stream = StreamTransport(sock)
        stream.send_record(CallMessage(
            7, SERVICE_PROGRAM, SERVICE_VERSION, INVOKE,
            args=b"\x00\x00\x00\x09not an envelope").encode())
        raw = yield from stream.recv_record()
        sock.close()
        return ReplyMessage.decode(raw)

    assert tb.run(scenario()).accept_stat == GARBAGE_ARGS


def test_handler_bug_is_the_rpc_servers_system_err():
    from repro.rpc.errors import RpcSystemError

    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()

    def broken(identity, params):
        raise KeyError("a handler bug")

    dss.register("Broken", broken)
    me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))

    def scenario():
        with pytest.raises(RpcSystemError):
            yield from me.call("server", 5002, "Broken", {})
        return True

    assert tb.run(scenario())
    assert dss.requests_served == dss.faults_returned == 0


# -- state that must not leak or cross ------------------------------------------------


def _create_and_destroy():
    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    proxy_cred = issue_proxy_certificate(
        user, now=tb.sim.now, rng=rng.fork("px"), key_bits=768)
    me = ServiceClient(tb.sim, tb.client, proxy_cred, anchors, rng=rng.fork("me"))
    blob = seal_credential_for(proxy_cred, ids["fss-client"].certificate, rng.fork("seal"))

    def scenario():
        created = yield from me.call(
            "server", 5002, "CreateSession",
            {"filesystem": "/GFS/ming", "client_host": "client", "credential": blob},
        )
        destroyed = yield from me.call(
            "server", 5002, "DestroySession", {"session_id": created["session_id"]}
        )
        return created, destroyed

    return tb.run(scenario()), tb.sim.now


def test_same_seed_lifecycles_in_one_process_are_identical():
    """Session ids, session ports and reply nonces are per instance, so
    a second deployment in the same process replays the first."""
    assert _create_and_destroy() == _create_and_destroy()


def test_destroy_session_reaches_the_filesystems_own_fss():
    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    fss_other = FileSystemService(
        tb.sim, tb.server, 5003, ids["fss-server"], anchors,
        fs=tb.fs, accounts=tb.server_accounts,
        host_credential=fss_server.host_credential,
    )
    fss_other.start()
    dss.register_filesystem(
        "/GFS/other", "server", 5003, acl={str(USER_DN): FILE_ACCOUNT.name}
    )
    proxy_cred = issue_proxy_certificate(
        user, now=tb.sim.now, rng=rng.fork("px"), key_bits=768)
    me = ServiceClient(tb.sim, tb.client, proxy_cred, anchors, rng=rng.fork("me"))
    blob = seal_credential_for(proxy_cred, ids["fss-client"].certificate, rng.fork("seal"))

    def scenario():
        sessions = []
        for fs_name in ("/GFS/ming", "/GFS/other"):
            sessions.append((yield from me.call(
                "server", 5002, "CreateSession",
                {"filesystem": fs_name, "client_host": "client", "credential": blob},
            ))["session_id"])
        yield from me.call("server", 5002, "DestroySession", {"session_id": sessions[1]})
        return sessions

    tb.run(scenario())
    assert not fss_other.server_sessions
    # two FSSs on one host: the surviving session holds its own port
    (kept,) = fss_server.server_sessions
    assert kept == "srv-24100" and len(fss_client.client_sessions) == 1


def test_set_acl_reaches_every_live_session_of_the_export():
    from repro.vfs.fs import Credentials

    tb, rng, ca, anchors, user, ids, fss_client, fss_server, dss = deploy()
    node = tb.fs.create(1, "guarded.txt", Credentials(tb.fs.root.uid, tb.fs.root.gid))
    me = ServiceClient(tb.sim, tb.client, user, anchors, rng=rng.fork("me"))

    def scenario():
        yield from me.call(
            "server", 5000, "SetAcl", {"path": "/guarded.txt", "acl": f'"{USER_DN}" 29'}
        )
        for _ in range(2):
            yield from me.call(
                "server", 5000, "CreateServerSession",
                {"gridmap": f'"{USER_DN}" {FILE_ACCOUNT.name}'},
            )
        stores = [p.acls for p in fss_server.server_sessions.values()]
        granted = [s.evaluate(node.fileid, USER_DN) for s in stores]
        epochs = [s.epoch for s in stores]
        yield from me.call(
            "server", 5000, "SetAcl", {"path": "/guarded.txt", "acl": f'deny "{USER_DN}"'}
        )
        revoked = [s.evaluate(node.fileid, USER_DN) for s in stores]
        bumped = [s.epoch > e for s, e in zip(stores, epochs)]
        yield from me.call("server", 5000, "RemoveAcl", {"path": "/guarded.txt"})
        removed = [s.evaluate(node.fileid, USER_DN) for s in stores]
        return granted, revoked, bumped, removed

    granted, revoked, bumped, removed = tb.run(scenario())
    assert granted == [29, 29]
    assert revoked == [0, 0] and bumped == [True, True]
    assert removed == [None, None]
