#!/usr/bin/env python3
"""Service-managed sessions: DSS + FSS orchestration (paper §3.2, §4.4).

Demonstrates the full management plane:

1. a grid deployment with a CA, a DSS, and FSS services on the client
   and server hosts, all exchanging signed envelopes over ONC RPC;
2. a user delegates a proxy credential and asks the DSS for a session;
3. the DSS authorizes the user against its per-filesystem ACL database,
   generates a gridmap, and drives both FSSs to stand up the proxies;
4. the user's job mounts the returned loopback port and does I/O;
5. the user *shares* the filesystem with a collaborator via the DSS
   (one ACL entry -> regenerated gridmap on the next session);
6. an unauthorized user's request is refused;
7. the user destroys the session, and the mount made through it is
   refused from then on.

Run:  python examples/managed_sessions.py
"""

from repro.core.setups import CA_DN, FILE_ACCOUNT, JOB_ACCOUNT, SERVER_DN, USER_DN, _kernel_client
from repro.core.topology import Testbed
from repro.crypto.drbg import Drbg
from repro.gsi import CertificateAuthority, DistinguishedName, issue_proxy_certificate
from repro.rpc.auth import AuthSys
from repro.rpc.errors import RpcTransportError
from repro.services import DataSchedulerService, FileSystemService
from repro.services.dss import seal_credential_for
from repro.services.endpoint import ServiceClient
from repro.services.envelope import ServiceFault

COLLABORATOR_DN = DistinguishedName.parse("/C=US/O=UFL/OU=HCS/CN=Collaborator")


def main() -> None:
    tb = Testbed.build()
    sim = tb.sim
    rng = Drbg("managed-sessions-example")

    # --- the grid's security fabric -----------------------------------
    ca = CertificateAuthority(CA_DN, rng=rng.fork("ca"), key_bits=1024)
    anchors = [ca.certificate]
    user = ca.issue_identity(USER_DN, rng=rng.fork("user"), key_bits=1024)
    intruder = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=Elsewhere/CN=Mallory"),
        rng=rng.fork("mallory"), key_bits=1024,
    )
    host_id = ca.issue_identity(SERVER_DN, rng=rng.fork("host"), key_bits=1024)
    fss_server_id = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=UFL/CN=fss-server"), rng=rng.fork("f1"), key_bits=1024)
    fss_client_id = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=UFL/CN=fss-client"), rng=rng.fork("f2"), key_bits=1024)
    dss_id = ca.issue_identity(
        DistinguishedName.parse("/C=US/O=UFL/CN=dss"), rng=rng.fork("f3"), key_bits=1024)

    # --- services ------------------------------------------------------
    fss_server = FileSystemService(
        sim, tb.server, 5000, fss_server_id, anchors,
        fs=tb.fs, accounts=tb.server_accounts,
        host_credential=host_id,
    )
    fss_server.start()
    fss_client = FileSystemService(sim, tb.client, 5001, fss_client_id, anchors)
    fss_client.start()
    dss = DataSchedulerService(
        sim, tb.server, 5002, dss_id, anchors,
        client_fss={"client": ("client", 5001, fss_client_id.certificate)},
    )
    dss.start()
    dss.register_filesystem(
        "/GFS/ming", "server", 5000, acl={str(USER_DN): FILE_ACCOUNT.name}
    )

    # --- the user's session --------------------------------------------
    proxy_cred = issue_proxy_certificate(user, now=sim.now, rng=rng.fork("px"), key_bits=1024)
    me = ServiceClient(sim, tb.client, proxy_cred, anchors, rng=rng.fork("me"))
    blob = seal_credential_for(proxy_cred, fss_client_id.certificate, rng.fork("seal"))

    def scenario():
        reply = yield from me.call(
            "server", 5002, "CreateSession",
            {"filesystem": "/GFS/ming", "client_host": "client",
             "suite": "rc4-128-sha1", "credential": blob},
        )
        print(f"session {reply['session_id']} at {reply['client_host']}:{reply['client_port']}")
        cl = yield from _kernel_client(
            tb, "client", int(reply["client_port"]),
            AuthSys(uid=JOB_ACCOUNT.uid, gid=JOB_ACCOUNT.gid), None,
        )
        yield from cl.write_file("/results.dat", b"simulation output " * 100)
        print("wrote /results.dat through the managed session")

        # share with a collaborator: one DSS call (paper: one gridmap line)
        yield from me.call(
            "server", 5002, "GrantAccess",
            {"filesystem": "/GFS/ming", "dn": str(COLLABORATOR_DN),
             "account": FILE_ACCOUNT.name},
        )
        print(f"granted {COLLABORATOR_DN} access; next session's gridmap includes them")
        print("generated gridmap now:")
        print("  " + dss.gridmap_for("/GFS/ming").dump().replace("\n", "\n  "))

        # an unauthorized identity is refused
        mallory_proxy = issue_proxy_certificate(
            intruder, now=sim.now, rng=rng.fork("mpx"), key_bits=1024)
        mallory = ServiceClient(sim, tb.client, mallory_proxy, anchors, rng=rng.fork("m"))
        mblob = seal_credential_for(
            mallory_proxy, fss_client_id.certificate, rng.fork("ms"))
        try:
            yield from mallory.call(
                "server", 5002, "CreateSession",
                {"filesystem": "/GFS/ming", "client_host": "client",
                 "credential": mblob},
            )
            raise AssertionError("unauthorized session was created!")
        except ServiceFault as fault:
            print(f"Mallory refused, as expected: {fault}")

        yield from me.call(
            "server", 5002, "DestroySession", {"session_id": reply["session_id"]}
        )
        print("session destroyed (dirty data written back by the client FSS)")

        # the destroyed session's authority is gone: the old mount is refused
        try:
            yield from cl.write_file("/late.dat", b"after the destroy")
            raise AssertionError("a destroyed session still served its mount!")
        except RpcTransportError as refused:
            print(f"old mount refused after the destroy, as expected: {refused}")

    tb.run(scenario())
    print(f"total virtual time: {sim.now:.3f} s")


if __name__ == "__main__":
    main()
