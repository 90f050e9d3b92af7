"""Server-side SGFS proxy (paper §4.2–4.3, Figure 1).

Sits between the WAN-facing transport and a kernel NFS server that
exports only to localhost.  For every session it:

1. **authenticates** the peer — for secure sessions the TLS-like
   handshake yields the grid user's certificate; the proxy resolves
   proxy-certificate delegation to the base identity;
2. **authorizes** via the session gridmap (identity → local account) and
   grid ACLs: ACCESS calls are answered from ``.name.acl`` files with
   directory inheritance and an in-memory ACL cache; objects with no ACL
   fall back to mapped-UNIX permission checks upstream;
3. **maps identities**: the AUTH_SYS uid/gid the client-side account
   stamped on each call are rewritten to the mapped local account;
4. **protects ACL files** from remote access: lookups of ``.x.acl``
   names answer NOENT, mutations answer ACCES, and directory listings
   are filtered;
5. forwards the (possibly rewritten) call to the kernel server and
   relays the reply, charging user-level processing CPU both ways —
   the measurable overhead of Figs. 4–6.
"""

from __future__ import annotations

import itertools
import weakref
from types import SimpleNamespace
from typing import Optional

from repro.gsi.gridmap import Gridmap
from repro.gsi.names import DistinguishedName
from repro.gsi.proxy import effective_identity
from repro.net.errors import NetError
from repro.nfs import protocol as pr
from repro.obs import NULL_SPAN
from repro.obs.schema import zeros
from repro.nfs.protocol import Fattr3, NfsStatus, Proc
from repro.proxy.accounts import Account, AccountsDb
from repro.proxy.acl import AclStore, is_acl_name
from repro.proxy.authz import AuthzCache
from repro.rpc.auth import AUTH_SYS, AuthSys, OpaqueAuth
from repro.rpc.client import RpcClient
from repro.rpc.compound import COMPOUND_PROGRAM, pack_members, unpack_members
from repro.rpc.costs import CostProfile, FREE_PROFILE, charge_profile
from repro.rpc.drc import DuplicateRequestCache
from repro.rpc.errors import RpcTransportError
from repro.rpc.messages import (
    AUTH_REJECTEDCRED,
    AUTH_TOOWEAK,
    DECODE_ERRORS,
    CallMessage,
    ReplyMessage,
    denied_reply,
)
from repro.rpc.server import serve_records
from repro.rpc.transport import DIAL_ERRORS, TRANSPORT_ERRORS, StreamTransport
from repro.sim.core import Simulator
from repro.tls.channel import SessionTicketCache, server_handshake
from repro.tls.config import SecurityConfig
from repro.vfs.fs import VfsError, VirtualFS
from repro.xdr import XdrError

#: procedures whose arguments start with (directory handle, name)
_NAME_PROCS = frozenset({
    Proc.LOOKUP, Proc.CREATE, Proc.MKDIR, Proc.SYMLINK, Proc.REMOVE, Proc.RMDIR,
})

#: distinct inbound credentials one session may keep a remapping for
_REMAP_MEMO_MAX = 64


class SgfsServerProxy:
    """One exported filesystem's server-side proxy."""

    #: serve each record before reading the next (the paper's blocking
    #: prototype); the SFS server daemon serves asynchronously
    blocking = True
    #: grid ACLs (§4.3): answer ACCESS from ``.name.acl`` files and hide
    #: them; the SFS server daemon has its own group ACLs instead
    enable_acls = True

    def __init__(
        self,
        sim: Simulator,
        host,
        listen_port: int,
        nfs_server_port: int,
        accounts: AccountsDb,
        gridmap: Gridmap,
        fs: VirtualFS,
        security: Optional[SecurityConfig] = None,
        cost: CostProfile = FREE_PROFILE,
        account: str = "proxy",
        session_identity: Optional[DistinguishedName] = None,
        acl_cache_enabled: bool = True,
        acl_disk=None,
    ):
        self.sim = sim
        self.host = host
        self.listen_port = listen_port
        self.nfs_server_port = nfs_server_port
        self.accounts = accounts
        self.gridmap = gridmap
        self.fs = fs
        self.security = security
        self.cost = cost
        self.account = account
        #: identity assumed for *insecure* (plain GFS) sessions, standing
        #: in for the session-key authentication of the prior system.
        self.session_identity = session_identity
        self.acl_disk = acl_disk
        self.acls = AclStore(fs, cache_enabled=acl_cache_enabled)
        #: versioned identity→account cache: entries are stamped with
        #: the gridmap epoch, so ``add``/``remove`` (and gridmap swaps
        #: via :meth:`reload`) invalidate them correctly — population
        #: scale without a gridmap walk per returning session.
        self.authz = AuthzCache(accounts)
        #: session and authorization counts (read with telemetry off too)
        self.stats = SimpleNamespace(**zeros("proxy.server"))
        self._listener = None
        #: duplicate-request cache, keyed on the *pre-remap* credential
        #: (the client's identity).  It lives on the proxy object, not
        #: the session, modeling a reply cache that survives a proxy
        #: restart — a retried non-idempotent call over the replacement
        #: session replays instead of re-executing.
        self._drc = DuplicateRequestCache(sim, name=f"sproxy:{listen_port}")
        #: raw sockets of live sessions, for crash injection
        self._session_socks: list = []
        #: per-session affinity assignment: session k's record crypto is
        #: pinned to core k % N of a multi-core host, spreading distinct
        #: sessions' cipher streams across the pool deterministically.
        self._session_seq = itertools.count()
        #: per-session memo of remapped credentials, held weakly under
        #: the session's upstream client so it dies with the session:
        #: {upstream: {(mapped account, inbound cred body): outbound cred}}
        self._remapped = weakref.WeakKeyDictionary()
        #: TLS session-ticket cache (resumption); in-memory only — a
        #: crash flushes it and reconnects fall back to full handshakes.
        self.tickets: Optional[SessionTicketCache] = None
        if security is not None and security.session_tickets:
            self.tickets = SessionTicketCache(
                sim, rng=security.rng, lifetime=security.ticket_lifetime
            )
        self.obs = sim.obs
        self.tracer = sim.tracer
        self.obs.add_fields("proxy.server", self._stat)

    def _stat(self, name: str) -> int:
        """One proxy.server count; the authz cache keeps its own three."""
        cached = name.partition("authz_cache_")[2]
        return getattr(self.authz, cached) if cached else getattr(self.stats, name)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._listener = self.host.listen(self.listen_port)
        self.sim.spawn(
            self._listener.serve(lambda sock: self.sim.spawn(
                self._session(sock), name="sgfs-session")),
            name=f"sgfs-srvproxy:{self.listen_port}",
        )

    def stop(self) -> None:
        """End the proxy: stop accepting and close every live session,
        which closes its connection to nfsd as it ends."""
        self._end_sessions(lambda sock: sock.close())

    def crash(self) -> None:
        """Crash injection: what :meth:`stop` does, but each session's
        socket is reset, and the session tickets are lost.

        The DRC and authorization state survive (the reply cache models
        stable storage); clients reconnect and retried calls replay."""
        self._end_sessions(lambda sock: sock.abort())
        if self.tickets is not None:
            self.tickets.flush()

    def _end_sessions(self, end) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        socks, self._session_socks = self._session_socks, []
        for sock in socks:
            end(sock)

    #: come back up after :meth:`crash`: rebind and accept again
    restart = start

    def reload(self, security: Optional[SecurityConfig] = None,
               gridmap: Optional[Gridmap] = None) -> None:
        """Dynamic reconfiguration (§4.2): sessions accepted from now
        on handshake under the new ``security`` and are mapped by the
        new ``gridmap``.  A live session keeps its keys until its client
        proxy rekeys it (``reload_config(rekey=True)``)."""
        if security is not None:
            self.security = security
        if gridmap is not None:
            self.gridmap = gridmap

    # -- per-session ---------------------------------------------------------

    def _session(self, sock):
        self._session_socks.append(sock)
        try:
            yield from self._session_body(sock)
        finally:
            if sock in self._session_socks:
                self._session_socks.remove(sock)

    def _accept(self, sock):
        """Process generator: the accept side of a dial (the mirror of
        :func:`repro.proxy.upstream.dialer`) — wrap the connected socket
        in this proxy's transport and say who the peer is.  Returns
        ``(transport, identity)``, or None when the peer is refused."""
        if self.security is None:
            return StreamTransport(sock), self.session_identity
        try:
            transport = yield from server_handshake(
                self.sim, sock, self.security, cpu=self.host.cpu,
                account=self.account, ticket_cache=self.tickets,
            )
        except DIAL_ERRORS:
            self.stats.handshake_failures += 1
            sock.abort()
            return None
        self.stats.handshakes += 1
        # Pin this session's record crypto to one core of the pool.
        transport.affinity = next(self._session_seq)
        return transport, effective_identity(transport.peer_identity)

    def _session_body(self, sock):
        self.stats.sessions += 1
        accepted = yield from self._accept(sock)
        if accepted is None:
            return
        transport, identity = accepted
        mapped = self._map_identity(identity)

        # Upstream connection to the kernel NFS server on localhost.
        try:
            upstream_sock = yield from self.host.connect(
                self.host.name, self.nfs_server_port)
        except NetError:
            transport.close()  # nfsd is down: the client redials later
            return
        upstream = RpcClient(
            self.sim, StreamTransport(upstream_sock), pr.NFS_PROGRAM, pr.NFS_V3
        )
        try:
            yield from serve_records(self, transport, "sgfs-call",
                                     upstream, identity, mapped)
        finally:
            # however it ends, closed: the client proxy redials and retries
            upstream.close()
            transport.close()

    def _map_identity(self, identity: Optional[DistinguishedName]) -> Optional[Account]:
        """Session authorization: identity → local account, or None = deny.

        Served from the epoch-stamped :class:`AuthzCache`; a gridmap
        ``add``/``remove`` or :meth:`reload` since the last resolution
        forces a fresh lookup.  Pure wall-clock work — charges no
        virtual time, so caching never perturbs the schedule.
        """
        if identity is None:
            return None
        return self.authz.resolve(self.gridmap, identity)

    # -- per-call --------------------------------------------------------------

    def _serve(self, transport, record: bytes, upstream: RpcClient,
               identity: Optional[DistinguishedName], mapped: Optional[Account]):
        cpu = self.host.cpu
        # Inbound crypto cost was charged inside transport.recv_record();
        # here we charge the user-level RPC processing itself.
        yield from charge_profile(self.sim, cpu, self.cost, len(record), self.account)
        try:
            call = CallMessage.decode(record)
        except DECODE_ERRORS:
            return  # garbage on the wire: drop
        execute = (self._execute_compound if call.prog == COMPOUND_PROGRAM
                   else self._execute_call)
        try:
            encoded = yield from execute(upstream, call, identity, mapped)
        except RpcTransportError:
            # nfsd went away under the call and this session's connection
            # to it with it: end the session; the client redials
            transport.close()
            return
        if encoded is None:
            return  # garbage envelope: drop (the client retransmits)
        # Outbound: the user-level processing, the per-record seal, send.
        yield from charge_profile(self.sim, cpu, self.cost, len(encoded), self.account)
        yield from transport.charge(len(encoded))
        try:
            transport.send_record(encoded)
        except TRANSPORT_ERRORS:
            pass  # peer vanished

    def _execute_call(self, upstream: RpcClient, call: CallMessage,
                      identity: Optional[DistinguishedName],
                      mapped: Optional[Account]):
        """Process generator: authorize and forward exactly one call;
        returns the encoded reply record.  The DRC keys on the pre-remap
        credential: a duplicate carries the same client identity and xid
        whichever session (or sub-channel, or envelope) it rode in on.
        Transport charges stay with the caller — a compound envelope
        charges once for the whole batch, which is the round-trip
        amortization the engine is for."""
        def execute():
            with self.tracer.span("proxy.authorize", cat="proxy", prog=call.prog,
                                  proc=call.proc) if self.tracer.enabled else NULL_SPAN:
                reply = yield from self._authorize_and_forward(
                    upstream, call, identity, mapped
                )
            return reply.encode()

        encoded, _fresh = yield from self._drc.answer(
            call, pr.NON_IDEMPOTENT_PROCS if call.prog == pr.NFS_PROGRAM else (),
            execute,
        )
        return encoded

    def _execute_compound(self, upstream: RpcClient, env: CallMessage,
                          identity: Optional[DistinguishedName],
                          mapped: Optional[Account]):
        """Execute a compound envelope's members strictly in list order;
        returns the single envelope reply, encoded (None for an envelope
        that does not parse).

        Each member runs through the same DRC/authorize path as a bare
        call (so a retransmitted envelope replays its non-idempotent
        members), but the whole batch pays one inbound and one outbound
        record charge — that amortization is what the envelope buys.
        An undecodable member becomes an empty opaque in the reply so
        its siblings still land."""
        try:
            members = unpack_members(env.args)
        except XdrError:
            return None
        self.stats.compound_envelopes += 1
        self.stats.compound_members += len(members)
        out = []
        for record in members:
            try:
                call = CallMessage.decode(record)
            except DECODE_ERRORS:
                out.append(b"")
                continue
            if call.prog == COMPOUND_PROGRAM:
                out.append(b"")  # nested envelopes are not a thing
                continue
            out.append(
                (yield from self._execute_call(upstream, call, identity, mapped))
            )
        return ReplyMessage(xid=env.xid, results=pack_members(out)).encode()

    def _authorize_and_forward(self, upstream: RpcClient, call: CallMessage,
                               identity: Optional[DistinguishedName],
                               mapped: Optional[Account]):
        if call.prog != pr.NFS_PROGRAM:
            return denied_reply(call.xid, AUTH_TOOWEAK)
        if call.proc != Proc.NULL and mapped is None:
            # Authenticated but unmapped (and policy is deny), or an
            # insecure session with no assumed identity.
            self.stats.denied += 1
            return denied_reply(call.xid, AUTH_REJECTEDCRED)

        proc = call.proc
        # -- ACL-file protection -------------------------------------------
        if self.enable_acls:
            blocked = self._screen_acl_names(call)
            if blocked is not None:
                return blocked

        # -- ACCESS interception (§4.3 fine-grained control) -----------------
        if self.enable_acls and proc == Proc.ACCESS and identity is not None:
            misses_before = self.acls.cache_misses
            local = self._answer_access(call, identity)
            if self.acl_disk is not None and self.acls.cache_misses > misses_before:
                # ACL file had to come off the server's disk (§4.3:
                # "for the reason of performance, the ACLs are cached in
                # memory ... once they are read from disk").
                yield from self.acl_disk.read(1024, cached=False)
            if local is not None:
                self.stats.acl_answers += 1
                return local
            self.stats.unix_fallbacks += 1

        # -- identity mapping + forward ---------------------------------------
        cred = self._remap_credentials(upstream, call.cred, mapped)
        self.stats.granted += 1
        self.stats.calls_forwarded += 1
        reply = yield from upstream.call_detailed(int(proc), call.args, cred)
        reply.xid = call.xid
        # -- screen directory listings -----------------------------------------
        if self.enable_acls and proc in (Proc.READDIR, Proc.READDIRPLUS):
            reply = self._filter_readdir(reply, plus=(proc == Proc.READDIRPLUS))
        return reply

    def _remap_credentials(self, upstream: RpcClient, cred: OpaqueAuth,
                           mapped: Optional[Account]) -> OpaqueAuth:
        """The credential to forward: the caller's AUTH_SYS stamp under
        the mapped account's uid/gid/groups.

        The result is a pure function of the inbound credential bytes
        and the mapped account, so it is built once per such pair and
        session, not once per call; another session, or another account
        after a gridmap change, is another key."""
        if mapped is None or cred.flavor != AUTH_SYS:
            return cred
        memo = self._remapped.setdefault(upstream, {})
        key = (mapped, cred.body)
        remapped = memo.get(key)
        if remapped is None:
            try:
                auth = AuthSys.from_opaque(cred)
            except XdrError:
                return cred
            remapped = AuthSys(
                stamp=auth.stamp,
                machinename="localhost",
                uid=mapped.uid,
                gid=mapped.gid,
                gids=mapped.groups,
            ).to_opaque()
            if len(memo) >= _REMAP_MEMO_MAX:
                memo.clear()
            memo[key] = remapped
        return remapped

    # -- ACL machinery -------------------------------------------------------------

    def _screen_acl_names(self, call: CallMessage) -> Optional[ReplyMessage]:
        """Hide and protect ``.name.acl`` files from remote sessions."""
        proc = call.proc
        try:
            if proc in _NAME_PROCS:
                _fh, name = pr.unpack_diropargs_prefix(call.args)
                if is_acl_name(name):
                    status = (
                        NfsStatus.NOENT if proc == Proc.LOOKUP else NfsStatus.ACCES
                    )
                    return self._local_error(call, status)
            elif proc == Proc.RENAME:
                f_dir, f_name, t_dir, t_name = pr.unpack_rename_args(call.args)
                if is_acl_name(f_name) or is_acl_name(t_name):
                    return self._local_error(call, NfsStatus.ACCES)
            elif proc == Proc.LINK:
                _fh, _dir, name = pr.unpack_link_args(call.args)
                if is_acl_name(name):
                    return self._local_error(call, NfsStatus.ACCES)
        except XdrError:
            return None  # undecodable: let the server reject it
        return None

    @staticmethod
    def _local_error(call: CallMessage, status: NfsStatus) -> ReplyMessage:
        body = pr.error_result(Proc(call.proc), status)
        return ReplyMessage(xid=call.xid, results=body)

    def _answer_access(self, call: CallMessage, identity: DistinguishedName):
        """Answer ACCESS from grid ACLs; None -> fall back to UNIX."""
        try:
            fh, want = pr.unpack_access_args(call.args)
            node = self.fs.inode(fh.fileid)
        except (XdrError, VfsError):
            return None  # undecodable or stale: let the server say so
        bits = self.acls.evaluate(node.fileid, identity)
        if bits is None:
            return None  # no ACL in force: UNIX fallback upstream
        attr = Fattr3.of(node, self.fs.fsid)
        body = pr.pack_access_res(NfsStatus.OK, attr, bits & want)
        return ReplyMessage(xid=call.xid, results=body)

    def _filter_readdir(self, reply: ReplyMessage, plus: bool) -> ReplyMessage:
        res = pr.read_ok(reply, pr.unpack_readdir_res, plus=plus)
        if res is None:
            return reply
        status, dir_attr, entries, eof = res
        visible = [e for e in entries if not is_acl_name(e.name)]
        if len(visible) == len(entries):
            return reply
        reply.results = pr.pack_readdir_res(status, dir_attr, visible, eof, plus=plus)
        return reply
