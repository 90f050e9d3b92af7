"""Client-side SGFS proxy (paper Figure 1 left, §6 "sgfs" setups).

Accepts the unmodified kernel NFS client's connections on localhost and
forwards each RPC to the server-side proxy over a pluggable transport
(plain TCP for *gfs*, the SSL-like channel for *sgfs*, an SSH tunnel for
*gfs-ssh*).  Optionally interposes a **disk cache**:

- attributes, lookups and access results are cached aggressively for
  the lifetime of the session (sessions are per-user/application, so
  the sharing hazards of a shared cache do not apply — §6.1),
- file data is cached in 32 KB blocks on the proxy's disk; hits pay the
  local disk instead of the WAN round trip,
- writes are absorbed **write-back**: the proxy answers WRITE locally,
  keeps the dirty blocks, and writes back on COMMIT, on eviction, and
  at session teardown (:meth:`SgfsClientProxy.writeback`) — which is
  how Seismic's temporary files never cross the WAN (§6.3.2) and why
  the paper reports the end-of-run write-back time separately.

This write-back relaxation is safe precisely because an SGFS session is
dedicated to a single user/job; multi-writer sharing uses the overlay
consistency protocols of [46] (out of scope, see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.nfs import protocol as pr
from repro.obs import NULL_SPAN
from repro.obs.schema import zeros
from repro.nfs.protocol import Fattr3, FileHandle, NfsStatus, Proc
from repro.proxy.block_cache import BlockCache, ProxyCacheConfig
from repro.rpc.auth import NULL_AUTH
from repro.rpc.costs import CostProfile, FREE_PROFILE, charge_profile
from repro.rpc.drc import DuplicateRequestCache, drc_key
from repro.rpc.messages import DECODE_ERRORS, CallMessage, ReplyMessage
from repro.rpc.transport import TRANSPORT_ERRORS, StreamTransport, Transport
from repro.sim.core import Event, Simulator
from repro.sim.sync import Gate
from repro.vfs.disk import DiskModel

#: NFS procedures that must not re-execute on a duplicate request.
_NFS_NON_IDEMPOTENT = frozenset(int(p) for p in pr.NON_IDEMPOTENT_PROCS)


class SgfsClientProxy:
    """The client-side proxy process."""

    def __init__(
        self,
        sim: Simulator,
        host,
        listen_port: int,
        upstream,
        cost: CostProfile = FREE_PROFILE,
        account: str = "proxy",
        cache: Optional[ProxyCacheConfig] = None,
        disk: Optional[DiskModel] = None,
        blocking: bool = True,
        cryptor=None,
    ):
        """``upstream`` is where forwarded calls go: an
        :class:`~repro.proxy.upstream.UpstreamSession` (one recoverable
        leg to the server-side proxy; its dial is where the gfs / sgfs /
        gfs-ssh variants differ) or a :class:`repro.grid.GridRouter`
        over one such leg per backend — anything with their
        ``legs``/``forward``/``burst``/``connect`` surface.  The proxy's
        ``_upstream``/``upstream_timeo`` views refer to leg 0, the only
        leg of a plain mount and the home (namespace) leg of a grid.

        ``cryptor`` (a :class:`repro.proxy.cryptofs.BlockCryptor`)
        enables at-rest protection: every block is sealed before it
        leaves the session and verified+opened when fetched back, so the
        file server only ever stores ciphertext (§7 future work).
        Requires ``cache.enabled`` with ``write_back`` — the block cache
        is what aligns all data movement to sealable units."""
        self.sim = sim
        self.host = host
        self.listen_port = listen_port
        self.cost = cost
        self.account = account
        self.cache = cache or ProxyCacheConfig()
        self.blocking = blocking
        self.cryptor = cryptor
        if cryptor is not None and not (self.cache.enabled and self.cache.write_back):
            raise ValueError(
                "at-rest protection requires the disk cache with write-back"
            )
        self._up = upstream
        #: blocks currently being fetched by a read window, so a second
        #: reader coalesces onto the in-flight fetch instead of
        #: duplicating it (keyed (fileid, block))
        self._inflight_reads: Dict[Tuple[int, int], Event] = {}
        self._listener = None
        #: duplicate-request cache for the kernel client's leg: the
        #: proxy rewrites xids upstream, so each serving hop needs its
        #: own DRC for exactly-once semantics of non-idempotent calls
        self._drc = DuplicateRequestCache(sim, name=f"cproxy:{listen_port}")
        #: closed while a configuration reload is being applied (§4.2);
        #: in-flight calls finish, new ones wait at the gate.
        self._serving = Gate(sim, open=True, name="cproxy-serving")

        # --- session-lifetime caches -------------------------------------
        self._attrs: Dict[int, Fattr3] = {}
        #: when each attr entry was last validated against the server
        self._attr_time: Dict[int, float] = {}
        self._handles: Dict[int, FileHandle] = {}
        self._lookups: Dict[Tuple[int, str], Tuple[FileHandle, int]] = {}
        self._access: Dict[Tuple[int, int], int] = {}
        self._blocks = BlockCache(sim, self.cache, disk)
        #: the session's AUTH_SYS credential, captured from client calls
        #: and reused for write-back WRITEs the proxy originates itself
        self._session_cred = None

        # --- statistics ----------------------------------------------------
        self.obs = sim.obs
        self.tracer = sim.tracer
        #: the source of truth (``writeback()`` reads it); the registry
        #: polls a copy at snapshot time, at zero hot-path cost
        self.stats = zeros("proxy.client")
        self.obs.add_collector("proxy.client", self.stats.copy)
        for leg in self._up.legs:
            leg.stats = self.stats

    # -- upstream leg views --------------------------------------------------
    # The recovery machinery lives in UpstreamSession; these properties
    # are the surface tests and the fault harness use (they read
    # _upstream and set upstream_timeo / upstream_retrans directly).
    # Leg 0 is the only leg of a plain mount and the home leg of a grid.

    @property
    def _upstream(self) -> Optional[Transport]:
        return self._up.legs[0].transport

    @property
    def upstream_timeo(self) -> Optional[float]:
        return self._up.legs[0].timeo

    @upstream_timeo.setter
    def upstream_timeo(self, value: Optional[float]) -> None:
        for leg in self._up.legs:
            leg.timeo = value

    @property
    def upstream_retrans(self) -> int:
        return self._up.legs[0].retrans

    @upstream_retrans.setter
    def upstream_retrans(self, value: int) -> None:
        for leg in self._up.legs:
            leg.retrans = value

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Process generator: connect upstream, then start accepting."""
        yield from self._up.connect()
        self._listener = self.host.listen(self.listen_port)
        self.sim.spawn(
            self._listener.serve(lambda sock: self.sim.spawn(
                self._connection(sock), name="cproxy-conn")),
            name=f"sgfs-cproxy:{self.listen_port}",
        )
        return self

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def _connection(self, sock):
        transport = StreamTransport(sock)
        while True:
            try:
                record = yield from transport.recv_record()
            except TRANSPORT_ERRORS:
                return
            if record is None:
                return
            if self.blocking:
                yield from self._serve(transport, record)
            else:
                self.sim.spawn(self._serve(transport, record), name="cproxy-call")

    # -- cache bookkeeping --------------------------------------------------------

    def _remember_attr(self, fh: Optional[FileHandle], attr: Optional[Fattr3]) -> None:
        if attr is None or not self.cache.cache_attrs:
            return
        if self._blocks.dirty.get(attr.fileid):
            # The file has unflushed local writes: the server's view of
            # size/mtime is stale by design.  Keep the shadow values.
            old = self._attrs.get(attr.fileid)
            if old is not None:
                attr = replace(
                    attr,
                    size=max(old.size, attr.size),
                    used=max(old.used, attr.used),
                    mtime=max(old.mtime, attr.mtime),
                    ctime=max(old.ctime, attr.ctime),
                )
        self._attrs[attr.fileid] = attr
        self._attr_time[attr.fileid] = self.sim.now
        if fh is not None:
            self._handles[attr.fileid] = fh

    def _block_put(self, fileid: int, block: int, data: bytes, dirty: bool):
        """Process generator: cache a block, then write back whatever
        dirty blocks the insert pushed out (one RTT-sized burst per
        pipeline window — the write-behind half of the data path)."""
        yield from self._blocks.put(fileid, block, data, dirty)
        victims = self._blocks.evict((fileid, block), self._window())
        yield from self._writeback_window(victims)

    def _maybe_revalidate(self, fh: FileHandle):
        """Process generator: under "poll" consistency, refresh a stale
        cache entry from the server; returns the current attrs (or None).

        A changed mtime/size drops the file's cached blocks — the
        bounded-staleness overlay of [46] on top of NFS semantics.
        Files with local dirty data are ours by definition and skip
        revalidation (their shadow attrs are authoritative).
        """
        attr = self._attrs.get(fh.fileid)
        if attr is None or self.cache.consistency != "poll":
            return attr
        if self._blocks.dirty.get(fh.fileid):
            return attr
        age = self.sim.now - self._attr_time.get(fh.fileid, -1e18)
        if age <= self.cache.consistency_ttl:
            return attr
        call = CallMessage(
            0, pr.NFS_PROGRAM, pr.NFS_V3, int(Proc.GETATTR),
            cred=self._session_cred if self._session_cred is not None else NULL_AUTH,
            args=pr.pack_getattr_args(fh),
        )
        self.stats["revalidations"] += 1
        reply = yield from self._up.forward(call)
        res = pr.read_ok(reply, pr.unpack_getattr_res)
        if res is None:
            # whatever the server said instead, the entry is not known
            # good any more: the caller forwards and relays the answer
            self._attrs.pop(fh.fileid, None)
            return None
        fresh = res[1]
        if fresh.mtime != attr.mtime or fresh.size != attr.size:
            # someone else changed the file: drop our stale data
            self.stats["revalidation_drops"] += 1
            self._blocks.drop_file(fh.fileid, keep_dirty=True)
        self._attrs[fh.fileid] = fresh
        self._attr_time[fh.fileid] = self.sim.now
        return fresh

    def _drop_file(self, fileid: int) -> None:
        self._blocks.drop_file(fileid)
        self._attrs.pop(fileid, None)

    # -- serving ------------------------------------------------------------------

    def _serve(self, transport: Transport, record: bytes):
        if not self._serving.is_open:
            yield self._serving.wait()
        cpu = self.host.cpu
        yield from charge_profile(self.sim, cpu, self.cost, len(record), self.account)
        try:
            call = CallMessage.decode(record)
        except DECODE_ERRORS:
            return
        if call.prog == pr.NFS_PROGRAM and call.proc in _NFS_NON_IDEMPOTENT:
            encoded, _fresh = yield from self._drc.once(
                drc_key(call), lambda: self._execute(call)
            )
        else:
            encoded = yield from self._execute(call)
        yield from charge_profile(self.sim, cpu, self.cost, len(encoded), self.account)
        try:
            transport.send_record(encoded)
        except TRANSPORT_ERRORS:
            pass  # the kernel client went away; it redials and retries

    def _forward(self, call: CallMessage):
        """Forward upstream with retry/reconnect (see
        :class:`UpstreamSession`; grid-routed when the striped data
        plane is attached)."""
        self.stats["forwarded"] += 1
        reply = yield from self._up.forward(call)
        reply.xid = call.xid
        return reply

    def _forward_noting(self, call: CallMessage, fh: FileHandle, unpack):
        """Forward a call whose OK result is ``(status, post-op attributes
        of fh, ...)`` and remember those attributes."""
        reply = yield from self._forward(call)
        res = pr.read_ok(reply, unpack)
        if res is not None:
            self._remember_attr(fh, res[1])
        return reply

    def cycle_upstream(self):
        """Process generator: proactively tear down and re-establish the
        upstream session(s) — every backend leg in index order when the
        grid data plane is attached (see :meth:`UpstreamSession.cycle`)."""
        for leg in self._up.legs:
            yield from leg.cycle()

    def _execute(self, call: CallMessage):
        """Process generator: answer one call (from the caches or
        upstream); returns the encoded reply record."""
        if call.cred.flavor != 0:
            self._session_cred = call.cred
        handler = self._forward
        if call.prog == pr.NFS_PROGRAM and self.cache.enabled:
            handler = {
                int(Proc.GETATTR): self._h_getattr,
                int(Proc.LOOKUP): self._h_lookup,
                int(Proc.ACCESS): self._h_access,
                int(Proc.READ): self._h_read,
                int(Proc.WRITE): self._h_write,
                int(Proc.COMMIT): self._h_commit,
                int(Proc.SETATTR): self._h_setattr,
                int(Proc.CREATE): self._h_create,
                int(Proc.MKDIR): self._h_create,
                int(Proc.SYMLINK): self._h_create,
                int(Proc.REMOVE): self._h_remove,
                int(Proc.RMDIR): self._h_remove,
                int(Proc.RENAME): self._h_rename,
            }.get(call.proc, self._forward)
        with self.tracer.span("proxy.serve", cat="proxy", prog=call.prog,
                              proc=call.proc) if self.tracer.enabled else NULL_SPAN:
            reply = yield from handler(call)
        return reply.encode()

    # -- attribute & name procedures ---------------------------------------------------

    def _h_getattr(self, call: CallMessage):
        fh = pr.unpack_getattr_args(call.args)
        attr = yield from self._maybe_revalidate(fh)
        if attr is not None:
            self.stats["attr_hits"] += 1
            self.stats["local_replies"] += 1
            yield from self._blocks.disk_read(256)  # attrs live in the disk cache
            return ReplyMessage(
                xid=call.xid, results=pr.pack_getattr_res(NfsStatus.OK, attr)
            )
        reply = yield from self._forward(call)
        res = pr.read_ok(reply, pr.unpack_getattr_res)
        if res is None:
            return reply
        status, got = res
        self._remember_attr(fh, got)
        merged = self._attrs.get(fh.fileid)
        if merged is not None and merged is not got:
            # dirty file: answer with the shadow view
            reply.results = pr.pack_getattr_res(status, merged)
        return reply

    def _h_lookup(self, call: CallMessage):
        dir_fh, name = pr.unpack_lookup_args(call.args)
        hit = self._lookups.get((dir_fh.fileid, name))
        if hit is not None:
            fh, fileid = hit
            attr = self._attrs.get(fileid)
            dir_attr = self._attrs.get(dir_fh.fileid)
            if attr is not None:
                self.stats["local_replies"] += 1
                yield from self._blocks.disk_read(256)
                return ReplyMessage(
                    xid=call.xid,
                    results=pr.pack_lookup_res(NfsStatus.OK, fh, attr, dir_attr),
                )
        reply = yield from self._forward(call)
        res = pr.read_ok(reply, pr.unpack_lookup_res)
        if res is None:
            return reply
        status, fh, attr, dir_attr = res
        if fh is not None and attr is not None:
            self._remember_attr(fh, attr)
            self._remember_attr(dir_fh, dir_attr)
            self._lookups[(dir_fh.fileid, name)] = (fh, attr.fileid)
            merged = self._attrs.get(attr.fileid)
            if merged is not None and merged is not attr:
                reply.results = pr.pack_lookup_res(
                    status, fh, merged, self._attrs.get(dir_fh.fileid) or dir_attr
                )
        return reply

    def _h_access(self, call: CallMessage):
        fh, want = pr.unpack_access_args(call.args)
        if self.cache.cache_access:
            cached = self._access.get((fh.fileid, 0))
            if cached is not None:
                attr = self._attrs.get(fh.fileid)
                self.stats["local_replies"] += 1
                yield from self._blocks.disk_read(128)
                return ReplyMessage(
                    xid=call.xid,
                    results=pr.pack_access_res(NfsStatus.OK, attr, cached & want),
                )
        # Ask for all bits so one round trip answers future queries too.
        full = replace(call, args=pr.pack_access_args(fh, pr.ACCESS_ALL))
        reply = yield from self._forward(full)
        res = pr.read_ok(reply, pr.unpack_access_res)
        if res is None:
            return reply
        status, attr, granted = res
        self._remember_attr(fh, attr)
        if self.cache.cache_access:
            self._access[(fh.fileid, 0)] = granted
        merged = self._attrs.get(fh.fileid) or attr
        reply.results = pr.pack_access_res(status, merged, granted & want)
        return reply

    # -- data procedures -------------------------------------------------------------

    def _h_read(self, call: CallMessage):
        fh, offset, count = pr.unpack_read_args(call.args)
        bs = self.cache.block_size
        if not self.cache.cache_data or offset % bs or count > bs:
            return (yield from self._forward(call))
        block = offset // bs
        yield from self._maybe_revalidate(fh)
        data = yield from self._blocks.get(fh.fileid, block)
        if data is not None:
            self.stats["data_hits"] += 1
            return self._local_read_reply(call, fh, offset, data, count)
        self.stats["data_misses"] += 1
        return (yield from self._read_window(call, fh, block, count))

    def _local_read_reply(self, call: CallMessage, fh: FileHandle,
                          offset: int, data: bytes, count: int) -> ReplyMessage:
        self.stats["local_replies"] += 1
        attr = self._attrs.get(fh.fileid)
        size = attr.size if attr is not None else offset + len(data)
        chunk = data[:count]
        return ReplyMessage(
            xid=call.xid,
            results=pr.pack_read_res(
                NfsStatus.OK, attr, chunk, offset + len(chunk) >= size
            ),
        )

    # -- read window and write-behind: the one upstream data path.  A
    # single-stream leg runs it at window 1 — one block per round trip,
    # the paper's proxy; a multi-stream leg widens the window to the RTT.

    def _window(self) -> int:
        return max(leg.window() for leg in self._up.legs)

    def _read_window(self, call: CallMessage, fh: FileHandle, block: int,
                     count: int):
        """Process generator: windowed read-ahead for a block-cache miss.

        Fetches the demanded block — always whole, regardless of the
        requested count — plus up to window-1 sequential successors in
        one burst.  Determinism rules: target blocks are chosen in
        ascending order, fetches are issued in that order (how a burst
        is spread over legs and channels is the upstream's business:
        :meth:`UpstreamSession.burst`, :meth:`GridRouter.burst`), and
        results are installed in ascending block order — reply arrival
        order never influences cache state."""
        bs = self.cache.block_size
        pending = self._inflight_reads.get((fh.fileid, block))
        if pending is not None:
            # another reader's window already has this block in flight
            # (this READ stays the miss _h_read counted it as)
            yield pending
            data = yield from self._blocks.get(fh.fileid, block)
            if data is not None:
                return self._local_read_reply(call, fh, block * bs, data, count)
        wanted = [block]
        attr = self._attrs.get(fh.fileid)
        if attr is not None:
            last_block = (attr.size + bs - 1) // bs - 1
            for nxt in range(block + 1, min(block + self._window(),
                                            last_block + 1)):
                key = (fh.fileid, nxt)
                if key not in self._blocks and key not in self._inflight_reads:
                    wanted.append(nxt)
        fetches = []
        for b in wanted:
            self._inflight_reads[(fh.fileid, b)] = self.sim.event(
                name=f"rdwin:{fh.fileid}:{b}"
            )
            fetches.append(CallMessage(
                call.xid, call.prog, call.vers, call.proc, call.cred,
                call.verf, pr.pack_read_args(fh, b * bs, bs),
            ))
        demanded = None        # parsed (status, attr, data, eof) for `block`
        demanded_reply = None  # raw ReplyMessage for `block`
        self.stats["forwarded"] += len(fetches)
        try:
            replies = yield from self._up.burst(fetches)
            for b, reply in zip(wanted, replies):
                if b == block:
                    demanded_reply = reply  # None: the member went unanswered
                res = pr.read_ok(reply, pr.unpack_read_res)
                if res is None:
                    continue
                status, rattr, data, eof = res
                if self.cryptor is not None and data:
                    from repro.proxy.cryptofs import AtRestIntegrityError

                    try:
                        data = self.cryptor.open(fh.fileid, b, data)
                        self.stats["blocks_opened"] += 1
                    except AtRestIntegrityError:
                        # server-side tampering: surface an I/O error
                        if b == block:
                            demanded = (NfsStatus.IO, rattr, b"", False)
                        continue
                self._remember_attr(fh, rattr)
                if data:
                    yield from self._block_put(fh.fileid, b, data, dirty=False)
                if b == block:
                    demanded = (status, self._attrs.get(fh.fileid) or rattr,
                                data, eof)
        finally:
            # waiters always wake, even when the fetch failed — they
            # re-check the cache and fall back to their own fetch
            for b in wanted:
                ev = self._inflight_reads.pop((fh.fileid, b), None)
                if ev is not None and not ev.triggered:
                    ev.succeed(None)
        if demanded is not None:
            status, rattr, data, eof = demanded  # data is b"" unless OK
            return ReplyMessage(
                xid=call.xid,
                results=pr.pack_read_res(status, rattr, data[:count], eof),
            )
        if demanded_reply is not None:
            # an error, or a reply that does not parse: passed through
            demanded_reply.xid = call.xid
            return demanded_reply
        # the burst produced no reply for the demanded block (a compound
        # member the server could not answer): forward it on its own
        return (yield from self._forward(fetches[0]))

    def _writeback_window(self, items):
        """Process generator: write back ``(fileid, block, data)`` items
        in bursts of one pipeline window (the write-behind half of the
        data path; eviction, COMMIT and teardown all end here).

        Items are sealed and issued in list order; statuses are
        consumed in the same order, so accounting is independent of
        reply arrival."""
        start = 0
        while start < len(items):
            # re-sized per burst: the first burst of a cold session runs
            # at window 1 and seeds the bulk RTT estimator, widening the
            # bursts that follow it
            burst = items[start:start + self._window()]
            start += len(burst)
            calls = []
            for fileid, blk, data in burst:
                fh = self._handles.get(fileid)
                if fh is None:
                    continue
                if self.cryptor is not None and data:
                    data = self.cryptor.seal(fileid, blk, data)
                    self.stats["blocks_sealed"] += 1
                calls.append(CallMessage(
                    0, pr.NFS_PROGRAM, pr.NFS_V3, int(Proc.WRITE),
                    cred=(self._session_cred
                          if self._session_cred is not None else NULL_AUTH),
                    args=pr.pack_write_args(
                        fh, blk * self.cache.block_size, data, pr.FILE_SYNC
                    ),
                ))
            if not calls:
                continue
            replies = yield from self._up.burst(calls)
            for reply in replies:
                res = pr.read_ok(reply, pr.unpack_write_res)
                if res is not None:
                    self.stats["writeback_blocks"] += 1
                    self.stats["writeback_bytes"] += res[2]
                else:
                    self.stats["writeback_errors"] += 1

    def _h_write(self, call: CallMessage):
        fh, offset, stable, payload = pr.unpack_write_args(call.args)
        bs = self.cache.block_size
        if not self.cache.write_back:
            return (yield from self._forward_noting(call, fh, pr.unpack_write_res))
        # Absorb at any offset: split the payload into block spans and
        # merge each over whatever the cache already holds.
        pos = offset
        view = memoryview(payload)
        while view.nbytes > 0:
            block = pos // bs
            inner = pos - block * bs
            take = min(bs - inner, view.nbytes)
            existing = yield from self._blocks.get(fh.fileid, block)
            if existing is None and inner > 0:
                # partial block with unknown prefix: zero-fill (the kernel
                # client only produces this beyond the old EOF)
                existing = b""
            merged = bytearray(existing or b"")
            if len(merged) < inner + take:
                merged.extend(b"\x00" * (inner + take - len(merged)))
            merged[inner : inner + take] = view[:take].tobytes()
            yield from self._block_put(fh.fileid, block, bytes(merged), dirty=True)
            pos += take
            view = view[take:]
        self.stats["writes_absorbed"] += 1
        self.stats["local_replies"] += 1
        attr = self._shadow_write_attr(fh, offset + len(payload))
        return ReplyMessage(
            xid=call.xid,
            results=pr.pack_write_res(
                NfsStatus.OK, attr, len(payload), pr.FILE_SYNC, b"sgfsprox"
            ),
        )

    def _shadow_write_attr(self, fh: FileHandle, end: int) -> Optional[Fattr3]:
        attr = self._attrs.get(fh.fileid)
        if attr is None:
            attr = Fattr3(
                ftype=1, mode=0o644, nlink=1, uid=0, gid=0, size=0, used=0,
                fsid=fh.fsid, fileid=fh.fileid, atime=self.sim.now,
                mtime=self.sim.now, ctime=self.sim.now,
            )
        new = replace(
            attr, size=max(attr.size, end), used=max(attr.used, end),
            mtime=self.sim.now, ctime=self.sim.now,
        )
        self._attrs[fh.fileid] = new
        self._handles[fh.fileid] = fh
        return new

    def _h_commit(self, call: CallMessage):
        fh, _off, _cnt = pr.unpack_commit_args(call.args)
        if self.cache.write_back:
            # Write-back absorbs durability: the data ages out to the
            # server on eviction/teardown, not at every client COMMIT —
            # the single-user-session relaxation the paper's WAN results
            # (and its separately-reported write-back times) rest on.
            self.stats["local_replies"] += 1
            attr = self._attrs.get(fh.fileid)
            return ReplyMessage(
                xid=call.xid,
                results=pr.pack_commit_res(NfsStatus.OK, attr, b"sgfsprox"),
            )
        items = yield from self._blocks.gather_dirty([fh.fileid])
        yield from self._writeback_window(items)
        return (yield from self._forward_noting(call, fh, pr.unpack_commit_res))

    def _h_setattr(self, call: CallMessage):
        fh, sattr = pr.unpack_setattr_args(call.args)
        if sattr.size is not None:
            self._drop_file(fh.fileid)
        return (yield from self._forward_noting(call, fh, pr.unpack_setattr_res))

    def _h_create(self, call: CallMessage):
        dir_fh, name = pr.unpack_diropargs_prefix(call.args)
        reply = yield from self._forward(call)
        res = pr.read_ok(reply, pr.unpack_create_res)
        if res is None:
            return reply
        _status, fh, attr, _dir_after = res
        if fh is not None and attr is not None:
            self._remember_attr(fh, attr)
            self._lookups[(dir_fh.fileid, name)] = (fh, attr.fileid)
        return reply

    def _h_remove(self, call: CallMessage):
        dir_fh, name = pr.unpack_remove_args(call.args)
        hit = self._lookups.pop((dir_fh.fileid, name), None)
        if hit is not None:
            # Dirty data of a deleted file is never written back — the
            # Seismic §6.3.2 "only final results cross the WAN" effect.
            self._drop_file(hit[1])
            if self.cryptor is not None:
                self.cryptor.forget_file(hit[1])
        self._attrs.pop(dir_fh.fileid, None)
        return (yield from self._forward(call))

    def _h_rename(self, call: CallMessage):
        f_dir, f_name, t_dir, t_name = pr.unpack_rename_args(call.args)
        self._lookups.pop((f_dir.fileid, f_name), None)
        self._lookups.pop((t_dir.fileid, t_name), None)
        self._attrs.pop(f_dir.fileid, None)
        self._attrs.pop(t_dir.fileid, None)
        return (yield from self._forward(call))

    # -- write-back ---------------------------------------------------------------------

    def writeback(self):
        """Flush every dirty block — session teardown.

        Returns (blocks, bytes) written back; the harness times this to
        reproduce the paper's separately-reported write-back cost.
        """
        before_blocks = self.stats["writeback_blocks"]
        before_bytes = self.stats["writeback_bytes"]
        with self.tracer.span("proxy.writeback",
                              cat="proxy") if self.tracer.enabled else NULL_SPAN:
            # One windowed flush across files, not one per file:
            # teardown after a many-small-files workload (PostMark, MAB)
            # is otherwise one WAN round trip per file.  Only files whose
            # handle the session has seen can be written; any other
            # stays dirty.
            flushable = [f for f in list(self._blocks.dirty)
                         if f in self._handles]
            items = yield from self._blocks.gather_dirty(flushable)
            yield from self._writeback_window(items)
        return (
            self.stats["writeback_blocks"] - before_blocks,
            self.stats["writeback_bytes"] - before_bytes,
        )

    # -- dynamic reconfiguration (§4.2) ----------------------------------------

    def reload_config(self, cache: Optional[ProxyCacheConfig] = None,
                      rekey: bool = False):
        """Process generator: apply a configuration reload to the live
        session.

        Serving pauses at the gate while the change lands: the cache
        section is swapped (disabling the cache flushes dirty data
        first so nothing is stranded), and ``rekey`` forces an SSL
        renegotiation — the signal used when a certificate is rotated
        or a long-lived session's keys should be refreshed.
        """
        self._serving.close()
        try:
            if cache is not None:
                if not cache.enabled or not cache.write_back:
                    yield from self.writeback()
                self.cache = self._blocks.config = cache
            if rekey and hasattr(self._upstream, "renegotiate"):
                self._upstream.renegotiate()
        finally:
            self._serving.open()

    @property
    def dirty_bytes(self) -> int:
        return self._blocks.dirty_bytes
