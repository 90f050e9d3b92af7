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

import itertools
from dataclasses import replace
from typing import Dict, FrozenSet, Optional, Tuple

from repro.nfs import protocol as pr
from repro.obs import NULL_SPAN
from repro.obs.schema import zeros
from repro.nfs.protocol import Fattr3, FileHandle, NfsStatus, Proc
from repro.proxy.block_cache import BlockCache, ProxyCacheConfig
from repro.proxy.upstream import WINDOWS_IN_FLIGHT
from repro.rpc.auth import NULL_AUTH
from repro.rpc.costs import CostProfile, FREE_PROFILE, charge_profile
from repro.rpc.drc import DuplicateRequestCache, drc_key
from repro.rpc.messages import DECODE_ERRORS, CallMessage, ReplyMessage
from repro.rpc.transport import TRANSPORT_ERRORS, StreamTransport, Transport
from repro.sim.core import Event, Simulator
from repro.sim.process import Process
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
        #: blocks currently being fetched by a demand or read-ahead
        #: window, so a reader coalesces onto the in-flight fetch instead
        #: of duplicating it (keyed (fileid, block))
        self._inflight_reads: Dict[Tuple[int, int], Event] = {}
        #: per file, the first block past the windows already fetched or
        #: in flight ahead of its reader (the read-ahead cursor)
        self._ahead: Dict[int, int] = {}
        #: in-flight read-ahead bursts, keyed (fileid, serial number)
        self._prefetches: Dict[Tuple[int, int], Process] = {}
        self._serial = itertools.count()
        #: evicted dirty blocks whose write-back WRITE is in flight: a
        #: victim stays readable here until its reply lands
        self._writing: Dict[Tuple[int, int], bytes] = {}
        #: in-flight write-behind bursts, oldest first, keyed by the
        #: (fileid, block) keys each one carries
        self._write_bursts: Dict[FrozenSet[Tuple[int, int]], Process] = {}
        #: windows kept in flight: one (stop-and-wait) unless a leg is
        #: multi-stream
        self._depth = (WINDOWS_IN_FLIGHT
                       if any(leg.streams > 1 for leg in upstream.legs) else 1)
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

    def _unflushed(self, fileid: int) -> bool:
        """Whether the file has local writes the server has not applied:
        dirty blocks in the cache or victims on their way upstream."""
        return bool(self._blocks.dirty.get(fileid)) or any(
            f == fileid for keys in self._write_bursts for f, _b in keys)

    def _remember_attr(self, fh: Optional[FileHandle], attr: Optional[Fattr3]) -> None:
        if attr is None or not self.cache.cache_attrs:
            return
        if self._unflushed(attr.fileid):
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
        """Process generator: cache a block; the dirty blocks the insert
        pushed out leave through write-behind (:meth:`_write_behind`)."""
        yield from self._blocks.put(fileid, block, data, dirty)
        victims = self._blocks.evict((fileid, block), self._window())
        if victims:
            yield from self._write_behind(victims)

    def _cached(self, fileid: int, block: int):
        """Process generator: the block's bytes — from the cache, else
        from a write-back still in flight — or None."""
        data = yield from self._blocks.get(fileid, block)
        return data if data is not None else self._writing.get((fileid, block))

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
        if self._unflushed(fh.fileid):
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
        self._ahead.pop(fileid, None)

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
        data = yield from self._cached(fh.fileid, block)
        if data is not None:
            self.stats["data_hits"] += 1
            reply = self._local_read_reply(call, fh, offset, data, count)
        else:
            self.stats["data_misses"] += 1
            reply = yield from self._read_window(call, fh, block, count)
        self._read_ahead(call, fh, block)
        return reply

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
    # single-stream leg runs it at window 1 with one window in flight —
    # one block per round trip, the paper's proxy; a multi-stream leg
    # widens the window to the RTT and keeps WINDOWS_IN_FLIGHT of them
    # in flight, ahead of the reader and behind the writer.

    def _window(self) -> int:
        return max(leg.window() for leg in self._up.legs)

    def _absent(self, fileid: int, block: int) -> bool:
        """Neither cached, nor being fetched, nor being written back."""
        key = (fileid, block)
        return (key not in self._blocks and key not in self._inflight_reads
                and key not in self._writing)

    def _read_window(self, call: CallMessage, fh: FileHandle, block: int,
                     count: int):
        """Process generator: the demand fetch for a block-cache miss.

        Fetches the demanded block — always whole, regardless of the
        requested count — plus up to window-1 sequential successors in
        one burst, and moves the file's read-ahead cursor past them."""
        bs = self.cache.block_size
        pending = self._inflight_reads.get((fh.fileid, block))
        if pending is not None:
            # another window already has this block in flight (this
            # READ stays the miss _h_read counted it as)
            yield pending
            data = yield from self._cached(fh.fileid, block)
            if data is not None:
                return self._local_read_reply(call, fh, block * bs, data, count)
        wanted = [block]
        attr = self._attrs.get(fh.fileid)
        if attr is not None:
            end = min(block + self._window(), (attr.size + bs - 1) // bs)
            wanted += [b for b in range(block + 1, end)
                       if self._absent(fh.fileid, b)]
            self._ahead[fh.fileid] = end
        self._claim(fh.fileid, wanted)
        results = yield from self._fetch(call, fh, wanted)
        reply, res = results[0]
        if res is not None:
            status, rattr, data, eof = res  # data is b"" unless OK
            return ReplyMessage(
                xid=call.xid,
                results=pr.pack_read_res(status, rattr, data[:count], eof),
            )
        if reply is not None:
            # an error, or a reply that does not parse: passed through
            reply.xid = call.xid
            return reply
        # the burst produced no reply for the demanded block (a compound
        # member the server could not answer): forward it on its own
        return (yield from self._forward(
            replace(call, args=pr.pack_read_args(fh, block * bs, bs))))

    def _read_ahead(self, call: CallMessage, fh: FileHandle, block: int) -> None:
        """Keep the reader's window and ``depth`` more after a READ at
        ``block`` cached or in flight: each *full* window of the blocks
        ``block + 1`` … ``block + (depth + 1) * window`` not yet fetched
        or in flight gets one background burst (:meth:`_prefetch`) for
        its absent blocks, claimed before it is spawned, so demand
        misses and writes wait for it.  The per-file cursor makes this
        O(1) per READ; nothing runs ahead on a single-stream leg."""
        depth = self._depth
        attr = self._attrs.get(fh.fileid)
        if depth == 1 or attr is None:
            return
        window = self._window()
        bs = self.cache.block_size
        nblocks = (attr.size + bs - 1) // bs
        end = min(block + 1 + (depth + 1) * window, nblocks)
        nxt = self._ahead.get(fh.fileid, 0)
        if not block < nxt <= end:
            nxt = block + 1  # the reader moved: start again behind it
        # a window the end of the file cuts short counts as full
        while nxt + window <= end or nxt < end == nblocks:
            stop = min(nxt + window, end)
            wanted = [b for b in range(nxt, stop) if self._absent(fh.fileid, b)]
            if wanted:
                self._claim(fh.fileid, wanted)
                key = (fh.fileid, next(self._serial))
                self._prefetches[key] = self.sim.spawn(
                    self._prefetch(key, call, fh, wanted), name="cproxy-readahead")
            nxt = stop
        self._ahead[fh.fileid] = nxt

    def _prefetch(self, key, call: CallMessage, fh: FileHandle, wanted):
        """Process: one read-ahead burst, registered in ``_prefetches``
        under ``key`` until it ends.  A burst that fails caches nothing
        (see :meth:`_fetch`).  Any other error — a failed write-behind
        burst that caching the blocks joined — ends the process and
        leaves it registered, for the next drain of its file to raise."""
        yield from self._fetch(call, fh, wanted, ahead=True)
        del self._prefetches[key]

    def _claim(self, fileid: int, wanted) -> None:
        """Register the blocks ``wanted`` as being fetched, before the
        fetch is issued, so no other call sees them absent meanwhile;
        :meth:`_fetch` releases them."""
        for b in wanted:
            self._inflight_reads[(fileid, b)] = self.sim.event(
                name=f"rdwin:{fileid}:{b}"
            )

    def _fetch(self, call: CallMessage, fh: FileHandle, wanted,
               ahead: bool = False):
        """Process generator: fetch the whole blocks ``wanted``
        (ascending, claimed by :meth:`_claim`) in one burst and cache
        them.  Returns, per block, ``(reply, parsed)``: ``parsed`` is
        ``(status, attr, data, eof)`` for an OK reply (an I/O error for
        one that fails at-rest verification), else None.

        A read-ahead burst (``ahead``) that fails returns None and
        caches nothing: the READ that reaches those blocks fetches them
        itself and reports the error.  Only the burst's own failure is
        absorbed — caching the blocks may evict, and an eviction that
        joins a failed write-behind burst raises.

        Determinism rules: fetches are issued in ascending block order
        (how a burst is spread over legs and channels is the upstream's
        business: :meth:`UpstreamSession.burst`,
        :meth:`GridRouter.burst`), and results are installed in that
        order — reply arrival order never influences cache state."""
        bs = self.cache.block_size
        fetches = [
            CallMessage(call.xid, call.prog, call.vers, call.proc, call.cred,
                        call.verf, pr.pack_read_args(fh, b * bs, bs))
            for b in wanted
        ]
        self.stats["forwarded"] += len(fetches)
        results = []
        try:
            try:
                replies = yield from self._up.burst(fetches)
            except TRANSPORT_ERRORS:
                if ahead:
                    return None
                raise
            for b, reply in zip(wanted, replies):
                res = pr.read_ok(reply, pr.unpack_read_res)
                if res is not None:
                    status, rattr, data, eof = res
                    if self.cryptor is not None and data:
                        from repro.proxy.cryptofs import AtRestIntegrityError

                        try:
                            data = self.cryptor.open(fh.fileid, b, data)
                            self.stats["blocks_opened"] += 1
                        except AtRestIntegrityError:
                            # server-side tampering: surface an I/O error
                            results.append(
                                (reply, (NfsStatus.IO, rattr, b"", False)))
                            continue
                    self._remember_attr(fh, rattr)
                    if data:
                        yield from self._block_put(fh.fileid, b, data, dirty=False)
                    res = (status, self._attrs.get(fh.fileid) or rattr, data, eof)
                results.append((reply, res))
        finally:
            # waiters always wake, even when the fetch failed — they
            # re-check the cache and fall back to their own fetch
            for b in wanted:
                ev = self._inflight_reads.pop((fh.fileid, b), None)
                if ev is not None and not ev.triggered:
                    ev.succeed(None)
        return results

    def _write_behind(self, victims):
        """Process generator: hand eviction victims to write-behind, one
        background burst (:meth:`_write_burst`) per pipeline window.

        Each victim stays readable in ``_writing`` until its WRITE reply
        lands, and a newer eviction of the same block supersedes it.  A
        victim whose earlier write is still in flight waits for that
        write first, so two writes of one block never race on different
        channels.  The evicting call blocks only while ``depth`` bursts
        are already in flight — and at one window in flight (a
        single-stream leg) it waits for its own burst: stop-and-wait."""
        for fileid, blk, data in victims:
            self._writing[(fileid, blk)] = data
        window = self._window()
        for start in range(0, len(victims), window):
            while True:
                items = [(fileid, blk, data)
                         for fileid, blk, data in victims[start:start + window]
                         if self._writing.get((fileid, blk)) is data]
                keys = frozenset((fileid, blk) for fileid, blk, _data in items)
                older = [carried for carried in self._write_bursts
                         if not keys.isdisjoint(carried)]
                if not older and len(self._write_bursts) < self._depth:
                    break
                yield from self._join(self._write_bursts,
                                      older[0] if older else next(iter(self._write_bursts)))
            if not items:
                continue
            self._write_bursts[keys] = self.sim.spawn(
                self._write_burst(items, keys), name="cproxy-writebehind")
            if self._depth == 1:
                yield from self._join(self._write_bursts, keys)

    def _write_burst(self, victims, keys):
        """Process: write back one window of eviction victims (``keys``
        are their blocks).  Once the replies land, reads stop finding
        the victims in ``_writing`` and the burst leaves
        ``_write_bursts``; a burst that fails stays there, for the next
        call that joins it to raise."""
        try:
            yield from self._writeback_window(victims)
        finally:
            for fileid, blk, data in victims:
                if self._writing.get((fileid, blk)) is data:
                    del self._writing[(fileid, blk)]
        del self._write_bursts[keys]

    @staticmethod
    def _join(table, key):
        """Process generator: wait for the background process
        ``table[key]``, if it is still registered, and unregister it; one
        that failed raises here."""
        proc = table.get(key)
        if proc is None:
            return
        try:
            yield proc
        finally:
            if table.get(key) is proc:
                del table[key]

    def _drain(self, fileid: Optional[int] = None):
        """Process generator: join the in-flight read-ahead, then the
        write-behind, of ``fileid`` — of every file when None.  Read-
        ahead goes first: the blocks it caches may evict more victims."""
        for key in list(self._prefetches):
            if fileid is None or key[0] == fileid:
                yield from self._join(self._prefetches, key)
        for keys in list(self._write_bursts):
            if fileid is None or any(f == fileid for f, _b in keys):
                yield from self._join(self._write_bursts, keys)

    def _writeback_window(self, items):
        """Process generator: write back ``(fileid, block, data)`` items
        in bursts of one pipeline window (write-behind, COMMIT and
        teardown all end here).

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
            pending = self._inflight_reads.get((fh.fileid, block))
            if pending is not None:
                # a fetch of this block is landing: merge over it, never
                # under it (its clean copy must not replace these bytes)
                yield pending
            existing = yield from self._cached(fh.fileid, block)
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
        yield from self._drain(fh.fileid)
        items = yield from self._blocks.gather_dirty([fh.fileid])
        yield from self._writeback_window(items)
        return (yield from self._forward_noting(call, fh, pr.unpack_commit_res))

    def _h_setattr(self, call: CallMessage):
        fh, sattr = pr.unpack_setattr_args(call.args)
        if sattr.size is not None:
            # nothing in flight may land on the far side of the truncate
            yield from self._drain(fh.fileid)
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
        # writes already on their way must land before the file goes
        # (every file's, when the name's file is not known here)
        yield from self._drain(hit[1] if hit is not None else None)
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
        # as for REMOVE: the target, if any, is replaced (the source
        # keeps its fileid and handle, so its writes in flight stay good)
        hit = self._lookups.pop((t_dir.fileid, t_name), None)
        yield from self._drain(hit[1] if hit is not None else None)
        self._attrs.pop(f_dir.fileid, None)
        self._attrs.pop(t_dir.fileid, None)
        return (yield from self._forward(call))

    # -- write-back ---------------------------------------------------------------------

    def writeback(self):
        """Flush every dirty block — session teardown — once the
        in-flight read-ahead and write-behind have ended.

        Returns (blocks, bytes) written back; the harness times this to
        reproduce the paper's separately-reported write-back cost.
        """
        before_blocks = self.stats["writeback_blocks"]
        before_bytes = self.stats["writeback_bytes"]
        with self.tracer.span("proxy.writeback",
                              cat="proxy") if self.tracer.enabled else NULL_SPAN:
            # No read-ahead or write-behind outlives the session.  Then
            # one windowed flush across files, not one per file:
            # teardown after a many-small-files workload (PostMark, MAB)
            # is otherwise one WAN round trip per file.  Only files whose
            # handle the session has seen can be written; any other
            # stays dirty.
            yield from self._drain()
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
