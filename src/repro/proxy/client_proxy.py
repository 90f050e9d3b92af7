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
  keeps the dirty blocks, and writes back on eviction and at session
  teardown (:meth:`SgfsClientProxy.writeback`) — which is how
  Seismic's temporary files never cross the WAN (§6.3.2) and why the
  paper reports the end-of-run write-back time separately.  An
  UNSTABLE WRITE is answered from memory, its cache-disk write queued
  behind the reply; a stable WRITE and a COMMIT wait for the cache
  disk, NFSv3's UNSTABLE/COMMIT contract (RFC 1813 §3.3.7, §3.3.21).

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
from repro.nfs.cache import BlockCache
from repro.nfs.protocol import Fattr3, FileHandle, NfsStatus, Proc
from repro.proxy.session_config import ProxyCacheConfig
from repro.proxy.upstream import MAX_WINDOW
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

#: the write verifier of every WRITE and COMMIT the proxy answers itself
WRITE_VERF = b"sgfsprox"


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
        """``upstream`` is the :class:`repro.grid.GridRouter` calls are
        forwarded through, one leg per backend; the ``_upstream`` and
        ``upstream_timeo`` views read leg 0, the home leg.

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
        #: the widest leg's channels: one is the paper's stop-and-wait proxy
        self._streams = max(leg.streams for leg in upstream.legs)
        #: the (pipe, cache blocks, startup) :meth:`_pipeline` last sized
        #: for, and its write and read (burst, depth)
        self._sized = ((0, 0, False), ((1, 1), (1, 1)))
        self._listener = None
        #: the kernel client connections accepted and still open, in
        #: accept order (a teardown closes them in a fixed order)
        self._connections: list = []
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
        #: every block's state, and the read-ahead and write-behind
        #: processes in flight (see repro.nfs.cache.BlockCache)
        self._blocks = BlockCache(sim, self.cache, disk, self.stats)

    # -- upstream leg views --------------------------------------------------
    # The recovery machinery lives in UpstreamSession; tests and the
    # fault harness read _upstream, set upstream_timeo/upstream_retrans.

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
        """End the session: stop accepting, close the kernel connections
        and the legs.  :meth:`writeback` first, or dirty blocks are lost.
        The cache disk's writer is not cut short: it ends by itself once
        every absorbed block is on the disk."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for transport in list(self._connections):
            transport.close()
        for leg in self._up.legs:
            leg.close()

    def _connection(self, sock):
        transport = StreamTransport(sock)
        self._connections.append(transport)
        try:
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
        finally:
            self._connections.remove(transport)

    # -- cache bookkeeping --------------------------------------------------------

    def _remember_attr(self, fh: Optional[FileHandle], attr: Optional[Fattr3]) -> None:
        if attr is None:
            return
        if self._blocks.unflushed(attr.fileid):
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

    def _block_put(self, fileid: int, block: int, data: bytes, dirty: bool,
                   unread: bool = False):
        """Process generator: cache a block — fetched (``unread``: ahead
        of the reader), or written when ``dirty``; the dirty blocks the
        insert pushed out leave through write-behind
        (:meth:`_write_behind`).

        While no leg of a multi-stream session has a bulk RTT sample, a
        dirty block that pushes nothing out leaves at once, alone, as
        the probe that takes one (:meth:`UpstreamSession.burst`), when
        no write-behind burst is in flight.  It stays cached, clean and
        *writing*.  The evictions behind it are sized from the probe's
        sample once it lands."""
        if dirty:
            yield from self._blocks.write(fileid, block, data)
        else:
            yield from self._blocks.fill(fileid, block, data, unread)
        victims = self._blocks.evict((fileid, block), self._pipeline()[0])
        if not victims and dirty and self._probe_due(fileid):
            victims = self._blocks.take(fileid, block)
        if victims:
            yield from self._write_behind(victims)

    def _probe_due(self, fileid: int) -> bool:
        """Whether a dirty block of ``fileid`` goes out now as the lone
        WRITE that measures the pipe (see :meth:`_block_put`).  Once a
        leg has its sample this costs one attribute read per leg."""
        return (self._streams > 1
                and all(leg.srtt_bulk is None for leg in self._up.legs)
                and fileid in self._handles
                and not self._blocks.background(writes=True))

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
        if self._blocks.unflushed(fh.fileid):
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

    def _unlinked(self, fileid: int) -> None:
        """A name of the file went (REMOVE, or RENAME over it).  Unless
        the cached attrs say another link remains, its dirty data is
        never written back — the Seismic §6.3.2 "only final results
        cross the WAN" effect."""
        attr = self._attrs.get(fileid)
        if attr is not None and not attr.is_dir and attr.nlink > 1:
            self._attrs[fileid] = replace(attr, nlink=attr.nlink - 1)
            return
        self._blocks.drop_file(fileid)
        self._attrs.pop(fileid, None)
        if self.cryptor is not None:
            self.cryptor.forget_file(fileid)

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
        """Forward upstream through the router (retry and reconnect:
        :class:`~repro.proxy.upstream.UpstreamSession`)."""
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
        upstream session of every backend leg, in index order (see
        :meth:`UpstreamSession.cycle`)."""
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
                int(Proc.LINK): self._h_link,
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
            return (yield from self._local(call, pr.pack_getattr_res(NfsStatus.OK, attr), 256))
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
                return (yield from self._local(
                    call, pr.pack_lookup_res(NfsStatus.OK, fh, attr, dir_attr), 256))
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
        cached = self._access.get((fh.fileid, 0))
        if cached is not None:
            attr = self._attrs.get(fh.fileid)
            return (yield from self._local(
                call, pr.pack_access_res(NfsStatus.OK, attr, cached & want), 128))
        # Ask for all bits so one round trip answers future queries too.
        full = replace(call, args=pr.pack_access_args(fh, pr.ACCESS_ALL))
        reply = yield from self._forward(full)
        res = pr.read_ok(reply, pr.unpack_access_res)
        if res is None:
            return reply
        status, attr, granted = res
        self._remember_attr(fh, attr)
        self._access[(fh.fileid, 0)] = granted
        merged = self._attrs.get(fh.fileid) or attr
        reply.results = pr.pack_access_res(status, merged, granted & want)
        return reply

    # -- data procedures -------------------------------------------------------------

    def _h_read(self, call: CallMessage):
        fh, offset, count = pr.unpack_read_args(call.args)
        bs = self.cache.block_size
        if not self.cache.cache_data or offset % bs or count > bs:
            if self._blocks.unflushed(fh.fileid):
                # only the server answers a READ that is not one block:
                # it must hold the writes absorbed here first
                yield from self._flush(fh.fileid)
            return (yield from self._forward(call))
        block = offset // bs
        yield from self._maybe_revalidate(fh)
        # the cache disk reads a run of cached blocks, one read window
        window = self._pipeline(read=True)[0]
        got = yield from self._blocks.read(fh.fileid, block, window)
        self.stats["data_hits" if isinstance(got, bytes) else "data_misses"] += 1
        while isinstance(got, Event):
            # another window has this block in flight: a miss that
            # coalesces onto it
            yield got
            got = yield from self._blocks.read(fh.fileid, block, window)
        if got is None:
            reply = yield from self._read_window(call, fh, block, count)
        else:
            attr = self._attrs.get(fh.fileid)
            size = attr.size if attr is not None else offset + len(got)
            # a block written short before the file grew past it: zeros follow
            chunk = got[:count].ljust(min(count, size - offset), b"\0")
            reply = yield from self._local(call, pr.pack_read_res(
                NfsStatus.OK, attr, chunk, offset + len(chunk) >= size))
        if count == bs and self._streams > 1:
            # drop-behind: the reader is past this block
            self._blocks.consumed(fh.fileid, block)
        self._read_ahead(call, fh, block + 1)
        return reply

    def _local(self, call: CallMessage, results: bytes, disk: int = 0):
        """Process generator: a reply the proxy answers itself, after
        reading ``disk`` bytes of its disk cache (where attrs live)."""
        self.stats["local_replies"] += 1
        if disk:
            yield from self._blocks.disk_read(disk)
        return ReplyMessage(xid=call.xid, results=results)

    # -- read window and write-behind: the one upstream data path.  A
    # single-stream leg runs it at one block, one burst in flight — one
    # block per round trip, the paper's proxy; a multi-stream leg keeps
    # the pipe's worth in flight, in bursts sized by :meth:`_pipeline`,
    # ahead of the reader and behind the writer.

    def _pipeline(self, read: bool = False) -> Tuple[int, int]:
        """``(burst, depth)``: the blocks one upstream burst carries and
        how many bursts ride at once.

        ``pipe`` is the widest leg's estimate of the blocks its round
        trip holds (:meth:`UpstreamSession.window`).  The cache holds
        ``depth + 2`` bursts: ``depth`` in flight, the reader's window,
        and one burst of eviction hysteresis
        (:meth:`BlockCache.low_water`).  A burst is no wider than the
        pipe or its share of the cache, but once the pipe holds more than
        one block it gives every channel a share of at least two blocks
        (a two-phase WRITE batch, :meth:`UpstreamSession.forward_batch`).
        ``depth`` grows from two, and the burst shrinks with its share,
        until twice the pipe is in flight — the delivered-rate estimate
        only grows while more than it is out — or, where the cache cannot
        hold that, the pipe and two bursts more: the bursts whose replies
        are landing do not fill it.  It stops too where a smaller burst
        would give a channel a one-block share.  Until a leg has a bulk
        sample its pipe is one block, sized ``(1, 2)``; a write pass
        takes that sample with its first dirty block (the probe,
        :meth:`_block_put`).  A ``read`` burst is never
        wider than its share: the read-ahead span, ``depth + 1`` of them,
        then fits under the low-water mark and no block read ahead is
        evicted unread (a cache too small for two-block shares reads
        ahead in narrower bursts than it writes behind).

        While the widest leg is in startup (:attr:`UpstreamSession.growing`)
        write-behind keeps three pipes in flight, where ``depth + 2``
        bursts that carry them fit the cache: BBR's startup gain, since
        the rate only grows by what is out.  It never aims past twice
        :data:`MAX_WINDOW`, the most the steady rule keeps at the widest
        pipe.  Reads are sized as in steady state."""
        if self._streams == 1:
            return 1, 1
        pipe, growing = max((leg.window(), leg.growing) for leg in self._up.legs)
        blocks = self.cache.capacity_bytes // self.cache.block_size
        if (pipe, blocks, growing) != self._sized[0]:
            floor = 2 * self._streams if pipe > 1 else 1

            def size(headroom):
                depth = 2
                while True:
                    burst = max(floor, min(blocks // (depth + 2), pipe))
                    if depth * burst >= pipe + headroom(burst) or \
                            blocks // (depth + 3) < floor:
                        return burst, depth
                    depth += 1

            burst, depth = size(lambda burst: pipe)
            if depth * burst < 2 * pipe:  # the cache cannot hold twice the pipe
                burst, depth = size(lambda burst: 2 * burst)
            share = max(1, min(burst, blocks // (depth + 2)))
            write = burst, depth
            if growing and pipe > 1:
                lead = min(3 * pipe, 2 * MAX_WINDOW)
                ramp = size(lambda burst: lead - pipe)
                if ramp[0] * ramp[1] >= lead:
                    write = ramp
            self._sized = ((pipe, blocks, growing), (write, (share, depth)))
        write, read_sizing = self._sized[1]
        return read_sizing if read else write

    def _read_window(self, call: CallMessage, fh: FileHandle, block: int,
                     count: int):
        """Process generator: the demand fetch for an absent block.

        Fetches the demanded block — always whole, regardless of the
        requested count — plus up to window-1 sequential successors in
        one burst, and moves the file's read-ahead cursor past them.  The
        read-ahead span leaves in the same instant, behind the demand
        burst, not a round trip later (:meth:`_spans_with_demand` says
        when): the demand window, ``block`` too, is the reader's window
        of that span (:meth:`_read_ahead` from ``block``), unread until
        it lands."""
        bs = self.cache.block_size
        blocks = self._blocks
        wanted = blocks.claim(fh.fileid, [block])
        attr = self._attrs.get(fh.fileid)
        if attr is not None:
            end = min(block + self._pipeline(read=True)[0], (attr.size + bs - 1) // bs)
            wanted += blocks.claim(fh.fileid, range(block + 1, end))
            blocks.ahead[fh.fileid] = end
        if not self._spans_with_demand():
            results = yield from self._fetch(call, fh, wanted)
        else:
            demand = self.sim.spawn(self._fetch(call, fh, wanted), name="cproxy-demand")
            self._read_ahead(call, fh, block)
            results = yield demand
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

    def _spans_with_demand(self) -> bool:
        """Whether a demand miss sends the read-ahead span with it: once
        the read window is wider than a block and the span, demand window
        included, fits under the cache's low-water mark
        (:meth:`BlockCache.low_water`).  A one-block window is a
        single-stream leg's, or a pipe not yet measured: the demand burst
        is its first bulk sample, and the span waits to be sized by it.
        In a cache under eight blocks a stream (:meth:`_pipeline`) a span
        landing at once on the blocks still cached would evict some of
        itself unread."""
        window, depth = self._pipeline(read=True)
        low = self._blocks.low_water(self._pipeline()[0])
        return window > 1 and (depth + 1) * window * self.cache.block_size <= low

    def _read_ahead(self, call: CallMessage, fh: FileHandle, first: int) -> None:
        """Keep the reader's window and ``depth`` more cached or in flight
        from ``first``, the first block the reader has not read
        (:meth:`_pipeline`): the blocks ``first`` … ``first - 1 + (depth +
        1) * window`` not yet fetched or in flight go out in background
        bursts of at most a window, as
        soon as half a window of them is free — a burst that waited for
        a whole window would let a reader served from memory catch the
        ones in flight.  Each burst's absent blocks are claimed before it
        is spawned, so demand misses and writes wait for it.  The
        per-file cursor makes this O(1) per READ but after an eviction
        behind it (:meth:`BlockCache.evict` pulls it back, and the span
        is claimed again from ``first``); nothing runs ahead on a
        single-stream leg."""
        attr = self._attrs.get(fh.fileid)
        if self._streams == 1 or attr is None:
            return
        blocks = self._blocks
        window, depth = self._pipeline(read=True)
        bs = self.cache.block_size
        nblocks = (attr.size + bs - 1) // bs
        end = min(first + (depth + 1) * window, nblocks)
        nxt = blocks.ahead.get(fh.fileid, 0)
        if not first <= nxt <= end:
            nxt = first  # the reader moved: start again behind it
        # half a window free is enough, and so is whatever the end of
        # the file leaves
        while 2 * (end - nxt) >= window or nxt < end == nblocks:
            stop = min(nxt + window, end)
            wanted = blocks.claim(fh.fileid, range(nxt, stop))
            if wanted:
                proc = self.sim.spawn(self._fetch(call, fh, wanted, ahead=True),
                                      name="cproxy-readahead")
                blocks.track(proc, [(fh.fileid, b) for b in wanted], writes=False)
            nxt = stop
        blocks.ahead[fh.fileid] = nxt

    def _fetch(self, call: CallMessage, fh: FileHandle, wanted,
               ahead: bool = False):
        """Process generator: fetch the whole blocks ``wanted``
        (ascending, claimed) in one burst and cache them.  Returns, per
        block, ``(reply, parsed)``: ``parsed`` is ``(status, attr, data,
        eof)`` for an OK reply (an I/O error for one that fails at-rest
        verification), else None.

        A read-ahead burst (``ahead``) that fails returns None and
        caches nothing: the READ that reaches those blocks fetches them
        itself and reports the error.  Only the burst's own failure is
        absorbed — caching the blocks may evict, and an eviction that
        joins a failed write-behind burst raises, in a process the table
        keeps listed for the next drain of its file to join.

        Determinism rules: fetches are issued in ascending block order
        (:meth:`GridRouter.burst` spreads them over legs and channels),
        and results are installed in that order, never arrival order."""
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
                    shadow = self._attrs.get(fh.fileid)
                    if shadow is not None and len(data) < min(bs, shadow.size - b * bs):
                        # below the session's size, what the server lacks
                        # (a hole under writes not yet written back) is zeros
                        data = data.ljust(min(bs, shadow.size - b * bs), b"\0")
                        eof = b * bs + len(data) >= shadow.size
                    if data:
                        yield from self._block_put(fh.fileid, b, data, dirty=False,
                                                   unread=ahead or b != wanted[0])
                    res = (status, shadow or rattr, data, eof)
                results.append((reply, res))
        finally:
            # waiters always wake, even when the fetch failed — they
            # ask again and fall back to their own fetch
            self._blocks.landed(fh.fileid, wanted)
        return results

    def _write_behind(self, victims, on_disk: bool = False):
        """Process generator: hand dirty items (writing, in the table) to
        write-behind, one background burst per pipeline window (see
        :meth:`BlockCache.slot` for when each may go): eviction victims,
        the probe's one block (:meth:`_block_put`), or (``on_disk``) the
        blocks a COMMIT's flush or teardown gathered, each window read
        off the cache disk in runs (:meth:`BlockCache.read_runs`) before
        it waits for its slot.  Each window is sized by :meth:`_pipeline`
        when its turn comes, so a cold session's first one-block window
        — the probe, or a flush's first — seeds the bulk RTT estimator
        and widens the windows behind it.  A window the slot admitted
        leaves whole, one process's one burst (:meth:`_writeback_window`),
        even if :meth:`_pipeline` has re-sized since, so ``depth`` bounds
        the bursts in flight.  The caller blocks only while ``depth``
        are — and at one in flight (a single-stream leg) it waits for its
        own burst: stop-and-wait."""
        blocks = self._blocks
        start = 0
        try:
            while start < len(victims):
                window, depth = self._pipeline()
                cut = victims[start:start + window]
                if on_disk:
                    yield from blocks.read_runs(cut)
                items = yield from blocks.slot(cut, depth)
                start += window
                if not items:
                    continue
                proc = self.sim.spawn(self._writeback_window(items),
                                      name="cproxy-writebehind")
                blocks.track(proc, [v[:2] for v in items], writes=True)
                if depth == 1:
                    yield from blocks.join(proc)
        finally:
            # victims a failed burst kept from going out are lost with
            # the error it raises here
            blocks.written(victims[start:])

    def _writeback_window(self, items):
        """Process generator: write back ``(fileid, block, data)`` items
        in one upstream burst — a write-behind process's whole work.

        Items are sealed and issued in list order; statuses are
        consumed in the same order, so accounting is independent of
        reply arrival.  Once their replies land, or the write fails,
        they leave the writing state."""
        try:
            calls = []
            for fileid, blk, data in items:
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
                return
            replies = yield from self._up.burst(calls)
            for reply in replies:
                res = pr.read_ok(reply, pr.unpack_write_res)
                if res is not None:
                    self.stats["writeback_blocks"] += 1
                    self.stats["writeback_bytes"] += res[2]
                else:
                    self.stats["writeback_errors"] += 1
        finally:
            self._blocks.written(items)

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
            # merge over a fetch of this block that is landing, never
            # under it (its clean copy must not replace these bytes)
            existing = yield from self._blocks.current(fh.fileid, block)
            attr = self._attrs.get(fh.fileid)
            extent = min(bs, (attr.size if attr is not None else 0) - block * bs)
            if existing is None and extent > 0 and (inner or take < extent):
                # a partial write over bytes only the server holds: fetch
                # them first (read-modify-write); past them is a hole
                read = replace(call, proc=int(Proc.READ))
                yield from self._fetch(read, fh, self._blocks.claim(fh.fileid, [block]))
                existing = yield from self._blocks.current(fh.fileid, block)
            merged = bytearray(existing or b"")
            if len(merged) < inner + take:
                merged.extend(b"\x00" * (inner + take - len(merged)))
            merged[inner : inner + take] = view[:take].tobytes()
            yield from self._block_put(fh.fileid, block, bytes(merged), dirty=True)
            pos += take
            view = view[take:]
        self.stats["writes_absorbed"] += 1
        attr = self._shadow_write_attr(fh, offset + len(payload))
        if stable != pr.UNSTABLE:
            # a stable WRITE is answered once its blocks are on the cache disk
            yield from self._blocks.synced(fh.fileid)
        return (yield from self._local(call, pr.pack_write_res(
            NfsStatus.OK, attr, len(payload), stable, WRITE_VERF)))

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
            # The durability point is the cache disk: the COMMIT waits
            # for every absorbed block of the file to be on it.  The data
            # ages out to the server on eviction/teardown, not at every
            # client COMMIT — the single-user-session relaxation the
            # paper's WAN results (and its separately-reported
            # write-back times) rest on.
            yield from self._blocks.synced(fh.fileid)
            attr = self._attrs.get(fh.fileid)
            return (yield from self._local(
                call, pr.pack_commit_res(NfsStatus.OK, attr, WRITE_VERF)))
        yield from self._flush(fh.fileid)
        return (yield from self._forward_noting(call, fh, pr.unpack_commit_res))

    def _flush(self, fileid: int):
        """Process generator: write back every unflushed block of the file."""
        yield from self._blocks.drain(fileid)
        yield from self._write_behind(self._blocks.gather_dirty([fileid]), on_disk=True)
        yield from self._blocks.drain(fileid)

    def _h_setattr(self, call: CallMessage):
        fh, sattr = pr.unpack_setattr_args(call.args)
        if sattr.size is not None:
            # nothing in flight may land on the far side of the truncate;
            # the server's post-op size replaces the shadow one
            yield from self._blocks.drain(fh.fileid)
            self._blocks.truncate(fh.fileid, sattr.size)
            self._attrs.pop(fh.fileid, None)
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
        yield from self._blocks.drain(hit[1] if hit is not None else None)
        if hit is not None:
            self._unlinked(hit[1])
        self._attrs.pop(dir_fh.fileid, None)
        return (yield from self._forward(call))

    def _h_rename(self, call: CallMessage):
        f_dir, f_name, t_dir, t_name = pr.unpack_rename_args(call.args)
        src = self._lookups.get((f_dir.fileid, f_name))
        # as for REMOVE: the target, if any, is replaced, and forgotten
        # before the RENAME goes out, so write-behind sends none of its
        # blocks to the handle the reply makes stale (the source keeps its
        # fileid and handle, so its writes in flight stay good)
        hit = self._lookups.get((t_dir.fileid, t_name))
        # (two links of one file: a no-op)
        replaces = src is None or hit is None or src[1] != hit[1]
        yield from self._blocks.drain(hit[1] if hit is not None else None)
        if hit is not None and replaces:
            self._unlinked(hit[1])
        self._attrs.pop(f_dir.fileid, None)
        self._attrs.pop(t_dir.fileid, None)
        reply = yield from self._forward(call)
        moved = pr.read_ok(reply, pr.unpack_rename_res) is not None
        if moved and replaces:
            self._lookups.pop((f_dir.fileid, f_name), None)
            self._lookups.pop((t_dir.fileid, t_name), None)
            if src is not None:
                self._lookups[(t_dir.fileid, t_name)] = src
        return reply

    def _h_link(self, call: CallMessage):
        fh, dir_fh, name = pr.unpack_link_args(call.args)
        # the cached nlink stays current, and REMOVE and RENAME know the name
        reply = yield from self._forward_noting(call, fh, pr.unpack_link_res)
        if pr.read_ok(reply, pr.unpack_link_res) is not None:
            self._lookups[(dir_fh.fileid, name)] = (fh, fh.fileid)
        return reply

    # -- write-back ---------------------------------------------------------------------

    def writeback(self):
        """Flush every dirty block — session teardown — once the
        in-flight read-ahead and write-behind have ended; return once
        the cache disk's writer has ended too.

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
            yield from self._blocks.drain()
            flushable = [f for f in list(self._blocks.dirty)
                         if f in self._handles]
            yield from self._write_behind(self._blocks.gather_dirty(flushable),
                                          on_disk=True)
            yield from self._blocks.drain()
            # nor does the cache disk's writer
            yield from self._blocks.synced()
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
            if rekey:
                for leg in self._up.legs:
                    leg.renegotiate()
        finally:
            self._serving.open()

    @property
    def dirty_bytes(self) -> int:
        return self._blocks.dirty_bytes
