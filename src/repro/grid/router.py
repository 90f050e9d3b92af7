"""Client-side upstream of every proxied mount: one leg per backend.

Every :class:`repro.proxy.client_proxy.SgfsClientProxy` sends through a
:class:`GridRouter`.  Over one backend (a plain mount) every object is
the home file and the router passes calls to its one leg.  Over several:

- **namespace operations** (LOOKUP, GETATTR, ACCESS, READDIR, …) go to
  the *home* server (backend 0) — the single namespace authority;
- **CREATE** goes home, then registers the new file with the metadata
  service, making it striped.  The namespace lives only at home: each
  backend keeps one object per striped file, named by its home fileid
  — home's is the file itself, backend b > 0's the file
  ``str(fileid)`` in the seat's directory there — so MKDIR, RMDIR and
  RENAME change home only; REMOVE, or a RENAME over a striped file,
  removes the replaced file's objects and forgets its catalog entry;
- **READ/WRITE** of striped files are split into grid-block spans sent
  to their owners in parallel: a lone call span by span, a proxy
  window's burst as one :meth:`UpstreamSession.burst` per leg;
  unstriped (out-of-band) files pass through to home untouched;
- **COMMIT** fans out to every backend the session dirtied, then
  pushes the tracked file size to the home server (SETATTR) so future
  sessions see the correct length in home GETATTRs.

Determinism rules (same-seed reruns are bit-identical, also under
crash schedules):

- fan-out processes are spawned in ascending (span, replica) — or leg
  — order and **joined in spawn order**: completion order never
  influences results;
- replica placement depends only on (fileid, block, width, replicas),
  never on liveness; a read tries its owner list strictly in placement
  order, skipping backends known dead;
- a backend that fails a data call is marked dead locally and reported
  to the metadata service *after* the fan-out join, in backend order;
  dead backends stay dead for the whole run.

Correctness details worth knowing:

- backend fileids are allocated by each backend's own VFS and may
  collide with unrelated home fileids, so replies assembled from
  backend data **never carry post-op attributes** (the kernel client
  tolerates missing attrs and keeps its own bookkeeping);
- the router tracks the session-authoritative size of every striped
  file it writes and patches home GETATTR/LOOKUP replies with it — the
  single-writer-session relaxation the SGFS proxy cache already relies
  on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from repro.nfs import protocol as pr
from repro.nfs.protocol import Fattr3, FileHandle, NfsStatus, Proc, Sattr3
from repro.obs.schema import zeros
from repro.rpc.errors import RpcError
from repro.rpc.messages import DECODE_ERRORS, CallMessage, ReplyMessage
from repro.rpc.transport import DIAL_ERRORS
from repro.sim.process import all_of

#: WRITE/COMMIT verifier of grid-assembled replies
GRID_VERF = b"gridplne"


class _Piece:
    """One backend's part of a routed call, and its reply once back."""

    __slots__ = ("b", "call", "tag", "reply")

    def __init__(self, b: int, call: CallMessage, tag: str = ""):
        self.b, self.call, self.tag, self.reply = b, call, tag, None


class GridRouter:
    """The upstream of one client session: one leg per backend."""

    def __init__(self, sim, legs: List[object], meta=None,
                 roots: Optional[Dict[int, FileHandle]] = None, replicas: int = 1,
                 block_size: int = 4 * 1024 * 1024, obs=None):
        """One :class:`repro.proxy.upstream.UpstreamSession` leg per
        backend, leg 0 the home one.  Over several, files are striped by
        ``meta`` (the metadata service's client) into objects in
        ``roots`` (backend -> the seat's directory there)."""
        from repro.grid.layout import GridLayout

        self.sim = sim
        self.legs = legs
        self.meta = meta
        self._roots = roots
        self.layout = GridLayout(len(legs), replicas, block_size)
        #: layout epoch last seen from the metadata service; any reply
        #: carrying a newer one flushes the striped/unstriped cache
        self._epoch = 0
        #: fileid -> is-striped (False = out-of-band home-only file)
        self._layouts: Dict[int, bool] = {}
        #: locally-known dead backends (superset of the server's view
        #: until the post-join mark_dead report lands)
        self._dead: Set[int] = set()
        #: (backend > 0, home_fileid) -> handle of that backend's object
        self._shadows: Dict[Tuple[int, int], FileHandle] = {}
        #: (home_dir_fileid, name) -> home fileid of a file (not a
        #: directory) there, for REMOVE and RENAME upkeep
        self._names: Dict[Tuple[int, str], int] = {}
        #: session-authoritative sizes of striped files we wrote
        self._sizes: Dict[int, int] = {}
        #: sizes the home server is known to have (COMMIT pushes ours)
        self._home_sizes: Dict[int, int] = {}
        #: striped fileid -> backends holding unflushed stripe writes
        self._dirty: Dict[int, Set[int]] = {}
        #: failures detected mid-fan-out, reported to the metadata
        #: service after the join (in backend order)
        self._pending_dead: Set[int] = set()
        #: NFS procedure -> how it is routed; anything else (everything,
        #: over one backend) goes home as it is
        self._routes = {}
        self.stats = zeros("grid")
        if len(legs) > 1:
            self._routes = {
                int(Proc.READ): self._h_data, int(Proc.WRITE): self._h_data,
                int(Proc.COMMIT): self._h_commit, int(Proc.CREATE): self._h_create,
                int(Proc.REMOVE): self._h_remove, int(Proc.RENAME): self._h_rename,
                int(Proc.SETATTR): self._h_setattr,
                int(Proc.GETATTR): self._h_getattr, int(Proc.LOOKUP): self._h_lookup,
            }
            if obs is not None:
                obs.add_collector("grid", self._export_stats)

    def _export_stats(self) -> dict:
        return {**self.stats, "layout_cache_entries": len(self._layouts),
                "shadow_handles": len(self._shadows)}

    # -- wiring ------------------------------------------------------------

    def connect(self):
        """Process generator: dial every leg at once (a lone leg inline),
        then the metadata service: a mount costs its slowest leg.  A
        failed dial (:data:`~repro.rpc.transport.DIAL_ERRORS`) is raised
        once every sibling dial has finished — the lowest-indexed leg's,
        as a serial dial would raise it — so no dial outlives this call."""
        results = yield from self._fan_out(
            ((f"dial{b}", self._caught(leg.connect(), DIAL_ERRORS))
             for b, leg in enumerate(self.legs)), inline=True)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        if self.meta is not None:
            yield from self.meta.connect()
        return self

    @staticmethod
    def _caught(gen, errors=RpcError):
        """Worker: run ``gen``; returns its result, or the ``errors``
        exception it raised, for the joiner to act on after the join."""
        try:
            return (yield from gen)
        except errors as exc:
            return exc

    # -- layout cache -------------------------------------------------------

    def _note_view(self, view) -> None:
        if view.epoch > self._epoch:
            if self._epoch:
                self.stats["layout_invalidations"] += 1
                self._layouts.clear()
            self._epoch = view.epoch
        for b in view.dead:
            self._dead.add(b)

    def _is_striped(self, fileid: int):
        cached = self._layouts.get(fileid)
        if cached is not None:
            return cached
        self.stats["layout_lookups"] += 1
        view = yield from self.meta.get_layout(fileid)
        self._note_view(view)
        self._layouts[fileid] = view.striped
        return view.striped

    # -- helpers ------------------------------------------------------------

    def _call(self, proc: int, args: bytes, template: CallMessage) -> CallMessage:
        return CallMessage(
            0, pr.NFS_PROGRAM, pr.NFS_V3, int(proc),
            template.cred, template.verf, args,
        )

    def _fail_backend(self, b: int) -> None:
        if b not in self._dead:
            self._dead.add(b)
            self.stats["dead_marks"] += 1
            self._pending_dead.add(b)

    def _report_dead(self):
        """Push locally-detected failures to the metadata service (after
        the fan-out join, in backend order — determinism rule)."""
        for b in sorted(self._pending_dead):
            try:
                view = yield from self.meta.mark_dead(b)
                self._note_view(view)
            except RpcError:
                pass
        self._pending_dead.clear()

    def _mirror(self, share):
        """Process generator: repeat on every live backend but home, in
        backend order, a change to a striped file's objects that home
        has accepted (a remove, a truncate).  ``share(b)`` is backend
        ``b``'s part (resolve its object, forward the call) and returns
        whether there was anything to do there.  A backend that fails
        its part is marked dead; the failures are reported once the loop
        is through."""
        for b in range(1, self.layout.width):
            if b in self._dead:
                continue
            try:
                if (yield from share(b)):
                    self.stats["mirrored_ops"] += 1
            except RpcError:
                self._fail_backend(b)
        yield from self._report_dead()

    def _shadow(self, b: int, fh: FileHandle, template: CallMessage,
                create: bool = False):
        """Process generator: resolve (and optionally create) backend
        ``b``'s object of the home file ``fh``: the file itself at home,
        the file ``str(fh.fileid)`` in the seat's directory elsewhere.
        Returns the backend handle, or None when there is no object."""
        if b == 0:
            return fh
        obj = self._shadows.get((b, fh.fileid))
        if obj is not None:
            return obj
        leg, root, name = self.legs[b], self._roots[b], str(fh.fileid)
        reply = yield from leg.forward(self._call(
            Proc.LOOKUP, pr.pack_lookup_args(root, name), template))
        res = pr.read_ok(reply, pr.unpack_lookup_res)
        if (res is None or res[1] is None) and create:
            reply = yield from leg.forward(self._call(
                Proc.CREATE,
                pr.pack_create_args(root, name, Sattr3(mode=0o644)), template))
            res = pr.read_ok(reply, pr.unpack_create_res)
        if res is None or res[1] is None:
            return None
        self._shadows[(b, fh.fileid)] = res[1]
        return res[1]

    def _drop(self, fileid: int, template: CallMessage):
        """Process generator: home no longer names file ``fileid`` (a
        REMOVE, or a RENAME over it).  If it is striped, remove its
        objects on the other backends (NOENT is fine: a span may never
        have landed there) and forget it in the catalog."""
        if (yield from self._is_striped(fileid)):
            def remove(b):
                yield from self.legs[b].forward(self._call(
                    Proc.REMOVE, pr.pack_remove_args(self._roots[b], str(fileid)),
                    template))
                return True

            yield from self._mirror(remove)
            view = yield from self.meta.forget(fileid)
            self._note_view(view)
        self._forget(fileid)

    def _forget(self, fileid: int) -> None:
        for table in (self._sizes, self._home_sizes, self._dirty, self._layouts):
            table.pop(fileid, None)
        for b in range(1, self.layout.width):
            self._shadows.pop((b, fileid), None)

    def _home_attr(self, attr: Optional[Fattr3]) -> Optional[Fattr3]:
        """Note an attr home reported; returns it with its size raised
        to the session-tracked one."""
        if attr is None:
            return None
        self._home_sizes[attr.fileid] = attr.size
        tracked = self._sizes.get(attr.fileid)
        if tracked is None or tracked <= attr.size:
            if tracked is not None:
                self._sizes[attr.fileid] = attr.size
            return attr
        return replace(attr, size=tracked, used=max(attr.used, tracked))

    def _size_of(self, fileid: int) -> int:
        return max(self._sizes.get(fileid, 0), self._home_sizes.get(fileid, 0))

    def _fan_out(self, gens_with_labels, inline: bool = False):
        """Spawn workers in order, join in spawn order (never completion
        order) — or, ``inline``, run a lone one in the caller.  Workers
        catch their own per-replica failures: one escaping fails all."""
        jobs = list(gens_with_labels)
        if inline and len(jobs) < 2:
            return [(yield from jobs[0][1])] if jobs else []
        procs = [self.sim.spawn(gen, name=f"grid-fan:{label}") for label, gen in jobs]
        return (yield all_of(self.sim, procs))

    # -- dispatch ------------------------------------------------------------

    def burst(self, calls: List[CallMessage]):
        """Process generator: a burst of bulk calls from the proxy's read
        window or write-behind, one reply per call in issue order.  The
        calls are planned into pieces in issue order, and each leg sends
        its pieces as one :meth:`UpstreamSession.burst` (its channels, its
        two-phase WRITEs); legs are spawned in index order and joined in
        spawn order, a burst on one leg inline."""
        plans, shares = [], [[] for _ in self.legs]
        for call in calls:
            pieces, finish = yield from self._plan(call)
            for piece in pieces:
                shares[piece.b].append(piece)
            plans.append((pieces, finish))
        busy = [(b, share) for b, share in enumerate(shares) if share]
        results = yield from self._fan_out((
            (f"leg{b}", self._caught(self.legs[b].burst([p.call for p in share])))
            for b, share in busy), inline=True)
        for (b, share), replies in zip(busy, results):
            if isinstance(replies, RpcError):
                if any(p.tag == "home" for p in share):
                    raise replies
                self._fail_backend(b)
                replies = [None] * len(share)
            for piece, reply in zip(share, replies):
                piece.reply = reply
        replies = []
        for pieces, finish in plans:
            replies.append(pieces[0].reply if finish is None else (yield from finish()))
        yield from self._report_dead()
        return replies

    def _plan(self, call: CallMessage, burst: bool = True):
        """Process generator: a call's pieces, and the process generator
        making its reply of theirs — None for a call home takes whole
        (whose leg's failure is its caller's)."""
        plan = None
        if self._routes and call.prog == pr.NFS_PROGRAM and \
                call.proc in (Proc.READ, Proc.WRITE):
            plan = yield from (self._plan_read if call.proc == Proc.READ
                               else self._plan_write)(call, burst)
        return plan or ([_Piece(0, call, tag="home")], None)

    def _deliver(self, piece: _Piece):
        """Worker: send one piece on its own.  A backend that fails it
        is marked dead at once, and the reply stays None.  Never raises."""
        try:
            piece.reply = yield from self.legs[piece.b].forward(piece.call)
        except RpcError:
            self._fail_backend(piece.b)

    def forward(self, call: CallMessage):
        """Process generator: route one upstream call; returns the reply."""
        handler = self._routes.get(call.proc) if call.prog == pr.NFS_PROGRAM else None
        return (yield from (handler or self.legs[0].forward)(call))

    # -- namespace procedures -------------------------------------------------

    def _h_getattr(self, call: CallMessage):
        reply = yield from self.legs[0].forward(call)
        res = pr.read_ok(reply, pr.unpack_getattr_res)
        if res is None:
            return reply
        status, attr = res
        patched = self._home_attr(attr)
        if patched is not attr:
            reply.results = pr.pack_getattr_res(status, patched)
        return reply

    def _h_lookup(self, call: CallMessage):
        dir_fh, name = pr.unpack_lookup_args(call.args)
        reply = yield from self.legs[0].forward(call)
        res = pr.read_ok(reply, pr.unpack_lookup_res)
        if res is None:
            return reply
        status, fh, attr, dir_attr = res
        if fh is not None and attr is not None:
            if not attr.is_dir:
                self._names[(dir_fh.fileid, name)] = attr.fileid
            patched = self._home_attr(attr)
            if patched is not attr:
                reply.results = pr.pack_lookup_res(status, fh, patched, dir_attr)
        return reply

    def _h_create(self, call: CallMessage):
        """CREATE: made at home, then registered as striped."""
        dir_fh, name = pr.unpack_diropargs_prefix(call.args)
        reply = yield from self.legs[0].forward(call)
        res = pr.read_ok(reply, pr.unpack_create_res)
        if res is None:
            return reply
        _status, fh, attr, _dir_after = res
        if fh is None or attr is None:
            return reply
        self._names[(dir_fh.fileid, name)] = attr.fileid
        view = yield from self.meta.register(attr.fileid)
        self._note_view(view)
        self._layouts[attr.fileid] = True
        self._sizes[attr.fileid] = attr.size
        self._home_sizes[attr.fileid] = attr.size
        return reply

    def _h_remove(self, call: CallMessage):
        dir_fh, name = pr.unpack_remove_args(call.args)
        reply = yield from self.legs[0].forward(call)
        if pr.read_ok(reply, pr.unpack_remove_res) is None:
            return reply
        fileid = self._names.pop((dir_fh.fileid, name), None)
        if fileid is not None:
            yield from self._drop(fileid, call)
        return reply

    def _h_rename(self, call: CallMessage):
        """RENAME changes home only; the router moves its name entry and
        drops the file the rename replaced, if it knew one there."""
        f_dir, f_name, t_dir, t_name = pr.unpack_rename_args(call.args)
        reply = yield from self.legs[0].forward(call)
        if pr.read_ok(reply, pr.unpack_rename_res) is None:
            return reply
        fileid = self._names.pop((f_dir.fileid, f_name), None)
        replaced = self._names.pop((t_dir.fileid, t_name), None)
        if fileid is not None:
            self._names[(t_dir.fileid, t_name)] = fileid
        if replaced is not None and replaced != fileid:
            yield from self._drop(replaced, call)
        return reply

    def _h_setattr(self, call: CallMessage):
        fh, sattr = pr.unpack_setattr_args(call.args)
        striped = yield from self._is_striped(fh.fileid)
        reply = yield from self.legs[0].forward(call)
        if not striped:
            return reply
        if sattr.size is not None:
            self._sizes[fh.fileid] = sattr.size
            self._home_sizes[fh.fileid] = sattr.size
            # truncate the stripes too (where the file exists)
            def truncate(b):
                bfh = yield from self._shadow(b, fh, call)
                if bfh is None:
                    return False
                yield from self.legs[b].forward(self._call(
                    Proc.SETATTR,
                    pr.pack_setattr_args(bfh, Sattr3(size=sattr.size)), call))
                return True

            yield from self._mirror(truncate)
        return reply

    # -- data procedures -------------------------------------------------------

    def _read_span(self, call: CallMessage, fh: FileHandle, block: int,
                   abs_off: int, length: int, piece: Optional[_Piece] = None):
        """Worker: read one span, failing over along the owner list (past
        ``piece``'s backend, once the reply a burst got for it is judged).
        Returns the span bytes, zero-padded to ``length``: zeros for a
        span no live replica has (a hole), None if every one is dead or
        errored (data loss, an IO reply).  A replica that answers without
        serving the read is passed over, not marked dead: it is up.
        Never raises, so no failure leaves fan-out stragglers racing."""
        saw_absent = False
        for idx, b in enumerate(self.layout.owners(fh.fileid, block)):
            if piece is not None:
                if b != piece.b:
                    continue
                reply, piece = piece.reply, None
            elif b in self._dead:
                continue
            else:
                if idx > 0:
                    self.stats["read_failovers"] += 1
                try:
                    bfh = yield from self._shadow(b, fh, call)
                    if bfh is None:
                        saw_absent = True
                        continue
                    reply = yield from self.legs[b].forward(self._call(
                        Proc.READ, pr.pack_read_args(bfh, abs_off, length), call))
                except RpcError:
                    self._fail_backend(b)
                    continue
            if reply is None or not reply.ok:
                continue
            try:
                # NOENT is a hole, not a failure: read the status here
                # rather than through read_ok, which cannot tell them apart
                status, _attr, data, _eof = pr.unpack_read_res(reply.results)
            except DECODE_ERRORS:
                continue
            if status == NfsStatus.OK:
                return data.ljust(length, b"\x00")[:length]
            if status == NfsStatus.NOENT:
                saw_absent = True
                continue
            return None
        if saw_absent:
            # a live replica answered "no such data": the span was never
            # written there — a hole, which reads as zeros
            self.stats["hole_spans"] += 1
            return b"\x00" * length
        return None

    def _h_data(self, call: CallMessage):
        """READ or WRITE on its own: each span sent by itself."""
        _pieces, finish = yield from self._plan(call, burst=False)
        if finish is None:
            return (yield from self.legs[0].forward(call))
        return (yield from finish())

    def _plan_read(self, call: CallMessage, burst: bool = True):
        """Process generator: a striped READ's pieces and the process
        generator reading its spans (below the session's file size) into
        the reply, one :meth:`_read_span` each; in a burst a span has a
        piece on its first live owner whose object is known there."""
        fh, offset, count = pr.unpack_read_args(call.args)
        if not (yield from self._is_striped(fh.fileid)):
            return None
        self.stats["striped_reads"] += 1
        size = self._size_of(fh.fileid)
        spans = self.layout.spans(offset, max(0, min(count, size - offset)))
        self.stats["spans_read"] += len(spans)
        pieces = []  # per span: its piece, or None
        for block, abs_off, length in spans:
            owners = self.layout.owners(fh.fileid, block)
            b = next((b for b in owners if b not in self._dead), None)
            bfh = fh if b == 0 else self._shadows.get((b, fh.fileid))
            pieces.append(None if bfh is None or not burst else _Piece(b, self._call(
                Proc.READ, pr.pack_read_args(bfh, abs_off, length), call)))
            if pieces[-1] is not None and b != owners[0]:
                self.stats["read_failovers"] += 1

        def finish():
            chunks = yield from self._fan_out((
                (f"r{block}", self._read_span(call, fh, block, abs_off, length, piece))
                for (block, abs_off, length), piece in zip(spans, pieces)), inline=True)
            if spans:
                yield from self._report_dead()
            if any(c is None for c in chunks):
                # a span with no live replica: surface the loss loudly
                return ReplyMessage(xid=call.xid,
                                    results=pr.pack_read_res(NfsStatus.IO, None))
            data = b"".join(chunks)
            return ReplyMessage(xid=call.xid, results=pr.pack_read_res(
                NfsStatus.OK, None, data, not spans or offset + len(data) >= size))

        return [piece for piece in pieces if piece is not None], finish

    def _plan_write(self, call: CallMessage, burst: bool = True):
        """Process generator: a striped WRITE's pieces — each span on
        every live owner — and the process generator judging them into
        the reply (out of a burst, sending them first).  Objects are
        resolved (created on demand) one by one before any piece goes
        out: two spans on one backend must not race duplicate CREATEs."""
        fh, offset, stable, payload = pr.unpack_write_args(call.args)
        if not (yield from self._is_striped(fh.fileid)):
            return None
        self.stats["striped_writes"] += 1
        spans = self.layout.spans(offset, len(payload))
        self.stats["spans_written"] += len(spans)
        pieces = []  # (span index, piece), in spawn order
        for si, (block, abs_off, length) in enumerate(spans):
            chunk = payload[abs_off - offset:abs_off - offset + length]
            for b in self.layout.owners(fh.fileid, block):
                if b in self._dead:
                    continue
                try:
                    bfh = yield from self._shadow(b, fh, call, create=True)
                except RpcError:
                    self._fail_backend(b)
                    continue
                if bfh is not None:
                    pieces.append((si, _Piece(b, self._call(
                        Proc.WRITE, pr.pack_write_args(bfh, abs_off, chunk, stable),
                        call), tag=f"w{block}.{b}")))

        def finish():
            if not burst:
                yield from self._fan_out((p.tag, self._deliver(p)) for _si, p in pieces)
                yield from self._report_dead()
            landed = [0] * len(spans)
            dirtied = self._dirty.setdefault(fh.fileid, set())
            for si, piece in pieces:
                res = pr.read_ok(piece.reply, pr.unpack_write_res)
                if res is not None and res[2] == spans[si][2]:
                    landed[si] += 1
                    dirtied.add(piece.b)
                    self.stats["replica_writes"] += 1
            if any(n == 0 for n in landed):
                # a span with no surviving copy is a hard failure
                return ReplyMessage(xid=call.xid, results=pr.pack_write_res(
                    NfsStatus.IO, None, 0, stable, GRID_VERF))
            if any(n < self.layout.replicas for n in landed):
                self.stats["degraded_writes"] += 1
            end = offset + len(payload)
            if end > self._sizes.get(fh.fileid, 0):
                self._sizes[fh.fileid] = end
            return ReplyMessage(xid=call.xid, results=pr.pack_write_res(
                NfsStatus.OK, None, len(payload), stable, GRID_VERF))

        return [piece for _si, piece in pieces], finish

    def _h_commit(self, call: CallMessage):
        fh, _off, _cnt = pr.unpack_commit_args(call.args)
        if not (yield from self._is_striped(fh.fileid)):
            return (yield from self.legs[0].forward(call))
        dirty = sorted(self._dirty.get(fh.fileid, ()))
        jobs = []
        for b in dirty:
            if b in self._dead:
                continue
            bfh = yield from self._shadow(b, fh, call)
            if bfh is not None:
                jobs.append((f"c{b}", self._deliver(_Piece(b, self._call(
                    Proc.COMMIT, pr.pack_commit_args(bfh), call)))))
        if jobs:
            yield from self._fan_out(jobs)
        yield from self._report_dead()
        self._dirty.pop(fh.fileid, None)
        # make the home server the size authority for future sessions
        tracked = self._sizes.get(fh.fileid, 0)
        if tracked > self._home_sizes.get(fh.fileid, 0):
            self.stats["size_pushes"] += 1
            reply = yield from self.legs[0].forward(self._call(
                Proc.SETATTR,
                pr.pack_setattr_args(fh, Sattr3(size=tracked)), call))
            res = pr.read_ok(reply, pr.unpack_setattr_res)
            if res is not None:
                self._home_attr(res[1])
        reply = yield from self.legs[0].forward(call)
        res = pr.read_ok(reply, pr.unpack_commit_res)
        if res is None:
            return reply
        status, after, verf = res
        patched = self._home_attr(after)
        if patched is not after:
            reply.results = pr.pack_commit_res(status, patched, verf)
        return reply
