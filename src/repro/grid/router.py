"""Client-side striping router: fan block I/O out across backends.

The :class:`GridRouter` is the ``upstream`` a
:class:`repro.proxy.client_proxy.SgfsClientProxy` is handed in place of
a single leg, and takes over upstream forwarding:

- **namespace operations** (LOOKUP, GETATTR, ACCESS, READDIR, …) go to
  the *home* server (backend 0) — the single namespace authority;
- **CREATE** goes home, then registers the new file with the metadata
  service, making it striped.  The namespace lives only at home: each
  backend keeps one object per striped file, named by its home fileid
  — home's is the file itself, backend b > 0's the file
  ``str(fileid)`` in the seat's directory there — so MKDIR, RMDIR and
  RENAME change home only; REMOVE, or a RENAME over a striped file,
  removes the replaced file's objects and forgets its catalog entry;
- **READ/WRITE** of striped files are split into grid-block spans
  (:meth:`repro.grid.layout.GridLayout.spans`) and fanned out to the
  owning backends in parallel; unstriped (out-of-band) files pass
  through to home untouched;
- **COMMIT** fans out to every backend the session dirtied, then
  pushes the tracked file size to the home server (SETATTR) so future
  sessions see the correct length in home GETATTRs.

Determinism rules (same-seed reruns are bit-identical, also under
crash schedules):

- fan-out processes are spawned in ascending (span, replica) order and
  **joined in spawn order** — completion order never influences
  results;
- replica placement depends only on (fileid, block, width, replicas),
  never on liveness; a read tries its owner list strictly in placement
  order, skipping backends known dead;
- a backend that fails a data call is marked dead locally at once and
  reported to the metadata service *after* the fan-out join, in
  backend order; dead backends stay dead for the whole run.

Correctness details worth knowing:

- backend fileids are allocated by each backend's own VFS and may
  collide with unrelated home fileids, so replies assembled from
  backend data **never carry post-op attributes** (the kernel client
  tolerates missing attrs and keeps its own bookkeeping);
- the router tracks the session-authoritative size of every striped
  file it writes and patches home GETATTR/LOOKUP replies with it — the
  single-writer-session relaxation the SGFS proxy cache already relies
  on.

Multi-stream legs: the router itself is stream-agnostic — each
:class:`~repro.proxy.upstream.UpstreamSession` leg may be built
with ``streams=N`` and round-robins the bulk calls the router forwards
across its own channels; determinism is preserved because the
router joins fan-outs in spawn order regardless of which channel
carried each call.
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


class GridRouter:
    """Striped data plane of one client session."""

    def __init__(self, sim, legs: List[object], meta,
                 roots: Dict[int, FileHandle], width: int, replicas: int = 1,
                 block_size: int = 4 * 1024 * 1024, obs=None):
        from repro.grid.layout import GridLayout

        if len(legs) != width:
            raise ValueError(f"need one leg per backend: {len(legs)} != {width}")
        self.sim = sim
        #: per-backend :class:`repro.proxy.upstream.UpstreamSession`;
        #: leg 0 is the home (namespace) leg
        self.legs = legs
        self.meta = meta
        #: backend index -> the seat's directory there, which holds the
        #: backend's objects
        self._roots = roots
        self.layout = GridLayout(width, replicas, block_size)
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
        self._cred = None
        #: NFS procedure -> how it is routed; anything else goes home
        self._routes = {
            int(Proc.READ): self._h_read, int(Proc.WRITE): self._h_write,
            int(Proc.COMMIT): self._h_commit, int(Proc.CREATE): self._h_create,
            int(Proc.REMOVE): self._h_remove, int(Proc.RENAME): self._h_rename,
            int(Proc.SETATTR): self._h_setattr, int(Proc.GETATTR): self._h_getattr,
            int(Proc.LOOKUP): self._h_lookup,
        }
        self.stats = zeros("grid")
        if obs is not None:
            obs.add_collector("grid", self._export_stats)

    def _export_stats(self) -> dict:
        return {**self.stats, "layout_cache_entries": len(self._layouts),
                "shadow_handles": len(self._shadows)}

    # -- wiring ------------------------------------------------------------

    def connect(self):
        """Process generator: dial every backend leg at once, then the
        metadata service.

        The legs' dials run as one joined fan-out (spawned in index
        order, joined in spawn order), so a mount costs its slowest leg,
        not the sum of its legs; each leg still dials its own channels
        one after another, resuming from its own server's ticket slot
        (:class:`repro.tls.channel.ClientSessionStore`).  A failed dial
        (:data:`~repro.rpc.transport.DIAL_ERRORS`) is raised only once
        every sibling dial has finished — the failure of the
        lowest-indexed leg, as a serial dial would raise it — so no dial
        outlives this call."""
        failures = yield from self._fan_out(
            (f"dial{b}", self._dial(leg)) for b, leg in enumerate(self.legs))
        for exc in failures:
            if exc is not None:
                raise exc
        yield from self.meta.connect()
        return self

    @staticmethod
    def _dial(leg):
        """Worker: connect one leg; returns its failure (None on success)
        for :meth:`connect` to raise after the join."""
        try:
            yield from leg.connect()
        except DIAL_ERRORS as exc:
            return exc
        return None

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

    def _note_home_attr(self, attr: Optional[Fattr3]) -> None:
        if attr is None:
            return
        self._home_sizes[attr.fileid] = attr.size
        if attr.size > self._sizes.get(attr.fileid, -1) and \
                attr.fileid in self._sizes:
            self._sizes[attr.fileid] = attr.size

    def _patched_attr(self, attr: Optional[Fattr3]) -> Optional[Fattr3]:
        """Raise home-reported size to the session-tracked one."""
        if attr is None:
            return None
        tracked = self._sizes.get(attr.fileid)
        if tracked is None or tracked <= attr.size:
            return attr
        return replace(attr, size=tracked, used=max(attr.used, tracked))

    def _size_of(self, fileid: int) -> int:
        return max(self._sizes.get(fileid, 0), self._home_sizes.get(fileid, 0))

    def _fan_out(self, gens_with_labels):
        """Spawn workers in order; join in spawn order (never completion
        order).  Workers must catch their own per-replica failures; an
        escaped exception fails the whole aggregate."""
        procs = [
            self.sim.spawn(gen, name=f"grid-fan:{label}")
            for label, gen in gens_with_labels
        ]
        results = yield all_of(self.sim, procs)
        return results

    # -- dispatch ------------------------------------------------------------

    def burst(self, calls: List[CallMessage]):
        """Process generator: a burst of bulk calls from the proxy's
        read window or write-behind, one reply per call in issue order.
        Each call is routed on its own (it may stripe over several
        backends); the legs' channels round-robin what reaches them."""
        return (yield from self._fan_out(
            (f"bulk{i}", self.forward(call)) for i, call in enumerate(calls)
        ))

    def forward(self, call: CallMessage):
        """Process generator: route one upstream call; returns the reply."""
        if call.prog != pr.NFS_PROGRAM:
            return (yield from self.legs[0].forward(call))
        if call.cred is not None and getattr(call.cred, "flavor", 0) != 0:
            self._cred = call.cred
        handler = self._routes.get(call.proc, self.legs[0].forward)
        return (yield from handler(call))

    # -- namespace procedures -------------------------------------------------

    def _h_getattr(self, call: CallMessage):
        reply = yield from self.legs[0].forward(call)
        res = pr.read_ok(reply, pr.unpack_getattr_res)
        if res is None:
            return reply
        status, attr = res
        self._note_home_attr(attr)
        patched = self._patched_attr(attr)
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
            self._note_home_attr(attr)
            patched = self._patched_attr(attr)
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

    def _live_owners(self, fileid: int, block: int) -> List[int]:
        return [b for b in self.layout.owners(fileid, block)
                if b not in self._dead]

    def _read_span(self, call: CallMessage, fh: FileHandle, block: int,
                   abs_off: int, length: int):
        """Worker: read one span, failing over along the owner list.

        Returns the span bytes (zero-padded to ``length``); a span whose
        file legitimately doesn't exist on any live replica reads as a
        hole of zeros; ``None`` means every replica is dead or errored —
        genuine data loss the caller surfaces as an IO reply.  A replica
        that answers without serving the read (an RPC error such as
        SYSTEM_ERR, or results that do not parse) is passed over for the
        next owner but not marked dead: it is up.  Workers never raise:
        the joiner consumes results in span order and decides, so a
        failure can't abort the fan-out early and leave stragglers
        racing."""
        saw_absent = False
        for idx, b in enumerate(self.layout.owners(fh.fileid, block)):
            if b in self._dead:
                continue
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
            if not reply.ok:
                continue
            try:
                # NOENT is a hole, not a failure: read the status here
                # rather than through read_ok, which cannot tell them apart
                status, _attr, data, _eof = pr.unpack_read_res(reply.results)
            except DECODE_ERRORS:
                continue
            if status == NfsStatus.OK:
                if len(data) < length:
                    data = data + b"\x00" * (length - len(data))
                return data[:length]
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

    def _h_read(self, call: CallMessage):
        fh, offset, count = pr.unpack_read_args(call.args)
        striped = yield from self._is_striped(fh.fileid)
        if not striped:
            return (yield from self.legs[0].forward(call))
        self.stats["striped_reads"] += 1
        size = self._size_of(fh.fileid)
        count = max(0, min(count, size - offset))
        if count == 0:
            return ReplyMessage(xid=call.xid, results=pr.pack_read_res(
                NfsStatus.OK, None, b"", True))
        spans = self.layout.spans(offset, count)
        self.stats["spans_read"] += len(spans)
        if len(spans) == 1:
            block, abs_off, length = spans[0]
            chunks = [
                (yield from self._read_span(call, fh, block, abs_off, length))
            ]
        else:
            chunks = yield from self._fan_out([
                (f"r{block}",
                 self._read_span(call, fh, block, abs_off, length))
                for block, abs_off, length in spans
            ])
        yield from self._report_dead()
        if any(c is None for c in chunks):
            # a span with no live replica: surface the loss loudly
            return ReplyMessage(xid=call.xid,
                                results=pr.pack_read_res(NfsStatus.IO, None))
        data = b"".join(chunks)
        eof = offset + len(data) >= size
        return ReplyMessage(xid=call.xid, results=pr.pack_read_res(
            NfsStatus.OK, None, data, eof))

    def _write_replica(self, call: CallMessage, b: int, bfh: FileHandle,
                       abs_off: int, payload: bytes, stable: int):
        """Worker: write one span copy to one backend.  Returns the
        backend index on success, None on failure (caller decides
        whether the span is degraded or lost).  Never raises."""
        try:
            reply = yield from self.legs[b].forward(self._call(
                Proc.WRITE, pr.pack_write_args(bfh, abs_off, payload, stable),
                call))
        except RpcError:
            self._fail_backend(b)
            return None
        res = pr.read_ok(reply, pr.unpack_write_res)
        if res is not None and res[2] == len(payload):
            return b
        return None

    def _h_write(self, call: CallMessage):
        fh, offset, stable, payload = pr.unpack_write_args(call.args)
        striped = yield from self._is_striped(fh.fileid)
        if not striped:
            return (yield from self.legs[0].forward(call))
        self.stats["striped_writes"] += 1
        spans = self.layout.spans(offset, len(payload))
        self.stats["spans_written"] += len(spans)
        # resolve (creating on demand) every target's backend handle
        # *sequentially before* the fan-out: two concurrent spans on the
        # same backend must not race duplicate CREATEs
        jobs = []
        plan = []  # (span_index, backend) per job, in spawn order
        for si, (block, abs_off, length) in enumerate(spans):
            rel = abs_off - offset
            chunk = payload[rel:rel + length]
            for b in self._live_owners(fh.fileid, block):
                try:
                    bfh = yield from self._shadow(b, fh, call, create=True)
                except RpcError:
                    self._fail_backend(b)
                    continue
                if bfh is None:
                    continue
                plan.append((si, b))
                jobs.append((
                    f"w{block}.{b}",
                    self._write_replica(call, b, bfh, abs_off, chunk, stable),
                ))
        outcomes = yield from self._fan_out(jobs)
        yield from self._report_dead()
        landed = [0] * len(spans)
        dirtied = self._dirty.setdefault(fh.fileid, set())
        for (si, _b), ok in zip(plan, outcomes):
            if ok is not None:
                landed[si] += 1
                dirtied.add(ok)
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

    def _h_commit(self, call: CallMessage):
        fh, _off, _cnt = pr.unpack_commit_args(call.args)
        striped = yield from self._is_striped(fh.fileid)
        if not striped:
            return (yield from self.legs[0].forward(call))
        dirty = sorted(self._dirty.get(fh.fileid, ()))
        jobs = []
        for b in dirty:
            if b in self._dead:
                continue
            bfh = yield from self._shadow(b, fh, call)
            if bfh is None:
                continue
            jobs.append((
                f"c{b}",
                self._commit_backend(call, b, bfh),
            ))
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
                self._note_home_attr(res[1])
        reply = yield from self.legs[0].forward(call)
        res = pr.read_ok(reply, pr.unpack_commit_res)
        if res is None:
            return reply
        status, after, verf = res
        self._note_home_attr(after)
        patched = self._patched_attr(after)
        if patched is not after:
            reply.results = pr.pack_commit_res(status, patched, verf)
        return reply

    def _commit_backend(self, call: CallMessage, b: int, bfh: FileHandle):
        try:
            yield from self.legs[b].forward(self._call(
                Proc.COMMIT, pr.pack_commit_args(bfh), call))
        except RpcError:
            self._fail_backend(b)
        return b
