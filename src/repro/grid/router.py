"""Client-side striping router: fan block I/O out across backends.

The :class:`GridRouter` is the ``upstream`` a
:class:`repro.proxy.client_proxy.SgfsClientProxy` is handed in place of
a single leg, and takes over upstream forwarding:

- **namespace operations** (LOOKUP, GETATTR, ACCESS, READDIR, …) go to
  the *home* server (backend 0) — the single namespace authority;
- **CREATE** goes home, then registers the new file with the metadata
  service, making it striped; directories (MKDIR) are mirrored eagerly
  onto every backend so stripe files always have a parent to live in;
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

    def __init__(self, sim, legs: List[object], meta, width: int,
                 replicas: int = 1, block_size: int = 4 * 1024 * 1024,
                 obs=None):
        from repro.grid.layout import GridLayout

        if len(legs) != width:
            raise ValueError(f"need one leg per backend: {len(legs)} != {width}")
        self.sim = sim
        #: per-backend :class:`repro.proxy.upstream.UpstreamSession`;
        #: leg 0 is the home (namespace) leg
        self.legs = legs
        self.meta = meta
        self.layout = GridLayout(width, replicas, block_size)
        #: layout epoch last seen from the metadata service; any reply
        #: carrying a newer one flushes the striped/unstriped cache
        self._epoch = 0
        #: fileid -> is-striped (False = out-of-band home-only file)
        self._layouts: Dict[int, bool] = {}
        #: locally-known dead backends (superset of the server's view
        #: until the post-join mark_dead report lands)
        self._dead: Set[int] = set()
        #: (backend, home_fileid) -> backend file handle
        self._shadows: Dict[Tuple[int, int], FileHandle] = {}
        #: home_fileid -> (home_dir_fileid, name), for lazy per-backend
        #: path resolution; roots are seeded by :meth:`add_root`
        self._parents: Dict[int, Tuple[int, str]] = {}
        #: (home_dir_fileid, name) -> home fileid (rename/remove upkeep)
        self._names: Dict[Tuple[int, str], int] = {}
        self._is_dir: Set[int] = set()
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
            int(Proc.MKDIR): self._h_create, int(Proc.REMOVE): self._h_remove,
            int(Proc.RMDIR): self._h_remove, int(Proc.RENAME): self._h_rename,
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

    def add_root(self, home_fileid: int, handles: Dict[int, FileHandle]) -> None:
        """Seed the per-backend handles of one shared directory (the
        client's mount root): backend index -> that backend's handle."""
        for b, fh in handles.items():
            self._shadows[(b, home_fileid)] = fh
        self._is_dir.add(home_fileid)

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
        backend order, a namespace change home has accepted.
        ``share(b)`` is backend ``b``'s part (resolve its twin handles,
        forward the call) and returns whether there was anything to do
        there.  A backend that fails its part is marked dead; the
        failures are reported once the loop is through."""
        for b in range(1, self.layout.width):
            if b in self._dead:
                continue
            try:
                if (yield from share(b)):
                    self.stats["mirrored_ops"] += 1
            except RpcError:
                self._fail_backend(b)
        yield from self._report_dead()

    def _shadow(self, b: int, fileid: int, template: CallMessage,
                create: bool = False):
        """Process generator: resolve (and optionally create) the
        backend-``b`` twin of home file ``fileid``.  Returns the backend
        handle, or None when the path doesn't exist there."""
        fh = self._shadows.get((b, fileid))
        if fh is not None:
            return fh
        parent = self._parents.get(fileid)
        if parent is None:
            return None
        dir_fid, name = parent
        dir_fh = yield from self._shadow(b, dir_fid, template, create=create)
        if dir_fh is None:
            return None
        leg = self.legs[b]
        reply = yield from leg.forward(self._call(
            Proc.LOOKUP, pr.pack_lookup_args(dir_fh, name), template))
        res = pr.read_ok(reply, pr.unpack_lookup_res)
        if res is not None and res[1] is not None:
            self._shadows[(b, fileid)] = res[1]
            return res[1]
        if not create:
            return None
        proc, pack, mode = (
            (Proc.MKDIR, pr.pack_mkdir_args, 0o755) if fileid in self._is_dir
            else (Proc.CREATE, pr.pack_create_args, 0o644))
        reply = yield from leg.forward(self._call(
            proc, pack(dir_fh, name, Sattr3(mode=mode)), template))
        res = pr.read_ok(reply, pr.unpack_create_res)
        if res is not None and res[1] is not None:
            self._shadows[(b, fileid)] = res[1]
            return res[1]
        return None

    def _record_child(self, dir_fid: int, name: str, fileid: int,
                      is_dir: bool) -> None:
        self._parents[fileid] = (dir_fid, name)
        self._names[(dir_fid, name)] = fileid
        if is_dir:
            self._is_dir.add(fileid)

    def _forget_child(self, dir_fid: int, name: str) -> None:
        fileid = self._names.pop((dir_fid, name), None)
        if fileid is None:
            return
        self._parents.pop(fileid, None)
        self._is_dir.discard(fileid)
        self._sizes.pop(fileid, None)
        self._home_sizes.pop(fileid, None)
        self._dirty.pop(fileid, None)
        self._layouts.pop(fileid, None)
        for key in [k for k in self._shadows if k[1] == fileid]:
            del self._shadows[key]

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
            self._record_child(dir_fh.fileid, name, attr.fileid, attr.is_dir)
            self._note_home_attr(attr)
            patched = self._patched_attr(attr)
            if patched is not attr:
                reply.results = pr.pack_lookup_res(status, fh, patched, dir_attr)
        return reply

    def _h_create(self, call: CallMessage):
        """CREATE and MKDIR: made at home first; then a file is
        registered as striped, a directory mirrored onto every backend."""
        dir_fh, name = pr.unpack_diropargs_prefix(call.args)
        reply = yield from self.legs[0].forward(call)
        res = pr.read_ok(reply, pr.unpack_create_res)
        if res is None:
            return reply
        _status, fh, attr, _dir_after = res
        if fh is None or attr is None:
            return reply
        is_dir = call.proc == int(Proc.MKDIR)
        self._record_child(dir_fh.fileid, name, attr.fileid, is_dir)
        self._shadows[(0, attr.fileid)] = fh
        if is_dir:
            # eager mirror: stripe files need a parent on every backend
            def make(b):
                yield from self._shadow(b, attr.fileid, call, create=True)
                return True

            yield from self._mirror(make)
        else:
            # new files created through a grid session are striped
            view = yield from self.meta.register(attr.fileid)
            self._note_view(view)
            self._layouts[attr.fileid] = True
            self._sizes[attr.fileid] = attr.size
            self._home_sizes[attr.fileid] = attr.size
        return reply

    def _h_remove(self, call: CallMessage):
        dir_fh, name = pr.unpack_remove_args(call.args)
        fileid = self._names.get((dir_fh.fileid, name))
        striped = False
        if fileid is not None:
            striped = yield from self._is_striped(fileid)
        reply = yield from self.legs[0].forward(call)
        if pr.read_ok(reply, pr.unpack_remove_res) is None:
            return reply
        if striped or call.proc == int(Proc.RMDIR):
            # mirror by (backend dir, name); NOENT is fine — the file
            # may never have materialized there
            def remove(b):
                bdir = yield from self._shadow(b, dir_fh.fileid, call)
                if bdir is None:
                    return False
                yield from self.legs[b].forward(self._call(
                    call.proc, pr.pack_remove_args(bdir, name), call))
                return True

            yield from self._mirror(remove)
        if fileid is not None and striped:
            view = yield from self.meta.forget(fileid)
            self._note_view(view)
        self._forget_child(dir_fh.fileid, name)
        return reply

    def _h_rename(self, call: CallMessage):
        f_dir, f_name, t_dir, t_name = pr.unpack_rename_args(call.args)
        fileid = self._names.get((f_dir.fileid, f_name))
        striped = False
        if fileid is not None:
            striped = yield from self._is_striped(fileid)
        reply = yield from self.legs[0].forward(call)
        if pr.read_ok(reply, pr.unpack_rename_res) is None:
            return reply
        if striped:
            def rename(b):
                f_b = yield from self._shadow(b, f_dir.fileid, call)
                t_b = yield from self._shadow(b, t_dir.fileid, call,
                                              create=True)
                if f_b is None or t_b is None:
                    return False
                yield from self.legs[b].forward(self._call(
                    Proc.RENAME,
                    pr.pack_rename_args(f_b, f_name, t_b, t_name), call))
                return True

            yield from self._mirror(rename)
        # rewire local naming state
        self._forget_child(t_dir.fileid, t_name)
        if fileid is not None:
            self._names.pop((f_dir.fileid, f_name), None)
            self._record_child(t_dir.fileid, t_name, fileid,
                              fileid in self._is_dir)
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
                bfh = yield from self._shadow(b, fh.fileid, call)
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

    def _read_span(self, call: CallMessage, fileid: int, block: int,
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
        for idx, b in enumerate(self.layout.owners(fileid, block)):
            if b in self._dead:
                continue
            if idx > 0:
                self.stats["read_failovers"] += 1
            try:
                fh = yield from self._shadow(b, fileid, call)
                if fh is None:
                    saw_absent = True
                    continue
                reply = yield from self.legs[b].forward(self._call(
                    Proc.READ, pr.pack_read_args(fh, abs_off, length), call))
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
                (yield from self._read_span(call, fh.fileid, block,
                                            abs_off, length))
            ]
        else:
            chunks = yield from self._fan_out([
                (f"r{block}",
                 self._read_span(call, fh.fileid, block, abs_off, length))
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
                    bfh = yield from self._shadow(b, fh.fileid, call,
                                                  create=True)
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
            bfh = yield from self._shadow(b, fh.fileid, call)
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
