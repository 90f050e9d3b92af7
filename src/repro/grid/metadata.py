"""The grid metadata service — the NameNode role.

One :class:`GridMetadataService` runs on the home server, exported over
its own RPC program/port (the server-side SGFS proxy only admits the
NFS program, so layout traffic gets a dedicated listener).  It holds:

- the static placement config (``width`` / ``replicas`` /
  ``block_size`` — see :class:`repro.grid.layout.GridLayout`),
- the **registration catalog**: which home fileids are striped.  Files
  created through a grid session register here; files materialized out
  of band (workload ``prepare`` hooks writing straight into the home
  VFS) are unknown and therefore routed home-only, unstriped,
- the **dead set**: backends reported crashed by a client.  A backend,
  once dead, stays dead for the run (no re-join protocol — restarts
  serve future sessions, not this one), which keeps failover decisions
  monotone and deterministic,
- the **epoch**, bumped on every layout-affecting change.  Every reply
  carries it; a client seeing a newer epoch than it cached flushes its
  layout cache — the invalidation-on-layout-change protocol.

All state changes are plain dict/set mutations (no virtual time); the
RPC round trips are what cost simulated time.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.grid.layout import DEFAULT_BLOCK_SIZE, GridLayout
from repro.obs.schema import zeros
from repro.rpc.server import RpcProgram
from repro.xdr import Packer, Unpacker

#: program number of the grid metadata service (outside any IANA range,
#: like the simulation's other private programs)
GRID_META_PROGRAM = 400100
GRID_META_VERSION = 1

NULLPROC = 0
GET_LAYOUT = 1
REGISTER = 2
FORGET = 3
MARK_DEAD = 4


class LayoutView:
    """One metadata reply: the placement config + catalog answer."""

    __slots__ = ("epoch", "striped", "width", "replicas", "block_size", "dead")

    def __init__(self, epoch: int, striped: bool, width: int, replicas: int,
                 block_size: int, dead: Tuple[int, ...]):
        self.epoch = epoch
        self.striped = striped
        self.width = width
        self.replicas = replicas
        self.block_size = block_size
        self.dead = dead

    def pack(self) -> bytes:
        p = Packer()
        p.pack_uint(self.epoch)
        p.pack_bool(self.striped)
        p.pack_uint(self.width)
        p.pack_uint(self.replicas)
        p.pack_uint(self.block_size)
        p.pack_array(sorted(self.dead), p.pack_uint)
        return p.get_bytes()

    @classmethod
    def unpack(cls, data: bytes) -> "LayoutView":
        u = Unpacker(data)
        epoch = u.unpack_uint()
        striped = u.unpack_bool()
        width = u.unpack_uint()
        replicas = u.unpack_uint()
        block_size = u.unpack_uint()
        dead = tuple(u.unpack_array(u.unpack_uint))
        u.assert_done()
        return cls(epoch, striped, width, replicas, block_size, dead)

    def layout(self) -> GridLayout:
        return GridLayout(self.width, self.replicas, self.block_size)


class GridMetadataService:
    """NameNode state: catalog + dead set + epoch."""

    def __init__(self, width: int, replicas: int = 1,
                 block_size: int = DEFAULT_BLOCK_SIZE, obs=None):
        # validates width/replicas/block_size
        self.layout = GridLayout(width, replicas, block_size)
        self.files: Set[int] = set()
        self.dead: Set[int] = set()
        self.epoch = 1
        self.stats = zeros("grid.meta")
        if obs is not None:
            obs.add_collector("grid.meta", self.stats.copy)

    def _view(self, striped: bool) -> LayoutView:
        return LayoutView(
            self.epoch, striped, self.layout.width, self.layout.replicas,
            self.layout.block_size, tuple(self.dead),
        )

    def get_layout(self, fileid: int) -> LayoutView:
        self.stats["lookups"] += 1
        return self._view(fileid in self.files)

    def register(self, fileid: int) -> LayoutView:
        if fileid not in self.files:
            self.files.add(fileid)
            self.stats["registrations"] += 1
        return self._view(True)

    def forget(self, fileid: int) -> LayoutView:
        if fileid in self.files:
            self.files.discard(fileid)
            self.stats["forgets"] += 1
        return self._view(False)

    def mark_dead(self, backend: int) -> LayoutView:
        """A client reports a crashed backend; bumps the epoch so every
        other client's cached layouts invalidate on their next call."""
        if 0 <= backend < self.layout.width and backend not in self.dead:
            self.dead.add(backend)
            self.epoch += 1
            self.stats["dead_marks"] += 1
            self.stats["epoch_bumps"] += 1
        return self._view(False)


class GridMetadataProgram(RpcProgram):
    """RPC surface of :class:`GridMetadataService`."""

    prog = GRID_META_PROGRAM
    vers = GRID_META_VERSION
    #: registration/forget must not re-execute on duplicate requests
    non_idempotent = frozenset((REGISTER, FORGET))

    def __init__(self, service: GridMetadataService):
        self.service = service

    def handle(self, proc: int, args: bytes, call, ctx):
        if proc == NULLPROC:
            return b""
        u = Unpacker(args)
        if proc == GET_LAYOUT:
            view = self.service.get_layout(u.unpack_uhyper())
        elif proc == REGISTER:
            view = self.service.register(u.unpack_uhyper())
        elif proc == FORGET:
            view = self.service.forget(u.unpack_uhyper())
        elif proc == MARK_DEAD:
            view = self.service.mark_dead(u.unpack_uint())
        else:
            from repro.rpc.server import ProcUnavailable

            raise ProcUnavailable(proc)
        u.assert_done()
        return view.pack()
        yield  # pragma: no cover — generator protocol, no virtual time


class GridMetadataClient:
    """Client-side stub: one RPC connection to the metadata listener."""

    def __init__(self, sim, host, server_host: str, port: int,
                 cost=None, account: str = "grid-meta"):
        self.sim = sim
        self.host = host
        self.server_host = server_host
        self.port = port
        self.cost = cost
        self.account = account
        self._rpc = None

    def connect(self):
        """Process generator: dial the metadata service."""
        from repro.rpc.client import RpcClient
        from repro.rpc.transport import StreamTransport

        sock = yield from self.host.connect(self.server_host, self.port)
        kwargs = {"cpu": self.host.cpu, "account": self.account}
        if self.cost is not None:
            kwargs["cost"] = self.cost
        self._rpc = RpcClient(
            self.sim, StreamTransport(sock),
            GRID_META_PROGRAM, GRID_META_VERSION, **kwargs,
        )
        return self

    def _call(self, proc: int, args: bytes):
        res = yield from self._rpc.call(proc, args)
        return LayoutView.unpack(res)

    @staticmethod
    def _fileid_args(fileid: int) -> bytes:
        p = Packer()
        p.pack_uhyper(fileid)
        return p.get_bytes()

    def get_layout(self, fileid: int):
        return self._call(GET_LAYOUT, self._fileid_args(fileid))

    def register(self, fileid: int):
        return self._call(REGISTER, self._fileid_args(fileid))

    def forget(self, fileid: int):
        return self._call(FORGET, self._fileid_args(fileid))

    def mark_dead(self, backend: int):
        p = Packer()
        p.pack_uint(backend)
        return self._call(MARK_DEAD, p.get_bytes())
