"""Stateful model of the kernel NFS client's page cache.

Hypothesis drives a caching :class:`repro.nfs.client.NfsClient`
(``tests/test_nfs_server_client.py::build``: 4 KiB blocks, a cache of
one to eight blocks and read-ahead of none to two, so small files evict
and are read ahead) and keeps an in-memory byte oracle of every file
beside it; ``/a`` starts as six blocks the server holds.  Each file has
one open handle:

- WRITE (aligned and not, also past EOF, leaving holes), READ (runs of
  blocks, whole or short, so read-ahead follows the reader), SETATTR
  (size), O_TRUNC, fsync, and close-and-reopen;
- concurrent pairs: a READ and a WRITE of other blocks of one file, or
  either beside an fsync, started in one virtual instant; and a READ of
  a block just written and evicted, its WRITE still in flight;
- each operation starts when the one before it returns, so background
  read-ahead and write-back overlap the operations that follow them (a
  READ right after the WRITE whose insert evicted its block, say).

It checks that

- a READ returns the oracle's bytes, and after teardown (close, drain)
  the server holds them;
- at quiescence no block is fetching or writing, no read-ahead or
  write-back process is alive, the table's dirty-byte count is that of
  its dirty blocks, and no process died unobserved.

The ``wide`` profile (``tests/conftest.py``) runs ten times the examples.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.nfs.protocol import Sattr3
from repro.sim.process import all_of
from tests.test_nfs_server_client import build

BS = 4096  # build()'s block size
MAX_SIZE = 6 * BS
QUIET = 1.0  # virtual seconds after which nothing is in flight
PATTERN = bytes(range(251)) * (2 * MAX_SIZE // 251 + 2)

names = st.sampled_from(["a", "b"])
blocks = st.sampled_from(range(6))
sizes = st.sampled_from([0, 1000, BS - 1, BS, BS + 7, 2 * BS, 3 * BS + 5, 5 * BS])


class NfsClientModel(RuleBasedStateMachine):
    @initialize(capacity=st.integers(1, 8), read_ahead=st.integers(0, 2))
    def mount(self, capacity, read_ahead):
        self.sim, self.fs, _prog, self.cl = build(cache_bytes=capacity * BS,
                                                  read_ahead=read_ahead)
        self.files = {}    # name -> bytearray: what a reader must see
        self.handles = {}  # name -> its open file
        self.writes = 0
        # a warm start: /a is six blocks the server holds, none cached
        self.write("a", 0, 0, MAX_SIZE, True)
        self.reopen("a")
        self.cl.pages.drop_file(self.handles["a"].fileid)

    def run(self, *gens):
        """Run operations from one virtual instant until all return."""
        procs = [self.sim.spawn(gen) for gen in gens]
        return self.sim.run_until_complete(self.sim.spawn(self._join(procs)))

    def _join(self, procs):
        return (yield all_of(self.sim, procs))

    def _handle(self, name):
        if name not in self.handles:
            self.handles[name] = self.run(self.cl.open(f"/{name}", create=True))[0]
            self.files.setdefault(name, bytearray())
        return self.handles[name]

    # -- operations: each updates the oracle and returns its generator

    def _write(self, name, start, length):
        f, data = self._handle(name), self.files[name]
        self.writes += 1  # every write's bytes differ from the last's
        payload = PATTERN[self.writes % 251:][:min(length, MAX_SIZE - start)]
        data.extend(bytes(max(start + len(payload) - len(data), 0)))
        data[start:start + len(payload)] = payload
        return self.cl.write(f, start, payload)

    def _read(self, name, start, count):
        f, want = self._handle(name), bytes(self.files[name][start:start + count])

        def read():
            got = yield from self.cl.read(f, start, count)
            assert got == want, (name, start, count)
        return read()

    @rule(name=names, block=blocks, inner=st.sampled_from([0, 1, 100, BS // 2, BS - 1]),
          length=st.sampled_from([1, 100, BS - 1, BS, BS + 1, 3 * BS, MAX_SIZE]),
          aligned=st.booleans())
    def write(self, name, block, inner, length, aligned):
        start = block * BS + (0 if aligned else inner)
        if aligned:
            length = length - length % BS or BS
        self.run(self._write(name, start, length))

    @rule(name=names, first=blocks, n=st.sampled_from([1, 3, 6]),
          count=st.sampled_from([BS, 1000]), inner=st.sampled_from([0, 0, 100, BS - 1]))
    def read(self, name, first, n, count, inner):
        """READs of ``n`` blocks in a row, each ``inner`` bytes into its
        block: read-ahead follows a reader that starts at block 0 or
        goes on from its last block."""
        for block in range(first, first + n):
            self.run(self._read(name, block * BS + inner, count))

    @rule(name=names, first=blocks, n=st.sampled_from([2, 4, 6]))
    def write_then_read_back(self, name, first, n):
        """WRITE whole blocks, then READ the first back at once: in a
        small cache it was evicted, and its WRITE is still in flight."""
        self.run(self._write(name, first * BS, n * BS))
        self.run(self._read(name, first * BS, BS))

    @rule(name=names, read_block=blocks, write_block=blocks,
          n=st.sampled_from([1, 2]), read_first=st.booleans())
    def read_and_write(self, name, read_block, write_block, n, read_first):
        """A READ of one block and a WRITE of ``n`` whole others, from
        one instant: the READ's fetch or read-ahead may carry a block
        the WRITE writes, and the WRITE may evict the block read."""
        self._handle(name)
        size = len(self.files[name])
        end = min((write_block + n) * BS, MAX_SIZE)
        if read_block in range(write_block, write_block + n) or (
                end > size and (read_block + 1) * BS > size):
            return  # the WRITE would change what the READ sees, or where it ends
        read = self._read(name, read_block * BS, BS)
        write = self._write(name, write_block * BS, n * BS)
        self.run(*((read, write) if read_first else (write, read)))

    @rule(name=names, block=blocks, write=st.booleans())
    def fsync_beside(self, name, block, write):
        """An fsync and a READ or WRITE of the same file, from one instant."""
        f = self._handle(name)
        op = self._write(name, block * BS, BS) if write else self._read(name, block * BS, BS)
        self.run(self.cl.fsync(f), op)

    @rule(name=names)
    def fsync(self, name):
        self.run(self.cl.fsync(self._handle(name)))

    @rule(name=names, size=sizes)
    def setattr_size(self, name, size):
        """SETATTR through the path; the handle is reopened after it
        (an open file's size is its own)."""
        self._handle(name)
        data = self.files[name]
        del data[size:]
        data.extend(bytes(size - len(data)))
        self.run(self.cl.setattr(f"/{name}", Sattr3(size=size)))
        self.reopen(name)

    @rule(name=names)
    def o_trunc(self, name):
        self._handle(name)
        self.run(self.cl.close(self.handles.pop(name)))
        self.files[name].clear()
        self.handles[name] = self.run(self.cl.open(f"/{name}", truncate=True))[0]

    @rule(name=names)
    def reopen(self, name):
        self.run(self.cl.close(self._handle(name)))
        self.handles[name] = self.run(self.cl.open(f"/{name}"))[0]

    @rule(idle=st.sampled_from([0.0005, 0.005, QUIET]))
    def idle(self, idle):
        """Let ``idle`` seconds pass: a round trip, or enough for every
        background process to end (quiescence)."""
        self.sim.run_until_complete(self.sim.spawn(self._sleep(idle)))
        if idle == QUIET:
            self._check_quiet()

    def _sleep(self, seconds):
        yield self.sim.timeout(seconds)

    def _check_quiet(self):
        pages = self.cl.pages
        states = {k: pages.state(*k) for k in pages._rows}
        assert not [k for k, s in states.items() if s == "fetching" or "writing" in s]
        assert not any(p.alive for p in pages.background() + pages.background(writes=True))
        assert pages.dirty_bytes == sum(len(r.data) for r in pages._rows.values() if r.dirty)
        assert self.sim.unobserved_deaths() == []

    def teardown(self):
        if not hasattr(self, "cl"):
            return
        for f in self.handles.values():
            self.run(self.cl.close(f))
        self.run(self.cl.drain())
        self.idle(QUIET)
        assert self.cl.pages.dirty_bytes == 0
        for name, data in self.files.items():
            assert bytes(self.fs.resolve(f"/{name}").data) == bytes(data), name


TestNfsClientModel = NfsClientModel.TestCase
# a tenth of the profile's examples: 10 under the default profile (the
# tier-1 slice), 100 under ``--hypothesis-profile=wide``
TestNfsClientModel.settings = settings(
    max_examples=max(settings.default.max_examples // 10, 1),
    stateful_step_count=50, deadline=None,
)
