"""Stateful model of the client proxy's block table.

Hypothesis drives NFS calls straight into a caching client proxy
(``write_behind_mount``, cut to two or eight blocks of cache and a
window of two or three, so small files evict and are read ahead — read
windows are capped at a share of the cache, so more than one block
wide only in the larger one) and keeps an in-memory byte oracle of
every file beside it; ``/a`` starts as six blocks the server holds:

- READ (mostly at block boundaries, whole or short — the kernel
  client's pattern — and unaligned, which only the server answers) and
  WRITE (aligned and unaligned, also past EOF, leaving holes), COMMIT,
  REMOVE, SETATTR(size), RENAME, LINK and ``writeback()``;
- calls are queued and run back to back, so several start in one
  virtual instant (a WRITE right after the READ that spawned
  read-ahead, say);
- the upstream is scripted: bursts can be held back (they then land
  out of order across channels), or from some point on fail;
- each example enables a few kinds of call ("swarm testing"), so the
  sequences a bug needs are not diluted by all the others.

At depth 1 (one stream: stop-and-wait) and depth 2 (four streams: read-
ahead and write-behind in the background) it checks that

- a READ returns the oracle's bytes, and after ``writeback()`` the
  server holds them, with no WRITE sent to a dead handle;
- a whole-block READ at depth 2 leaves its block, if cached, first in
  LRU order (drop-behind);
- a failed write-back burst's error reaches a caller or ``writeback()``,
  never nobody (and no process dies unobserved);
- at quiescence no block is fetching or writing and no background
  process is alive.

Once a burst has failed, bytes may be lost by design, so the byte checks
stop and only the last two stand.  The ``wide`` profile
(``tests/conftest.py``) runs ten times the examples.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.nfs import protocol as pr
from repro.nfs.protocol import NfsStatus, Proc, Sattr3
from repro.rpc.errors import RpcTransportError
from repro.vfs.fs import Credentials
from tests.test_proxy_client_cache import BS, _nfs, write_behind_mount

ROOT = Credentials(0, 0)
MAX_SIZE = 6 * BS
QUIET = 2.0  # virtual seconds after which nothing is in flight
PATTERN = bytes(range(251)) * (2 * MAX_SIZE // 251 + 2)

names = st.sampled_from(["a", "b"])
blocks = st.sampled_from(range(6))
sizes = st.sampled_from([0, 1000, BS - 1, BS, BS + 7232, 2 * BS, 3 * BS + 5, 5 * BS])
#: the kinds of call besides WRITE an example may make: it draws a few
KINDS = ["read", "commit", "setattr", "remove", "rename", "link", "hold", "writeback"]


def when(kind):
    return precondition(lambda self: kind in self.kinds)


class ProxyModel(RuleBasedStateMachine):
    @initialize(streams=st.sampled_from([1, 4]), window=st.sampled_from([2, 3]),
                capacity=st.sampled_from([2, 8]), failures=st.booleans(),
                kinds=st.sets(st.sampled_from(KINDS), min_size=1, max_size=4))
    def mount(self, streams, window, capacity, failures, kinds):
        self.kinds = kinds
        self.tb, self.mount, self.proxy = write_behind_mount(streams)
        leg = self.proxy._up.legs[0]
        self.streams = streams
        if streams > 1:  # windows that small files outrun: read-ahead runs
            leg.window = lambda: window
        # many writes evict; at 8 blocks a read window is 2 blocks wide
        self.proxy.cache.capacity_bytes = capacity * BS
        self.root = self.mount.client.root_fh
        self.tb.run(self.mount.client.access("/", 1))  # the session's credential
        self.names = {}   # name -> fileid
        self.files = {}   # fileid -> (handle, bytearray)
        self.queue = []   # generator functions: the calls of the next instant
        self.held = {int(Proc.READ): [], int(Proc.WRITE): []}  # per burst
        self.down = set()  # kinds of burst that fail, until teardown
        #: the errors failed write-back bursts raised, and those callers saw
        self.failed, self.seen = set(), set()
        self.writes = 0
        self.failures = failures  # else bursts are only held back: bytes stay checked
        burst = leg.burst

        def scripted(calls):
            kind = calls[0].proc
            if self.held[kind]:
                yield self.tb.sim.timeout(self.held[kind].pop(0))
            if kind in self.down:
                yield self.tb.sim.timeout(0.05)  # the leg gives up on it
                error = RpcTransportError("upstream lost")
                if kind == int(Proc.WRITE):
                    self.failed.add(error)
                raise error
            return (yield from burst(calls))

        leg.burst = scripted
        # a warm start: /a is six blocks the server holds, none cached
        self.write("a", 0, 0, MAX_SIZE, True)
        self.queue.append(self._writeback)
        self.instant(idle=QUIET)

    # -- the calls: each updates the oracle now and runs at the next instant

    def _call(self, proc, args, check=None):
        def run():
            res = yield from _nfs(self.proxy, proc, args)
            if check is not None and not self.tainted:
                check(res)
        self.queue.append(run)

    @property
    def tainted(self):
        return bool(self.failed or self.seen)

    def create(self, name):
        if name in self.names:
            return
        self.instant()  # a file needs its handle before anything else
        res = self.tb.run(_nfs(self.proxy, Proc.CREATE, pr.pack_create_args(
            self.root, name, Sattr3(mode=0o644))))
        _status, fh, attr, _dir = pr.unpack_create_res(res)
        self.names[name] = attr.fileid
        self.files[attr.fileid] = (fh, bytearray())

    def _file(self, name):
        fileid = self.names.get(name)
        return (fileid, *self.files[fileid]) if fileid is not None else (None, None, None)

    @rule(name=names, block=blocks, inner=st.sampled_from([0, 1, 100, BS // 2, BS - 1]),
          length=st.sampled_from([1, 100, BS - 1, BS, BS + 1, 3 * BS, MAX_SIZE]),
          aligned=st.booleans())
    def write(self, name, block, inner, length, aligned):
        self.create(name)
        fileid, fh, data = self._file(name)
        start = block * BS + (0 if aligned else inner)
        if aligned:
            start, length = start - start % BS, length - length % BS or BS
        self.writes += 1  # every write's bytes differ from the last's
        payload = PATTERN[self.writes % 251:][:min(length, MAX_SIZE - start)]
        if not payload:
            return
        data.extend(bytes(max(start + len(payload) - len(data), 0)))
        data[start:start + len(payload)] = payload
        self._call(Proc.WRITE, pr.pack_write_args(fh, start, payload, pr.UNSTABLE))

    @when("read")
    @rule(name=names, first=blocks, n=st.sampled_from([1, 3, 6]),
          count=st.sampled_from([BS, 1000]), inner=st.sampled_from([0, 0, 100, BS - 1]))
    def read(self, name, first, n, count, inner=0):
        """READs of ``n`` blocks in a row (read-ahead follows a reader),
        each ``inner`` bytes into its block."""
        fileid, fh, data = self._file(name)
        for block in range(first, first + n) if fileid is not None else ():
            start = block * BS + inner
            want = bytes(data[start:start + count])

            def check(res, start=start, want=want, key=(fileid, block)):
                status, _attr, got, _eof = pr.unpack_read_res(res)
                assert status == NfsStatus.OK and got == want, (name, start, count)
                cache = self.proxy._blocks
                if self.streams > 1 and count == BS and not inner and key in cache:
                    assert next(k for k, r in cache._rows.items() if r.data is not None) == key
            self._call(Proc.READ, pr.pack_read_args(fh, start, count), check)

    @when("read")
    @rule(name=names, first=st.sampled_from(range(4)), ahead=st.sampled_from(range(4)),
          n=st.sampled_from([1, 3]), read_first=st.booleans())
    def read_and_write(self, name, first, ahead, n, read_first):
        """A READ at block ``first`` and a WRITE of ``n`` whole blocks
        ``ahead`` blocks on, in one instant: the read-ahead the READ
        spawns may carry a block the WRITE writes, or evict the blocks
        it wrote."""
        calls = [lambda: self.read(name, first, 1, BS),
                 lambda: self.write(name, first + ahead, 0, n * BS, True)]
        for call in calls if read_first else calls[::-1]:
            call()
        self.instant()

    @when("commit")
    @rule(name=names)
    def commit(self, name):
        fileid, fh, _data = self._file(name)
        if fileid is not None:
            self._call(Proc.COMMIT, pr.pack_commit_args(fh))

    @when("setattr")
    @rule(name=names, size=sizes)
    def setattr_size(self, name, size):
        fileid, fh, data = self._file(name)
        if fileid is None:
            return
        del data[size:]
        data.extend(bytes(size - len(data)))
        self._call(Proc.SETATTR, pr.pack_setattr_args(fh, Sattr3(size=size)))

    def _unlink(self, name):
        fileid = self.names.pop(name)
        if fileid not in self.names.values():
            del self.files[fileid]

    @when("remove")
    @rule(name=names)
    def remove(self, name):
        if self.names.get(name) is not None:
            self._unlink(name)
            self._call(Proc.REMOVE, pr.pack_remove_args(self.root, name))

    @when("rename")
    @rule(src=names, dst=names)
    def rename(self, src, dst):
        fileid = self.names.get(src)
        if fileid is None or src == dst:
            return
        if self.names.get(dst) != fileid:  # links of one file: a no-op
            if dst in self.names:
                self._unlink(dst)
            self.names[dst] = self.names.pop(src)
        self._call(Proc.RENAME, pr.pack_rename_args(self.root, src, self.root, dst))

    @when("link")
    @rule(src=names, dst=names)
    def link(self, src, dst):
        fileid, fh, _data = self._file(src)
        if fileid is None or dst in self.names:
            return
        self.names[dst] = fileid
        self._call(Proc.LINK, pr.pack_link_args(fh, self.root, dst))

    @when("hold")
    @rule(kind=st.sampled_from([Proc.READ, Proc.WRITE]),
          held=st.sampled_from([0.03, 0.3]))
    def hold_upstream(self, kind, held):
        """The next three bursts of this kind are held back."""
        self.held[int(kind)] += [held] * 3

    @precondition(lambda self: self.failures)
    @rule(kind=st.sampled_from([Proc.READ, Proc.WRITE]))
    def lose_upstream(self, kind):
        """From now on every burst of this kind fails."""
        self.down.add(int(kind))

    @when("writeback")
    @rule()
    def writeback(self):
        self.queue.append(self._writeback)

    def _writeback(self):
        yield from self.proxy.writeback()

    @rule(idle=st.sampled_from([0.0, 0.05, QUIET]))
    def instant(self, idle=0.0):
        """Run the queued calls back to back, from one virtual instant;
        then let ``idle`` seconds pass (a round trip, or enough for
        every background process to end: quiescence)."""
        queue, self.queue = self.queue, []

        def run():
            for call in queue:
                try:
                    yield from call()
                except RpcTransportError as error:
                    self.seen.add(error)
        self.tb.run(run())
        if idle:
            self.tb.run(self._idle(idle))
        if idle == QUIET:
            self._check_quiet()

    def _idle(self, seconds):
        yield self.tb.sim.timeout(seconds)

    def _check_quiet(self):
        blocks = self.proxy._blocks
        states = {k: blocks.state(*k) for k in blocks._rows}
        assert not [k for k, s in states.items() if s == "fetching" or "writing" in s]
        assert not any(p.alive for p in blocks.background() + blocks.background(writes=True))

    def teardown(self):
        if not hasattr(self, "tb"):
            return
        self.held = {k: [] for k in self.held}
        self.down.clear()
        self.instant()
        # each failed burst's error reaches a caller or writeback(): a
        # writeback() that raises one leaves the next failed burst listed
        for _ in range(20):
            try:
                self.tb.run(self.proxy.writeback())
                break
            except RpcTransportError as error:
                self.seen.add(error)
        assert self.failed <= self.seen
        assert self.tb.sim.unobserved_deaths() == []
        self._check_quiet()
        assert not self.proxy._blocks.background() and not self.proxy._blocks.background(writes=True)
        if self.tainted:
            return
        assert self.proxy.stats["writeback_errors"] == 0
        for name, fileid in self.names.items():
            node = self.tb.fs.resolve(f"/{name}", ROOT)
            assert bytes(node.data) == bytes(self.files[fileid][1]), name


TestProxyModel = ProxyModel.TestCase
# a tenth of the profile's examples: 10 under the default profile (the
# tier-1 slice), 100 under ``--hypothesis-profile=wide``
TestProxyModel.settings = settings(
    max_examples=max(settings.default.max_examples // 10, 1),
    stateful_step_count=60, deadline=None,
)


def test_a_rename_over_a_file_with_dirty_blocks_sends_none_of_them():
    """RENAME ``/a`` over ``/b`` while ``/b``'s block 3 is dirty: ``/b``
    is forgotten before the RENAME goes out, so write-behind, evicting
    for ``/a``'s writes during the round trip, sends no WRITE to the
    handle the reply makes stale (``writeback_errors`` was 1)."""
    state = ProxyModel()
    state.mount(streams=4, window=2, capacity=8, failures=True,
                kinds={"read", "rename"})
    state.rename(src="a", dst="b")
    state.read_and_write(name="a", first=0, ahead=3, n=1, read_first=False)
    state.rename(src="a", dst="b")
    state.read_and_write(name="a", first=1, ahead=3, n=3, read_first=False)
    state.rename(src="a", dst="b")
    state.teardown()
