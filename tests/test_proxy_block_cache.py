"""BlockCache on its own: LRU order, the low-water mark, dirty marks.

The one block table of the kernel client's page cache and the client
proxy's disk cache.  No Testbed, and a disk model only where a test
counts its reads — eviction and flush choices are pure functions of the
put/get history, so the tests state that history and read the choice
back.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.nfs.cache import BlockCache, CacheSize
from repro.sim import Simulator
from repro.vfs.disk import DiskModel

BS = 100


def _cache(blocks: int):
    sim = Simulator()
    cache = BlockCache(sim, CacheSize(block_size=BS, capacity_bytes=blocks * BS))

    def do(gen):
        return sim.run_until_complete(sim.spawn(gen))

    return cache, do


def _fill(cache, do, fileid: int, blocks, dirty: bool):
    for b in blocks:
        do((cache.write if dirty else cache.fill)(fileid, b, bytes([b]) * BS))


def test_victims_leave_in_lru_order_and_reads_refresh_it():
    cache, do = _cache(blocks=4)
    _fill(cache, do, 1, range(4), dirty=True)
    assert cache.evict((1, 3), window=1) == []  # at capacity, not over it
    assert do(cache.read(1, 0)) == bytes([0]) * BS  # block 0 is now newest
    do(cache.fill(1, 4, b"x" * BS))
    do(cache.fill(1, 5, b"y" * BS))
    victims = cache.evict((1, 5), window=1)
    assert [(f, b) for f, b, _data in victims] == [(1, 1), (1, 2)]
    assert victims[0][2] == bytes([1]) * BS
    assert (1, 0) in cache and (1, 1) not in cache and (1, 2) not in cache
    assert cache.bytes == 4 * BS and cache.counts.evictions == 2
    # the victims' dirty marks are already gone when evict() returns
    assert cache.dirty[1] == {0, 3} and cache.dirty_bytes == 2 * BS


def test_clean_victims_are_dropped_silently():
    cache, do = _cache(blocks=2)
    _fill(cache, do, 1, range(2), dirty=False)
    do(cache.write(1, 2, b"z" * BS))
    assert cache.evict((1, 2), window=1) == []
    assert (1, 0) not in cache and cache.bytes == 2 * BS


def test_just_inserted_block_is_never_its_own_victim():
    cache, do = _cache(blocks=1)
    do(cache.write(1, 0, b"a" * (3 * BS)))  # alone and over capacity
    assert cache.evict((1, 0), window=1) == []
    assert (1, 0) in cache


@pytest.mark.parametrize("window, blocks_left", [
    (1, 16),   # capacity itself: plain LRU, one victim per insert
    (5, 12),   # capacity - (5-1) blocks
    (9, 8),    # capacity - 8 blocks == the capacity/2 floor
    (64, 8),   # floored: a wide window never empties the cache
])
def test_low_water_target(window, blocks_left):
    cache, do = _cache(blocks=16)
    assert cache.low_water(window) == blocks_left * BS
    _fill(cache, do, 1, range(17), dirty=True)
    victims = cache.evict((1, 16), window)
    assert cache.bytes == blocks_left * BS
    # one eviction pass hands back the whole burst, oldest first
    assert [b for _f, b, _d in victims] == list(range(17 - blocks_left))


def test_clean_reput_over_dirty_block_keeps_it_dirty():
    """A fill never lands on unflushed bytes: they are the only copy."""
    cache, do = _cache(blocks=4)
    do(cache.write(1, 0, b"new" * 10))
    do(cache.fill(1, 0, b"refetched" * 10))  # e.g. a read-ahead
    assert 0 in cache.dirty[1]
    assert cache.dirty_bytes == 30
    items = cache.gather_dirty([1])
    assert items == [(1, 0, b"new" * 10)]
    assert cache.dirty_bytes == 0 and (1, 0) in cache  # flushed, still cached


def test_gather_dirty_takes_named_files_blocks_ascending():
    cache, do = _cache(blocks=16)
    _fill(cache, do, 2, (3, 1), dirty=True)
    _fill(cache, do, 1, (2, 0), dirty=True)
    _fill(cache, do, 3, (5,), dirty=True)
    items = cache.gather_dirty([2, 1])
    assert [(f, b) for f, b, _d in items] == [(2, 1), (2, 3), (1, 0), (1, 2)]
    assert set(cache.dirty) == {3}  # file 3 was not asked for
    assert cache.gather_dirty([2, 1]) == []


def test_a_reput_replaces_the_bytes():
    cache, do = _cache(blocks=10)
    do(cache.fill(1, 0, bytes(100)))
    do(cache.fill(1, 0, bytes(40)))
    assert cache.bytes == 40 and cache.peek(1, 0) == bytes(40)
    assert cache.evict((1, 0), window=1) == [] and cache.counts.evictions == 0


def test_drop_file_forgets_that_file_only():
    cache, do = _cache(blocks=10)
    _fill(cache, do, 1, (0, 1), dirty=True)
    _fill(cache, do, 2, (0,), dirty=True)
    cache.drop_file(1)
    assert [(1, 0) in cache, (1, 1) in cache, (2, 0) in cache] == [False, False, True]
    assert cache.bytes == cache.dirty_bytes == BS and cache.dirty == {2: {0}}


def test_drop_file_keep_dirty_spares_unflushed_blocks():
    cache, do = _cache(blocks=16)
    _fill(cache, do, 1, (0, 1), dirty=False)
    _fill(cache, do, 1, (2,), dirty=True)
    cache.drop_file(1, keep_dirty=True)
    assert (1, 0) not in cache and (1, 2) in cache and cache.dirty[1] == {2}
    cache.drop_file(1)
    assert (1, 2) not in cache and 1 not in cache.dirty and cache.bytes == 0


def test_a_dirty_victim_is_writing_until_its_write_lands():
    cache, do = _cache(blocks=1)
    do(cache.write(1, 0, b"a" * BS))
    do(cache.write(1, 1, b"b" * BS))
    (victim,) = cache.evict((1, 1), window=1)
    assert cache.state(1, 0) == "writing" and cache.unflushed(1)
    assert do(cache.read(1, 0)) == b"a" * BS  # still readable
    do(cache.write(1, 0, b"c" * BS))
    assert cache.state(1, 0) == "writing-and-dirty"
    cache.written([victim])  # its WRITE landed: the newer bytes stay dirty
    assert cache.state(1, 0) == "dirty" and cache.dirty[1] == {0, 1}


def test_a_write_that_lands_behind_the_read_ahead_cursor_pulls_it_back():
    """Read-ahead skips a block that is writing (it is present), so its
    cursor passes it; once the WRITE lands and the row goes, the cursor
    comes back to it, and the next read-ahead claims it instead of its
    reader missing it.  A block that stays cached moves nothing."""
    cache, do = _cache(blocks=2)
    _fill(cache, do, 1, range(3), dirty=True)
    (victim,) = cache.evict((1, 2), window=1)
    assert victim[:2] == (1, 0) and cache.state(1, 0) == "writing"
    assert cache.claim(1, range(5)) == [3, 4]
    cache.ahead[1] = 5
    cache.written([victim])
    assert cache.state(1, 0) == "absent" and cache.ahead[1] == 0
    assert cache.claim(1, [0]) == [0]
    (kept,) = cache.take(1, 2)
    assert cache.state(1, 2) == "writing-and-clean"
    cache.ahead[1] = 5
    cache.written([kept])
    assert cache.state(1, 2) == "clean" and cache.ahead[1] == 5


def test_truncate_cuts_the_boundary_block_and_keeps_dirty_blocks_below():
    cache, do = _cache(blocks=8)
    _fill(cache, do, 1, range(3), dirty=True)
    cache.truncate(1, BS + 10)
    assert [cache.state(1, b) for b in range(3)] == ["dirty", "dirty", "absent"]
    assert do(cache.read(1, 1)) == bytes([1]) * 10
    cache.truncate(1, 2 * BS)  # grown: the cut block is zero-extended
    assert do(cache.read(1, 1)) == bytes([1]) * 10 + bytes(BS - 10)
    assert cache.bytes == 2 * BS and cache.dirty[1] == {0, 1}


def test_a_consumed_block_is_evicted_before_unread_read_ahead():
    """Drop-behind: a block the reader is done with goes first, ahead of
    older blocks read ahead and not yet read; an unread block evicted
    counts as wasted read-ahead, one a READ touched does not."""
    cache, do = _cache(blocks=4)
    for b in range(4):
        do(cache.fill(1, b, bytes([b]) * BS, unread=b > 0))  # 0 demanded, 1-3 ahead
    cache.consumed(1, 0)
    do(cache.read(1, 1))
    cache.consumed(1, 1)  # LRU order is now 1, 0, 2, 3
    cache.consumed(1, 7)  # not cached: nothing to move
    do(cache.fill(1, 4, b"x" * BS, unread=True))
    do(cache.fill(1, 5, b"y" * BS, unread=True))
    assert cache.evict((1, 5), window=1) == []
    assert [cache.state(1, b) for b in range(6)] == ["absent"] * 2 + ["clean"] * 4
    assert cache.stats["prefetch_evicted_unread"] == 0
    do(cache.fill(1, 6, b"z" * BS))
    cache.evict((1, 6), window=1)  # block 2, read ahead and never read
    assert cache.state(1, 2) == "absent"
    assert cache.stats["prefetch_evicted_unread"] == 1


def _disk_cache(blocks: int):
    sim = Simulator()
    disk = DiskModel(sim, "cache-disk")
    cache = BlockCache(sim, CacheSize(block_size=BS, capacity_bytes=blocks * BS), disk)

    def do(gen):
        return sim.run_until_complete(sim.spawn(gen))

    return cache, disk, do


def test_a_fetched_block_answers_its_first_read_from_memory():
    """A block a fetch filled and no READ has touched is answered
    without the cache disk, once; its fill still goes to the disk, and
    every later read of it pays a disk read."""
    cache, disk, do = _disk_cache(4)
    do(cache.fill(1, 0, b"a" * BS, unread=True))
    do(cache.fill(1, 1, b"b" * BS))  # the demand block: its reply is answered
    assert (disk.writes, disk.reads) == (2, 0)
    assert do(cache.read(1, 0)) == b"a" * BS
    assert disk.reads == 0
    assert do(cache.read(1, 0)) == b"a" * BS
    assert disk.reads == 1
    assert do(cache.read(1, 1)) == b"b" * BS
    assert disk.reads == 2


def test_a_read_pays_one_disk_access_for_its_run():
    """The access that reads a cached block reads the cached blocks after
    it too, one window in all; each answers its next read from memory,
    and a read after that pays the disk again."""
    cache, disk, do = _disk_cache(16)
    _fill(cache, do, 1, range(8), dirty=True)
    reads, nbytes = disk.reads, disk.bytes_read
    assert do(cache.read(1, 0, window=4)) == bytes([0]) * BS
    assert (disk.reads - reads, disk.bytes_read - nbytes) == (1, 4 * BS)
    for b in (1, 2, 3):
        assert do(cache.read(1, b, window=4)) == bytes([b]) * BS
    assert (disk.reads - reads, disk.bytes_read - nbytes) == (1, 4 * BS)
    assert do(cache.read(1, 4, window=4)) == bytes([4]) * BS
    assert (disk.reads - reads, disk.bytes_read - nbytes) == (2, 8 * BS)
    do(cache.read(1, 1, window=4))  # read once already: the disk again
    assert disk.reads - reads == 3


def _hole(cache, do):
    """Block 3 is never cached."""


def _in_flight(cache, do):
    cache.claim(1, [3])
    do(cache.fill(1, 3, bytes([3]) * BS))  # filled, its fetch not landed


def _unread(cache, do):
    do(cache.fill(1, 3, bytes([3]) * BS, unread=True))


def _staged(cache, do):
    do(cache.fill(1, 3, bytes([3]) * BS))
    do(cache.read(1, 2, window=2))  # its run puts 3 in memory


@pytest.mark.parametrize("block3", [_hole, _in_flight, _unread, _staged])
def test_a_run_stops_at_a_block_not_to_read_off_the_disk(block3):
    """Blocks 0-2 and 4-5 cached; block 3 absent, in flight, read ahead
    and unread, or staged by an earlier run: the run from block 0 reads
    blocks 0-2 only, and block 4's read pays an access of its own."""
    cache, disk, do = _disk_cache(16)
    _fill(cache, do, 1, [0, 1, 2, 4, 5], dirty=False)
    block3(cache, do)
    reads, nbytes = disk.reads, disk.bytes_read
    do(cache.read(1, 0, window=6))
    assert (disk.reads - reads, disk.bytes_read - nbytes) == (1, 3 * BS)
    do(cache.read(1, 4, window=1))
    assert disk.reads - reads == 2
    cache.landed(1, [3])


def test_a_run_stops_at_the_window():
    cache, disk, do = _disk_cache(16)
    _fill(cache, do, 1, range(6), dirty=False)
    do(cache.read(1, 0, window=3))
    assert (disk.reads, disk.bytes_read) == (1, 3 * BS)
    do(cache.read(1, 3, window=1))
    assert disk.reads == 2


def _failing(sim, delay):
    def proc():
        yield sim.timeout(delay)
        raise RuntimeError(f"failed at {delay}")
    return sim.spawn(proc(), name="cproxy-writebehind")


def _ending(sim, delay):
    def proc():
        yield sim.timeout(delay)
    return sim.spawn(proc(), name="cproxy-readahead")


def test_drain_wakes_once_and_raises_the_oldest_failure_once():
    """``drain`` joins its processes oldest first without waking between
    them; a failure surfaces once, the oldest first, and no later than
    joining one by one would raise it."""
    sim = Simulator()
    cache = BlockCache(sim, CacheSize(block_size=BS, capacity_bytes=4 * BS))
    ahead = [_ending(sim, d) for d in (1.0, 2.0, 3.0)]
    for b, proc in enumerate(ahead):
        cache.track(proc, [(1, b)], writes=False)
    late, early = _failing(sim, 5.0), _failing(sim, 4.0)
    cache.track(late, [(1, 7)], writes=True)
    cache.track(early, [(1, 8)], writes=True)
    seen = []

    def drainer():
        woken = sim.process_wakeups
        try:
            yield from cache.drain(1)
        except RuntimeError as exc:
            seen.append((str(exc), sim.now, sim.process_wakeups - woken))
        try:
            yield from cache.drain(1)
        except RuntimeError as exc:
            seen.append((str(exc), sim.now))
        yield from cache.drain(1)  # nothing left to raise

    sim.run_until_complete(sim.spawn(drainer()))
    # the older write-back is raised first, when it ends (the younger one
    # failed before it).  Each of the five processes woke once, at its
    # timeout; the drainer once per group, at 3.0 and at 5.0 (joined one
    # by one, also at 1.0 and 2.0)
    assert seen[0] == ("failed at 5.0", 5.0, 5 + 2)
    assert seen[1] == ("failed at 4.0", 5.0)
    assert not cache.background(1) and not cache.background(1, writes=True)
    assert sim.unobserved_deaths() == []


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.integers(1, 3), st.integers(0, 5)),
        st.tuples(st.sampled_from(["fill", "write"]), st.integers(1, 3),
                  st.integers(0, 5), st.integers(0, BS)),
        st.tuples(st.just("evict"), st.integers(1, 3), st.integers(0, 5),
                  st.integers(1, 3)),
        st.tuples(st.just("written"), st.integers(0, 3)),
        st.tuples(st.sampled_from(["drop", "keep"]), st.integers(1, 3)),
        st.tuples(st.just("truncate"), st.integers(1, 3), st.integers(0, 6 * BS)),
        st.tuples(st.just("gather"), st.integers(1, 3)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_file_index_and_byte_counts_match_a_whole_scan(ops):
    """After any sequence of transitions the per-file index holds each
    file's rows, ``bytes`` is the sum of the cached blocks and
    ``dirty_bytes`` that of the dirty ones — what a scan of the whole
    table gives, so per-file work and the dirty threshold can skip it."""
    cache, do = _cache(blocks=4)
    wire = []
    for op in ops:
        if op[0] == "get":
            cache.get(op[1], op[2])
        elif op[0] in ("fill", "write"):
            do(getattr(cache, op[0])(op[1], op[2], bytes([op[2]]) * op[3]))
        elif op[0] == "evict":
            wire += cache.evict((op[1], op[2]), window=op[3])
        elif op[0] == "written":
            cache.written(wire[:op[1]])
            del wire[:op[1]]
        elif op[0] in ("drop", "keep"):
            cache.drop_file(op[1], keep_dirty=op[0] == "keep")
        elif op[0] == "truncate":
            cache.truncate(op[1], op[2])
        else:
            cache.gather_dirty([op[1]])
        rows = cache._rows
        assert {f: set(blocks) for f, blocks in cache._files.items()} == {
            f: {b for fid, b in rows if fid == f} for f, _b in rows}
        assert all(cache._files[f][b] is row for (f, b), row in rows.items())
        assert cache.bytes == sum(len(r.data) for r in rows.values() if r.data is not None)
        assert cache.dirty_bytes == sum(len(r.data) for r in rows.values() if r.dirty)
        assert {(f, b) for f, blocks in cache.dirty.items() for b in blocks} == {
            key for key, r in rows.items() if r.dirty}
