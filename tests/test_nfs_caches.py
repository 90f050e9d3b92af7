"""The kernel client's cache machinery, unit-tested directly."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.nfs.cache import AccessCache, AttrCache, NameCache, Page, PageCache
from repro.nfs.protocol import Fattr3, FileHandle


def attr(fileid=1, mtime=0.0, is_dir=False, size=100):
    return Fattr3(
        ftype=2 if is_dir else 1, mode=0o644, nlink=1, uid=0, gid=0,
        size=size, used=size, fsid=1, fileid=fileid,
        atime=mtime, mtime=mtime, ctime=mtime,
    )


# -- AttrCache -------------------------------------------------------------------


def test_attr_cache_hit_within_timeout():
    t = [0.0]
    cache = AttrCache(lambda: t[0], ac_reg_min=3.0)
    cache.put(attr(1))
    t[0] = 2.9
    assert cache.get(1) is not None
    t[0] = 3.1
    assert cache.get(1) is None
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_attr_cache_timeout_doubles_when_stable():
    t = [0.0]
    cache = AttrCache(lambda: t[0], ac_reg_min=3.0, ac_reg_max=60.0)
    cache.put(attr(1, mtime=5.0))      # timeout 3
    cache.put(attr(1, mtime=5.0))      # unchanged: timeout 6
    cache.put(attr(1, mtime=5.0))      # timeout 12
    t[0] = 10.0
    assert cache.get(1) is not None    # 10 < 12


def test_attr_cache_timeout_resets_on_change():
    t = [0.0]
    cache = AttrCache(lambda: t[0], ac_reg_min=3.0)
    cache.put(attr(1, mtime=5.0))
    cache.put(attr(1, mtime=5.0))      # timeout 6
    cache.put(attr(1, mtime=9.0))      # changed: back to 3
    t[0] = 4.0
    assert cache.get(1) is None


def test_attr_cache_timeout_capped_at_max():
    t = [0.0]
    cache = AttrCache(lambda: t[0], ac_reg_min=3.0, ac_reg_max=10.0)
    for _ in range(10):
        cache.put(attr(1, mtime=5.0))
    t[0] = 9.9
    assert cache.get(1) is not None
    t[0] = 10.1
    assert cache.get(1) is None


def test_attr_cache_directories_use_dir_bounds():
    t = [0.0]
    cache = AttrCache(lambda: t[0], ac_reg_min=3.0, ac_dir_min=30.0)
    cache.put(attr(1, is_dir=True))
    t[0] = 20.0
    assert cache.get(1) is not None  # dirs live longer


def test_attr_cache_peek_ignores_freshness():
    t = [0.0]
    cache = AttrCache(lambda: t[0])
    cache.put(attr(1))
    t[0] = 1e6
    assert cache.get(1) is None
    assert cache.peek(1) is not None


def test_attr_cache_invalidate_and_clear():
    cache = AttrCache(lambda: 0.0)
    cache.put(attr(1))
    cache.put(attr(2))
    cache.invalidate(1)
    assert cache.peek(1) is None and cache.peek(2) is not None
    cache.clear()
    assert cache.peek(2) is None


# -- NameCache ----------------------------------------------------------------------


def fh(fileid):
    return FileHandle(1, fileid, 1)


def test_name_cache_basics():
    cache = NameCache()
    cache.put(1, "a", fh(10), 10)
    assert cache.get(1, "a") == (fh(10), 10)
    assert cache.get(1, "b") is None
    cache.invalidate(1, "a")
    assert cache.get(1, "a") is None


def test_name_cache_invalidate_dir():
    cache = NameCache()
    cache.put(1, "a", fh(10), 10)
    cache.put(1, "b", fh(11), 11)
    cache.put(2, "c", fh(12), 12)
    cache.invalidate_dir(1)
    assert cache.get(1, "a") is None and cache.get(1, "b") is None
    assert cache.get(2, "c") is not None


def test_name_cache_lru_capacity():
    cache = NameCache(capacity=2)
    cache.put(1, "a", fh(10), 10)
    cache.put(1, "b", fh(11), 11)
    cache.get(1, "a")            # refresh "a"
    cache.put(1, "c", fh(12), 12)  # evicts "b"
    assert cache.get(1, "a") is not None
    assert cache.get(1, "b") is None
    assert cache.get(1, "c") is not None


# -- AccessCache -----------------------------------------------------------------------


def test_access_cache_per_uid_with_timeout():
    t = [0.0]
    cache = AccessCache(lambda: t[0], timeout=30.0)
    cache.put(10, 1000, 0x3F)
    assert cache.get(10, 1000) == 0x3F
    assert cache.get(10, 2000) is None  # per-uid
    t[0] = 31.0
    assert cache.get(10, 1000) is None


def test_access_cache_invalidate_file():
    cache = AccessCache(lambda: 0.0)
    cache.put(10, 1000, 1)
    cache.put(10, 2000, 2)
    cache.put(11, 1000, 3)
    cache.invalidate(10)
    assert cache.get(10, 1000) is None and cache.get(10, 2000) is None
    assert cache.get(11, 1000) == 3


# -- PageCache ----------------------------------------------------------------------------


def test_page_cache_put_get_lru():
    cache = PageCache(capacity_bytes=3 * 100, block_size=100)
    for b in range(3):
        cache.put(1, b, Page(data=bytes(100)))
    cache.get(1, 0)  # refresh block 0
    cache.put(1, 3, Page(data=bytes(100)))  # evicts block 1 (LRU)
    assert cache.peek(1, 0) is not None
    assert cache.peek(1, 1) is None
    assert cache.stats.evictions == 1


def test_page_cache_returns_dirty_victims():
    cache = PageCache(capacity_bytes=200, block_size=100)
    cache.put(1, 0, Page(data=bytes(100), dirty=True))
    cache.put(1, 1, Page(data=bytes(100)))
    victims = cache.put(1, 2, Page(data=bytes(100)))
    # block 0 was dirty and oldest: it must be in the victim list
    assert any(v[0] == 1 and v[1] == 0 and v[2].dirty for v in victims)


def test_page_cache_never_evicts_fresh_insert():
    cache = PageCache(capacity_bytes=50, block_size=100)  # smaller than a page
    victims = cache.put(1, 0, Page(data=bytes(100)))
    assert cache.peek(1, 0) is not None
    assert victims == []


def test_page_cache_replace_updates_bytes():
    cache = PageCache(capacity_bytes=1000, block_size=100)
    cache.put(1, 0, Page(data=bytes(100)))
    cache.put(1, 0, Page(data=bytes(40)))
    assert cache.used_bytes == 40
    assert len(cache) == 1


def test_page_cache_drop_file():
    cache = PageCache(capacity_bytes=1000, block_size=100)
    cache.put(1, 0, Page(data=bytes(100)))
    cache.put(2, 0, Page(data=bytes(100)))
    cache.drop_file(1)
    assert cache.peek(1, 0) is None and cache.peek(2, 0) is not None
    assert cache.used_bytes == 100


def test_page_cache_dirty_pages_iterator():
    cache = PageCache(capacity_bytes=1000, block_size=100)
    cache.put(1, 0, Page(data=bytes(100), dirty=True))
    cache.put(1, 1, Page(data=bytes(100)))
    cache.put(2, 0, Page(data=bytes(100), dirty=True))
    all_dirty = list(cache.dirty_pages())
    assert {(f, b) for f, b, _p in all_dirty} == {(1, 0), (2, 0)}
    only_1 = list(cache.dirty_pages(1))
    assert {(f, b) for f, b, _p in only_1} == {(1, 0)}


_page_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.integers(1, 3), st.integers(0, 5)),
        st.tuples(st.just("put"), st.integers(1, 3), st.integers(0, 5),
                  st.integers(1, 120), st.booleans()),
        st.tuples(st.just("drop"), st.integers(1, 3)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_page_ops)
def test_page_cache_file_index_matches_whole_scan(ops):
    """The per-file index is the LRU order restricted to one file: after
    any get/put/drop sequence ``dirty_pages(f)`` is what filtering a scan
    of the whole cache gives, order included (it is the write-back
    order), and ``used_bytes`` is the sum of the cached page sizes."""
    cache = PageCache(capacity_bytes=400, block_size=100)
    for op in ops:
        if op[0] == "get":
            cache.get(op[1], op[2])
        elif op[0] == "put":
            cache.put(op[1], op[2], Page(data=bytes(op[3]), dirty=op[4]))
        else:
            cache.drop_file(op[1])
        scan = list(cache.dirty_pages())
        for f in (1, 2, 3):
            assert list(cache.dirty_pages(f)) == [row for row in scan if row[0] == f]
        assert cache.used_bytes == sum(len(p.data) for p in cache._pages.values())
        # clean pages too: a page may be dirtied in place later
        assert {f: list(blocks) for f, blocks in cache._by_file.items()} == {
            f: [b for fid, b in cache._pages if fid == f]
            for f in {fid for fid, _b in cache._pages}}
