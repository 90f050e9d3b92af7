"""The kernel client's cache machinery, unit-tested directly."""

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
#
# The page cache is the block table (repro.nfs.cache.BlockCache), built
# disk-less the way the kernel client and bench/micro.py build it;
# tests/test_proxy_block_cache.py holds the table's other cases.


def test_page_cache_put_get_lru():
    cache = PageCache(capacity_bytes=3 * 100, block_size=100)
    for b in range(3):
        cache.put(1, b, Page(data=bytes(100)))
    cache.get(1, 0)  # refresh block 0
    cache.put(1, 3, Page(data=bytes(100)))  # evicts block 1 (LRU)
    assert cache.peek(1, 0) is not None
    assert cache.peek(1, 1) is None
    assert cache.counts.evictions == 1


def test_page_cache_returns_dirty_victims():
    cache = PageCache(capacity_bytes=200, block_size=100)
    cache.put(1, 0, Page(data=b"d" * 100, dirty=True))
    cache.put(1, 1, Page(data=bytes(100)))
    victims = cache.put(1, 2, Page(data=bytes(100)))
    # block 0 was dirty and oldest: it is the victim, with its bytes
    assert victims == [(1, 0, b"d" * 100)]
    assert cache.state(1, 0) == "writing" and cache.peek(1, 0) == b"d" * 100


def test_page_cache_never_evicts_fresh_insert():
    cache = PageCache(capacity_bytes=50, block_size=100)  # smaller than a page
    victims = cache.put(1, 0, Page(data=bytes(100)))
    assert cache.peek(1, 0) is not None
    assert victims == []


def test_page_cache_dirty_pages_iterator():
    cache = PageCache(capacity_bytes=1000, block_size=100)
    cache.put(1, 0, Page(data=bytes(100), dirty=True))
    cache.put(1, 1, Page(data=bytes(100)))
    cache.put(2, 0, Page(data=bytes(100), dirty=True))
    assert cache.dirty == {1: {0}, 2: {0}} and cache.dirty_bytes == 200
    items = cache.gather_dirty([1])
    assert [(f, b) for f, b, _data in items] == [(1, 0)]
    assert cache.dirty == {2: {0}} and cache.dirty_bytes == 100
