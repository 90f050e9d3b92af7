"""Whole-stack determinism: identical runs produce identical traces.

The reproduction's claim to replicability rests on this: no wall clock,
no OS entropy, FIFO tie-breaking everywhere.  These tests run complete
experiments twice and require bit-identical outcomes.
"""

from repro.core import SETUP_BUILDERS, Testbed
from repro.harness import Scenario, run
from repro.workloads.iozone import IOzoneReadReread
from repro.workloads.postmark import PostMark, PostMarkConfig


def test_iozone_run_is_bit_identical():
    s = Scenario("sgfs-aes", cache_bytes=1 << 19)
    iozone = lambda: IOzoneReadReread(file_size=1 << 20)
    a, b = run(s, iozone), run(s, iozone)
    assert a.total == b.total
    assert a.phases == b.phases
    assert a.client_cpu == b.client_cpu
    assert a.stats["nfs.cache"] == b.stats["nfs.cache"]


def test_postmark_wan_run_is_bit_identical():
    cfg = PostMarkConfig(directories=5, files=25, transactions=50)
    s = Scenario("sgfs", rtt=0.040, disk_cache=True)
    a, b = run(s, lambda: PostMark(cfg)), run(s, lambda: PostMark(cfg))
    assert a.total == b.total
    assert a.phases == b.phases
    assert a.writeback_seconds == b.writeback_seconds


def test_secure_session_traffic_is_deterministic():
    """Even the encrypted byte streams replay identically (seeded DRBG)."""

    def run_and_capture():
        tb = Testbed.build()
        mount = SETUP_BUILDERS["sgfs"](tb, fast_ciphers=False)
        captured = bytearray()
        sock = mount.client_proxy._upstream.sock
        original = sock.send
        sock.send = lambda data: (captured.extend(data), original(data))[1]

        def job():
            yield from mount.client.write_file("/det.bin", b"determinism" * 50)

        tb.run(job())
        return bytes(captured), tb.sim.now

    (bytes_a, t_a), (bytes_b, t_b) = run_and_capture(), run_and_capture()
    assert bytes_a == bytes_b
    assert t_a == t_b


def test_different_rtts_differ_but_each_replays():
    cfg = PostMarkConfig(directories=3, files=10, transactions=10)
    postmark = lambda: PostMark(cfg)
    r20a = run(Scenario("nfs-v3", rtt=0.020), postmark).total
    r20b = run(Scenario("nfs-v3", rtt=0.020), postmark).total
    r40 = run(Scenario("nfs-v3", rtt=0.040), postmark).total
    assert r20a == r20b != r40
