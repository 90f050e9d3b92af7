"""Calibration regression guard.

The figure benchmarks assert *relative* shapes; these tests pin the
small set of absolute anchors the calibration promises, so an innocent
refactor that silently shifts the cost model fails here with a clear
message instead of surfacing as a mysterious benchmark drift.
"""

import pytest

from repro.core import Testbed, setup_nfs_v3
from repro.core.calibration import DEFAULT_CALIBRATION
from repro.harness import Scenario, run
from repro.workloads.iozone import IOzoneReadReread

MB = 1024 * 1024


def test_lan_rtt_anchor():
    """LAN RTT ≈ 0.3 ms, the paper's measured value (§6.2.2)."""
    tb = Testbed.build(rtt=0.0)
    assert tb.measured_rtt == pytest.approx(0.0003, rel=0.05)


def test_wan_rtt_configured_exactly():
    tb = Testbed.build(rtt=0.080)
    assert tb.measured_rtt == pytest.approx(0.0803, rel=0.01)


def test_nfs_bulk_throughput_anchor():
    """Kernel NFS sequential read ≈ 35–42 MB/s (the paper's ~38 MB/s
    VMware-era ceiling)."""
    r = run(Scenario("nfs-v3", cache_bytes=2 * MB),
            lambda: IOzoneReadReread(file_size=4 * MB))
    throughput = 8 * MB / r.total  # reads the file twice
    assert 33e6 < throughput < 45e6, f"{throughput / 1e6:.1f} MB/s"


def test_small_op_latency_anchor():
    """A cold metadata op in LAN lands in the high-hundreds of µs."""
    tb = Testbed.build(rtt=0.0)
    mount = setup_nfs_v3(tb)

    def job():
        t0 = tb.sim.now
        yield from mount.client.mkdir("/anchor")
        return tb.sim.now - t0

    latency = tb.run(job())
    assert 0.0005 < latency < 0.020, latency


def test_calibration_constants_sanity():
    cal = DEFAULT_CALIBRATION
    assert cal.cpu_hz == 3.2e9  # the paper's Xeons
    assert cal.block_size == 32768  # the paper's transfer size
    # proxy overhead must be latency-dominated (Figs. 4 vs 5 split)
    assert cal.proxy_cost.latency.per_byte > 5 * cal.proxy_cost.cpu.per_byte
    # ssh must dwarf the plain proxy per byte (the 6x penalty)
    assert cal.ssh_cost.latency.per_byte > 10 * cal.proxy_cost.latency.per_byte
    # cache-disk hits must be slower than LAN RTT but faster than WAN
    assert 0.0003 < cal.cache_disk_access < 0.005


def test_suite_cycle_ladder():
    from repro.crypto.suites import SUITE_AES_SHA, SUITE_NULL_SHA, SUITE_RC4_SHA

    sha = SUITE_NULL_SHA.cycles_per_byte
    rc = SUITE_RC4_SHA.cycles_per_byte
    aes = SUITE_AES_SHA.cycles_per_byte
    # the +9/+15/+50 ladder needs roughly rc ≈ 2×sha, aes ≈ 6×sha
    assert sha > 0
    assert 1.5 * sha < rc < 3.0 * sha
    assert 5.0 * sha < aes < 8.0 * sha
