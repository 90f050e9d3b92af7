"""Capture golden virtual-runtime values for every setup builder.

Run this against a known-good tree to (re)generate the golden table
embedded in ``tests/test_golden_runtimes.py``.  The fast-path refactor
must reproduce these numbers byte-identically.

    PYTHONPATH=src python tests/_capture_goldens.py
"""

import hashlib
import json

from repro.core.setups import SETUP_BUILDERS
from repro.harness import run_fleet, run_iozone, run_postmark
from repro.harness.runner import run_iozone_wr
from repro.obs.schema import project
from repro.workloads.iozone import IOzoneReadReread, IOzoneWriteRead
from repro.workloads.postmark import PostMarkConfig

FILE_SIZE = 256 * 1024
CACHE_BYTES = 128 * 1024
WAN_RTT = 0.080
#: proxy disk cache small enough that every case below evicts
SMALL_PROXY_CACHE = 256 * 1024


def run_s1_cache_case(label: str):
    """One ``streams=1`` cached WAN run (the paper's stop-and-wait
    proxy) whose proxy cache is smaller than its working set — shared
    with ``tests/test_golden_runtimes.py`` so capture and check can
    never run different scenarios."""
    kw = {"disk_cache": True, "cache_capacity": SMALL_PROXY_CACHE}
    if label == "postmark-evict":
        # many small files: dirty evictions interleaved with read misses
        cfg = PostMarkConfig(directories=5, files=60, transactions=100)
        return run_postmark("sgfs", rtt=WAN_RTT, config=cfg, setup_kwargs=kw)
    if label == "iozone-wr-evict-teardown":
        # 512 KB written through a 256 KB cache: half the blocks leave by
        # eviction mid-run, the rest in the teardown flush
        return run_iozone_wr("sgfs", rtt=WAN_RTT, file_size=512 * 1024,
                             setup_kwargs=kw)
    if label == "iozone-wr-evict-refetch":
        # a kernel cache too small to absorb the read passes, so evicted
        # blocks are fetched back and evict the remaining dirty ones
        return run_iozone_wr("sgfs", rtt=WAN_RTT, file_size=512 * 1024,
                             setup_kwargs=dict(kw, cache_bytes=64 * 1024))
    raise KeyError(label)


S1_CACHE_CASES = ("postmark-evict", "iozone-wr-evict-teardown",
                  "iozone-wr-evict-refetch")


def s1_cache_row(result):
    pc = result.stats["proxy.client"]
    return (result.total.hex(), result.writeback_seconds.hex(),
            pc["writeback_blocks"], pc["writeback_bytes"], pc["forwarded"])


def run_fault_case(label: str):
    """One run under a seeded fault plan — single session and fleet,
    plain and grid — shared with ``tests/test_golden_runtimes.py`` like
    the cases above.  These pin the *values* of a fault run (the
    determinism gates only compare a seed with itself)."""
    if label == "single-lossy-wan":
        return run_iozone("sgfs-aes", rtt=0.08, file_size=1 << 20,
                          setup_kwargs={"cache_bytes": 512 * 1024},
                          faults="lossy-wan", fault_seed="ci")
    if label == "single-chaos-wan-4-streams":
        return run_iozone("sgfs-aes", rtt=0.08, file_size=4 << 20,
                          setup_kwargs={"disk_cache": True, "streams": 4},
                          faults="chaos-wan", fault_seed="ci-chaos")
    if label == "fleet-lossy-wan":
        return run_fleet("sgfs-aes",
                         lambda: IOzoneReadReread(file_size=128 * 1024),
                         clients=4, rtt=0.04,
                         faults="lossy-wan", fault_seed="fleet-ci")
    if label == "grid-fleet-lossy-wan":
        return run_fleet("sgfs-sha",
                         lambda: IOzoneWriteRead(file_size=256 * 1024),
                         clients=4, servers=3, replicas=2, streams=2, rtt=0.02,
                         faults="lossy-wan", fault_seed="g")
    raise KeyError(label)


FAULT_CASES = ("single-lossy-wan", "single-chaos-wan-4-streams",
               "fleet-lossy-wan", "grid-fleet-lossy-wan")


def fault_row(result):
    """(total or makespan hex, the whole ``stats["faults"]`` dict, grid
    failovers + degraded writes)."""
    span = result.makespan if hasattr(result, "makespan") else result.total
    grid = result.stats.get("grid", {})
    return (span.hex(), dict(result.stats["faults"]),
            grid.get("read_failovers", 0) + grid.get("degraded_writes", 0))


#: the schema version golden snapshot hashes are taken at: a key
#: declared later (``since`` above it) moves no golden
GOLDEN_SCHEMA_VERSION = 1


def snapshot_sha256(result) -> str:
    """sha256 over the run's snapshot projected onto the keys declared at
    :data:`GOLDEN_SCHEMA_VERSION`, except the ``sim`` component: the
    kernel's own dispatch counters change with the dispatch strategy."""
    stats = project(result.stats, GOLDEN_SCHEMA_VERSION)
    stats.pop("sim", None)
    return hashlib.sha256(
        json.dumps(stats, sort_keys=True, default=repr).encode()
    ).hexdigest()


def capture():
    out = {}
    for setup in sorted(SETUP_BUILDERS):
        for label, rtt in (("lan", 0.0), ("wan", 0.080)):
            r = run_iozone(setup, rtt=rtt, file_size=FILE_SIZE,
                           setup_kwargs={"cache_bytes": CACHE_BYTES},
                           telemetry=True)
            out[f"{label}-{setup}"] = {
                "total": r.total.hex(),
                "writeback": r.writeback_seconds.hex(),
                "snapshot_sha256": snapshot_sha256(r),
            }
    return out


def capture_s1_cache():
    return {label: s1_cache_row(run_s1_cache_case(label))
            for label in S1_CACHE_CASES}


def capture_faults():
    return {label: fault_row(run_fault_case(label)) for label in FAULT_CASES}


if __name__ == "__main__":
    print(json.dumps(capture(), indent=2, sort_keys=True))
    print(json.dumps(capture_s1_cache(), indent=2, sort_keys=True))
    print(json.dumps(capture_faults(), indent=2, sort_keys=True))
