"""Golden virtual-runtime regression tests for every setup builder.

The event-kernel fast path (zero-delay lane, callback-chained packet
delivery) reorganises *how* events are dispatched but must not change
*what* happens: virtual-time results and telemetry snapshots are
required to be byte-identical to the single-heap kernel.  These goldens
were captured from the pre-fast-path tree with
``tests/_capture_goldens.py`` and pin:

- ``total`` / ``writeback`` virtual seconds as exact float bit patterns
  (``float.hex()`` — no tolerance),
- a sha256 over the :class:`repro.obs.Registry` snapshot projected onto
  the keys :mod:`repro.obs.schema` declared at ``GOLDEN_SCHEMA_VERSION``
  (``tests/_capture_goldens.py``), **excluding** the ``sim`` component:
  the kernel's own dispatch counters (``events_dispatched``,
  ``heap_pushes``, ``process_wakeups``) are the quantity the fast path
  exists to reduce, and are pinned exactly, for one scenario, by
  ``test_pinned_kernel_counters`` below.

If one of these fails after a scheduler change, the change altered
event *ordering*, not just dispatch cost — that is a correctness bug.

The snapshot hashes are schema-stable.  Every key a run can report is
declared once, with the version that added it; a snapshot holds every
declared unlabelled key of each component present (zero if untouched),
so the key set depends on what was built, not on what a run happened
to do.  A new metric is one schema row at ``since=SCHEMA_VERSION + 1``:
the projection at the pinned version leaves it out, so it moves no hash
here (``tests/test_stats_schema.py`` checks exactly that).  A hash moves
only when the value of a declared key does.  The ``total`` /
``writeback`` bit patterns have never moved.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.setups import SETUP_BUILDERS
from repro.harness import Scenario, run
from repro.workloads.iozone import IOzoneReadReread
from repro.workloads.mab import ModifiedAndrewBenchmark
from repro.workloads.postmark import PostMark, PostMarkConfig
from tests._capture_goldens import (
    fault_row, run_fault_case, run_s1_cache_case, s1_cache_row, snapshot_sha256,
)

FILE_SIZE = 256 * 1024
CACHE_BYTES = 128 * 1024
WAN_RTT = 0.080

#: label -> (total.hex(), writeback.hex(), v1 snapshot sha256 sans "sim").
GOLDEN = {
    "lan-gfs": ("0x1.587f0540471d1p-5", "0x0.0p+0",
                "0aef9e55823631c239c749c09f5e83ba939b215c3ed0d6b03323ba4ef5450d3f"),
    "lan-gfs-ssh": ("0x1.ebf6972ae74dap-3", "0x0.0p+0",
                    "0c31dd6b157c178546a491af86610a9f6592079b033bdd219ce06214a6b2903b"),
    "lan-nfs-v3": ("0x1.3b3084cf7f7c0p-6", "0x0.0p+0",
                   "3915a99834b603287de9fd7f37d34fcd3c393e0d6dddb8cc4abc3d2f9d6f6812"),
    "lan-nfs-v4": ("0x1.767a1650648d6p-6", "0x0.0p+0",
                   "1685c415703ed75394682f0f09bbb5f754c1b991c65520cb0731b507e736047c"),
    "lan-sfs": ("0x1.d0d9137b33b14p-5", "0x0.0p+0",
                "487ce6552fbc15ff16410ab1a6c2cc9d7e7a48fbd6487a74c32cfcd44c4828aa"),
    "lan-sgfs": ("0x1.ef9223b1f5828p-5", "0x0.0p+0",
                 "c6685e1d85b9b558ee1efcaa27c289f0bf49c086fc9c2571c578cbaaedb6586d"),
    "lan-sgfs-aes": ("0x1.ef9223b1f5828p-5", "0x0.0p+0",
                     "c6685e1d85b9b558ee1efcaa27c289f0bf49c086fc9c2571c578cbaaedb6586d"),
    "lan-sgfs-rc": ("0x1.85f7038585342p-5", "0x0.0p+0",
                    "e222f0866ba5c5b72034f9abb51fba1db7ce26dafbd23e6aea0ba8af48f82a7b"),
    "lan-sgfs-sha": ("0x1.73028e2835f84p-5", "0x0.0p+0",
                     "1e881eccd1428bc9c6faa1c2577a1ec2e3acfd30078190904e6da245e1df3a46"),
    "wan-gfs": ("0x1.a45d91c39bd36p+0", "0x0.0p+0",
                "dfa2689e5c93ba913b15783120adf6e1c474c0ef11d321eecd5210ee0b85363d"),
    "wan-gfs-ssh": ("0x1.000717872956ep+1", "0x0.0p+0",
                    "c0399dba1bb53890d305bf762af242b1b5f90ce3ba43cf1187b4303254296b7c"),
    "wan-nfs-v3": ("0x1.f417d00c6496ap-1", "0x0.0p+0",
                   "1ebdcbe52035198f250ea8d65659e58735df7e04965455c19729ad0141f5cef9"),
    "wan-nfs-v4": ("0x1.f5fde87e88beep-1", "0x0.0p+0",
                   "385dd5c790cd8fca09661d5e1698d7b34f7951079cf59d2d22ff5aa598422e09"),
    "wan-sfs": ("0x1.044957f80294ap+0", "0x0.0p+0",
                "917d79b6f2ac0eb8dc76f304e0e0f9ba7fb8964b65c32e516d2e08239375a7c3"),
    "wan-sgfs": ("0x1.a9162ab729484p+0", "0x0.0p+0",
                 "d28459f6ed50975f87fe91c84489aa78a47bef14475793ef5e939384593f021e"),
    "wan-sgfs-aes": ("0x1.a9162ab729484p+0", "0x0.0p+0",
                     "d28459f6ed50975f87fe91c84489aa78a47bef14475793ef5e939384593f021e"),
    "wan-sgfs-rc": ("0x1.a5c951b5c5c52p+0", "0x0.0p+0",
                    "f2b115f23f5dff5da95141c9d050d98b1188353b74376f949eedbd178a9e4aac"),
    "wan-sgfs-sha": ("0x1.a531ae0adb48cp+0", "0x0.0p+0",
                     "e8eee9e67318a7399ea34d7ef95f4eee7242c28bf4579d07e19237aec0f37582"),
}


#: ``streams=1`` cached WAN runs through a proxy cache smaller than the
#: working set — label -> (total.hex(), writeback_seconds.hex(),
#: writeback_blocks, writeback_bytes, forwarded).  Captured with
#: ``tests/_capture_goldens.py`` at the last commit that still had a
#: separate stop-and-wait code path beside the windowed one; they pin
#: that running the one remaining path at window 1 *is* that proxy:
#: same dirty evictions mid-run, same refetches, same teardown flush.
S1_CACHE_GOLDEN = {
    "postmark-evict": ("0x1.4aa58866a95dep+5", "0x0.0p+0",
                       89, 795074, 402),
    "iozone-wr-evict-teardown": ("0x1.ed54644669096p-1",
                                 "0x1.67d64c2a6d900p-1", 16, 524288, 3),
    "iozone-wr-evict-refetch": ("0x1.18763656b1ea9p+2", "0x0.0p+0",
                                16, 524288, 35),
}


def _faults(packets, dropped, delayed=0):
    return {"packets": packets, "dropped": dropped, "retransmits": dropped,
            "delayed": delayed, "corrupted": 0, "duplicated": 0,
            "flap_drops": 0, "crashes": 0}


#: Runs under a seeded fault plan — label -> (total or makespan hex, the
#: whole ``stats["faults"]`` dict, grid read failovers + degraded
#: writes).  The determinism gates only compare a fault seed with
#: itself; these pin the *values*, so a change to how faults are armed
#: (before or after the mount, which timers get teeth, which packets the
#: plan sees) cannot pass by being wrong twice.  A pinned value is also
#: a repeatable one, and ``dropped > 0`` is pinned with it.  Captured
#: with ``tests/_capture_goldens.py`` at the last commit where
#: the paper's seat and a fleet each wired faults by hand, except
#: the 4-stream total: it was re-captured (2.041 -> 1.693 virtual
#: seconds, the same faults) when the engine began keeping two
#: read-ahead windows in flight, and again (1.592 -> 1.590) when the
#: cache disk began reading cached blocks in runs of a read window, and
#: the grid row: re-captured (5.975 ->
#: 8.414 virtual seconds, 474 -> 526 packets, 15 -> 21 drops) when grid
#: mounts began dialing their legs at once, which moves every later
#: packet against this seed's loss schedule.
FAULT_GOLDEN = {
    "single-lossy-wan": ("0x1.9d6f11484e616p+3", _faults(184, 6), 0),
    "single-chaos-wan-4-streams": ("0x1.96edc47074548p+0",
                                   _faults(27, 1, delayed=2), 0),
    "fleet-lossy-wan": ("0x1.7aac811cb304dp+0", _faults(97, 3), 0),
    "grid-fleet-lossy-wan": ("0x1.0d3ed6c406c49p+3", _faults(526, 21), 0),
}


def test_golden_table_covers_every_setup():
    expected = {f"{env}-{s}" for s in SETUP_BUILDERS for env in ("lan", "wan")}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_iozone_golden_runtime(label):
    env, _, setup = label.partition("-")
    rtt = WAN_RTT if env == "wan" else 0.0
    r = run(Scenario(setup, rtt=rtt, cache_bytes=CACHE_BYTES),
            lambda: IOzoneReadReread(file_size=FILE_SIZE), telemetry=True)
    total_hex, writeback_hex, snap = GOLDEN[label]
    assert r.total == float.fromhex(total_hex), (
        f"{label}: virtual runtime drifted: {r.total.hex()} != {total_hex}")
    assert r.writeback_seconds == float.fromhex(writeback_hex)
    assert snapshot_sha256(r) == snap, (
        f"{label}: telemetry snapshot (sans 'sim') changed")


@pytest.mark.parametrize("label", sorted(S1_CACHE_GOLDEN))
def test_streams_one_cached_wan_golden(label):
    assert s1_cache_row(run_s1_cache_case(label)) == S1_CACHE_GOLDEN[label]


@pytest.mark.parametrize("label", sorted(FAULT_GOLDEN))
def test_fault_run_golden(label):
    assert fault_row(run_fault_case(label)) == FAULT_GOLDEN[label]


def test_pinned_kernel_counters():
    """What it costs the kernel to run one pinned scenario (sgfs-aes,
    LAN, 2 MiB IOzone over a 1 MiB client cache), exactly.  A change that
    moves these changed how much the simulator does per run: a kernel
    optimisation re-captures this one line on purpose and shows the
    virtual numbers above unmoved; anything else has a regression."""
    r = run(Scenario("sgfs-aes", cache_bytes=1024 * 1024),
            lambda: IOzoneReadReread(file_size=2 * 1024 * 1024), telemetry=True)
    assert r.stats["sim"] == {"events_dispatched": 7133, "heap_pushes": 4112,
                              "process_wakeups": 4858}
    assert r.total == float.fromhex("0x1.d3b6bc28e0767p-2")


def test_golden_trace_export_identical():
    """The Chrome-trace export is part of the determinism contract: the
    span stream must not move when dispatch internals change."""
    r = run(Scenario("sgfs", cache_bytes=256 * 1024, disk_cache=True),
            lambda: IOzoneReadReread(file_size=512 * 1024), telemetry=True,
            tracing=True)
    assert r.total == float.fromhex("0x1.b697846f8c496p-4")
    trace_sha = hashlib.sha256(r.trace_json().encode()).hexdigest()
    assert trace_sha == ("d41ba04e87699b170e34f7c20e2cc913a"
                         "1062db9e1ce043ebeb6446ba071e8bf")


def test_golden_postmark_wan_cache():
    cfg = PostMarkConfig(directories=5, files=25, transactions=50)
    r = run(Scenario("sgfs", rtt=0.040, disk_cache=True), lambda: PostMark(cfg))
    assert r.total == float.fromhex("0x1.0badf8e1baf9fp+3")
    assert r.writeback_seconds == float.fromhex("0x0.0p+0")


def test_golden_mab_gfs_ssh():
    r = run(Scenario("gfs-ssh", rtt=0.020), ModifiedAndrewBenchmark)
    assert r.total == float.fromhex("0x1.520ee11d04967p+8")
    assert r.writeback_seconds == float.fromhex("0x0.0p+0")


def test_golden_runs_do_not_depend_on_the_hash_seed():
    """``str`` and ``bytes`` hashes are salted per interpreter, so a set
    or a dict keyed by names whose iteration order leaked into a run
    would make it differ between processes — which no single-process
    suite can see.  Two golden runs (a WAN session with telemetry, a
    grid fleet under a fault plan) in two interpreters with different
    salts print the pinned values."""
    code = (
        "import tests.test_golden_runtimes as g\n"
        "r = g.run(g.Scenario('sgfs-aes', rtt=g.WAN_RTT, cache_bytes=g.CACHE_BYTES),\n"
        "          lambda: g.IOzoneReadReread(file_size=g.FILE_SIZE), telemetry=True)\n"
        "print(r.total.hex(), g.snapshot_sha256(r))\n"
        "print(g.json.dumps(g.fault_row(g.run_fault_case('grid-fleet-lossy-wan')),\n"
        "                   sort_keys=True))\n"
    )
    root = Path(__file__).resolve().parent.parent
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code], cwd=root, check=True, text=True,
            capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    ]
    total_hex, _writeback, snap = GOLDEN["wan-sgfs-aes"]
    fault = json.dumps(FAULT_GOLDEN["grid-fleet-lossy-wan"], sort_keys=True)
    expected = f"{total_hex} {snap}\n{fault}\n"
    assert outputs == [expected, expected]
