"""Golden virtual-runtime regression tests for every setup builder.

The event-kernel fast path (zero-delay lane, callback-chained packet
delivery) reorganises *how* events are dispatched but must not change
*what* happens: virtual-time results and telemetry snapshots are
required to be byte-identical to the single-heap kernel.  These goldens
were captured from the pre-fast-path tree with
``tests/_capture_goldens.py`` and pin:

- ``total`` / ``writeback`` virtual seconds as exact float bit patterns
  (``float.hex()`` — no tolerance),
- a sha256 over the full :class:`repro.obs.Registry` snapshot,
  **excluding** the ``sim`` component: the kernel's own dispatch
  counters (``events_dispatched``, ``heap_pushes``, ``process_wakeups``)
  are the quantity the fast path exists to reduce, and are pinned
  exactly, for one scenario, by ``test_pinned_kernel_counters`` below.

If one of these fails after a scheduler change, the change altered
event *ordering*, not just dispatch cost — that is a correctness bug.

Snapshot hashes were last re-captured when every run began building the
fleet's server: the nfsd worker pool's ``rpc.server``
``queue_depth`` / ``queue_wait`` / ``sessions_queued`` and the NFS
program's ``nfs.server`` ``lock_waits`` now appear in single-client
snapshots, and the legacy ``nfs_client`` / ``client_proxy`` /
``server_proxy`` aliases left ``ExperimentResult.stats`` (before that:
the server proxy's ``authz_cache_*`` keys, the client proxy's
``writeback_errors``, the ``sync`` component).  The two ``sfs`` hashes
moved once more when the SFS server daemon stopped carrying its own
session loop: its sessions are counted (``proxy.server`` ``sessions``,
absent -> 1) like every other server proxy's.  The ``total`` /
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
from repro.harness import run_iozone, run_mab, run_postmark
from repro.workloads.postmark import PostMarkConfig
from tests._capture_goldens import (
    fault_row, run_fault_case, run_s1_cache_case, s1_cache_row,
)

FILE_SIZE = 256 * 1024
CACHE_BYTES = 128 * 1024
WAN_RTT = 0.080

#: label -> (total.hex(), writeback.hex(), snapshot sha256 sans "sim").
GOLDEN = {
    "lan-gfs": ("0x1.587f0540471d1p-5", "0x0.0p+0",
                "5e21036323bde4e1c541220ee883883518390ef1bdce0dad285021388dc35dd6"),
    "lan-gfs-ssh": ("0x1.ebf6972ae74dap-3", "0x0.0p+0",
                    "8e0fc7f10a880b002294bda9745190cc6ef38195b224bc0372eaed56bcb4cc0b"),
    "lan-nfs-v3": ("0x1.3b3084cf7f7c0p-6", "0x0.0p+0",
                   "8c367006c30b1420dda2204d32b4d79bb2fbea1b064ee0d4bb5e534b9c6493db"),
    "lan-nfs-v4": ("0x1.767a1650648d6p-6", "0x0.0p+0",
                   "234a3047ec8986b89e9f4a201c5157fba03e66aab2ca3d824e5b3a1b0adce097"),
    "lan-sfs": ("0x1.d0d9137b33b14p-5", "0x0.0p+0",
                "f85c03ce61b88f8e40ff06603070155081d42b0aa0c65dfcb30baab0da1a755a"),
    "lan-sgfs": ("0x1.ef9223b1f5828p-5", "0x0.0p+0",
                 "246162d77da2bbe65e97a90923b6c001d3ea3714ce6cd05aed78c2398f41d1f6"),
    "lan-sgfs-aes": ("0x1.ef9223b1f5828p-5", "0x0.0p+0",
                     "246162d77da2bbe65e97a90923b6c001d3ea3714ce6cd05aed78c2398f41d1f6"),
    "lan-sgfs-rc": ("0x1.85f7038585342p-5", "0x0.0p+0",
                    "3ce4d78a137ed4f47a87e92786db5bbb5884ffc3bea287efdd692dae88766ab6"),
    "lan-sgfs-sha": ("0x1.73028e2835f84p-5", "0x0.0p+0",
                     "9fc9a3336c708d6f0e93ad467f25eb6e3fbe8d36aaa088f6752965c9094656d4"),
    "wan-gfs": ("0x1.a45d91c39bd36p+0", "0x0.0p+0",
                "0bd0dfe4f3e26f16242a255af3d4aac5e1a77d5b0ff6dd3d4f0cdd49a48222ae"),
    "wan-gfs-ssh": ("0x1.000717872956ep+1", "0x0.0p+0",
                    "12da5adb3797d9f45173f80f4b0fb21be12743c6483a05c92d158090244ed9b3"),
    "wan-nfs-v3": ("0x1.f417d00c6496ap-1", "0x0.0p+0",
                   "d440dbe9035729a83e171c2eb726e5f4aec00576540e4481969cfd3cabc76eaf"),
    "wan-nfs-v4": ("0x1.f5fde87e88beep-1", "0x0.0p+0",
                   "a6cbbeef78a808ec8719e81acd397f5b0e80ce3cf5af58891d353ee870d204da"),
    "wan-sfs": ("0x1.044957f80294ap+0", "0x0.0p+0",
                "eedcd240ff790bbf153bafe938197fb89496d7dff801726b2e97b92668005c0e"),
    "wan-sgfs": ("0x1.a9162ab729484p+0", "0x0.0p+0",
                 "8cbafc50d0b9b27f7250c20b96fb05c25321c24509c53ab23d74eba6626e641d"),
    "wan-sgfs-aes": ("0x1.a9162ab729484p+0", "0x0.0p+0",
                     "8cbafc50d0b9b27f7250c20b96fb05c25321c24509c53ab23d74eba6626e641d"),
    "wan-sgfs-rc": ("0x1.a5c951b5c5c52p+0", "0x0.0p+0",
                    "d9b87cfb1f8659112ba87808275b5d7886272b76132af0773073eebb5ed96f27"),
    "wan-sgfs-sha": ("0x1.a531ae0adb48cp+0", "0x0.0p+0",
                     "806f8c22325236c08dc95432a1d0ca8f340364d0b99d2285d4f6a73534db5095"),
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
#: ``run_workload`` and ``run_fleet`` each wired faults by hand.
FAULT_GOLDEN = {
    "single-lossy-wan": ("0x1.9d6f11484e616p+3", _faults(184, 6), 0),
    "single-chaos-wan-4-streams": ("0x1.053075f6f4865p+1",
                                   _faults(27, 1, delayed=2), 0),
    "fleet-lossy-wan": ("0x1.7aac811cb304dp+0", _faults(97, 3), 0),
    "grid-fleet-lossy-wan": ("0x1.7e62b436902eep+2", _faults(474, 15), 0),
}


def _snapshot_sha256(result) -> str:
    stats = {k: v for k, v in result.stats.items() if k != "sim"}
    return hashlib.sha256(
        json.dumps(stats, sort_keys=True, default=repr).encode()
    ).hexdigest()


def test_golden_table_covers_every_setup():
    expected = {f"{env}-{s}" for s in SETUP_BUILDERS for env in ("lan", "wan")}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_iozone_golden_runtime(label):
    env, _, setup = label.partition("-")
    rtt = WAN_RTT if env == "wan" else 0.0
    r = run_iozone(setup, rtt=rtt, file_size=FILE_SIZE,
                   setup_kwargs={"cache_bytes": CACHE_BYTES}, telemetry=True)
    total_hex, writeback_hex, snap = GOLDEN[label]
    assert r.total == float.fromhex(total_hex), (
        f"{label}: virtual runtime drifted: {r.total.hex()} != {total_hex}")
    assert r.writeback_seconds == float.fromhex(writeback_hex)
    assert _snapshot_sha256(r) == snap, (
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
    r = run_iozone("sgfs-aes", rtt=0.0, file_size=2 * 1024 * 1024,
                   setup_kwargs={"cache_bytes": 1024 * 1024}, telemetry=True)
    assert r.stats["sim"] == {"events_dispatched": 7133, "heap_pushes": 4112,
                              "process_wakeups": 4858}
    assert r.total == float.fromhex("0x1.d3b6bc28e0767p-2")


def test_golden_trace_export_identical():
    """The Chrome-trace export is part of the determinism contract: the
    span stream must not move when dispatch internals change."""
    r = run_iozone("sgfs", rtt=0.0, file_size=512 * 1024,
                   setup_kwargs={"cache_bytes": 256 * 1024, "disk_cache": True},
                   telemetry=True, tracing=True)
    assert r.total == float.fromhex("0x1.b697846f8c496p-4")
    trace_sha = hashlib.sha256(r.trace_json().encode()).hexdigest()
    assert trace_sha == ("d41ba04e87699b170e34f7c20e2cc913a"
                         "1062db9e1ce043ebeb6446ba071e8bf")


def test_golden_postmark_wan_cache():
    cfg = PostMarkConfig(directories=5, files=25, transactions=50)
    r = run_postmark("sgfs", rtt=0.040, config=cfg,
                     setup_kwargs={"disk_cache": True})
    assert r.total == float.fromhex("0x1.0badf8e1baf9fp+3")
    assert r.writeback_seconds == float.fromhex("0x0.0p+0")


def test_golden_mab_gfs_ssh():
    r = run_mab("gfs-ssh", rtt=0.020)
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
        "r = g.run_iozone('sgfs-aes', rtt=g.WAN_RTT, file_size=g.FILE_SIZE,\n"
        "                 setup_kwargs={'cache_bytes': g.CACHE_BYTES}, telemetry=True)\n"
        "print(r.total.hex(), g._snapshot_sha256(r))\n"
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
