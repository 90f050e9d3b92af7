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
  are the quantity the fast path exists to reduce, and are tracked by
  ``benchmarks/perf_wallclock.py`` instead.

If one of these fails after a scheduler change, the change altered
event *ordering*, not just dispatch cost — that is a correctness bug.

Snapshot hashes were last re-captured when the server proxy's versioned
authz cache added ``authz_cache_{hits,misses,stale}`` to the
``proxy.server`` collector (before that: when ``writeback_errors``
joined the client proxy's pre-seeded schema, and when the ``sync``
component joined the registry).  The ``total`` / ``writeback`` bit
patterns have never moved — the authz cache consumes no virtual time.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.setups import SETUP_BUILDERS
from repro.harness import run_iozone, run_mab, run_postmark
from repro.workloads.postmark import PostMarkConfig
from tests._capture_goldens import run_s1_cache_case, s1_cache_row

FILE_SIZE = 256 * 1024
CACHE_BYTES = 128 * 1024
WAN_RTT = 0.080

#: label -> (total.hex(), writeback.hex(), snapshot sha256 sans "sim").
GOLDEN = {
    "lan-gfs": ("0x1.587f0540471d1p-5", "0x0.0p+0",
                "26999b4f520d5cb51a76893d4aaa4a901bd1509d278e0758a7cd1363cd64a9a9"),
    "lan-gfs-ssh": ("0x1.ebf6972ae74dap-3", "0x0.0p+0",
                    "a610becfa66000a66a1b93ca9fbdc6eaf8846dcd60a7667b69ef12caf453e193"),
    "lan-nfs-v3": ("0x1.3b3084cf7f7c0p-6", "0x0.0p+0",
                   "b671a8b011e50414fbcc65ae0f5138f42d460851a224212acea74f9f0815cbdb"),
    "lan-nfs-v4": ("0x1.767a1650648d6p-6", "0x0.0p+0",
                   "c74200bf791f2ddb5d12e97fdbe10b412b9318df067a63a59087157794a44782"),
    "lan-sfs": ("0x1.d0d9137b33b14p-5", "0x0.0p+0",
                "71bcc5d0d48e402ff37151f9a909fca0b102c3098c7055ca8ec178f5a98862ec"),
    "lan-sgfs": ("0x1.ef9223b1f5828p-5", "0x0.0p+0",
                 "e012530435c15974f8b4a914b5ce52552f10e1a76c8bd13f2958ded9a81fead8"),
    "lan-sgfs-aes": ("0x1.ef9223b1f5828p-5", "0x0.0p+0",
                     "e012530435c15974f8b4a914b5ce52552f10e1a76c8bd13f2958ded9a81fead8"),
    "lan-sgfs-rc": ("0x1.85f7038585342p-5", "0x0.0p+0",
                    "203a16a575b56bb0cb6d592f2d4de6d3504b95a1ae88421d502eb441265abe98"),
    "lan-sgfs-sha": ("0x1.73028e2835f84p-5", "0x0.0p+0",
                     "6b6cb45e6eead15859d295faa1c1078c13bba85519c644d049db9f1f9e0b8b60"),
    "wan-gfs": ("0x1.a45d91c39bd36p+0", "0x0.0p+0",
                "695b3b18fbf0b473aea07b95a924fb7996fb5c3a8147d1718f4ba8f568ed9cfe"),
    "wan-gfs-ssh": ("0x1.000717872956ep+1", "0x0.0p+0",
                    "dbe3948e111144d7c27c529559b546a8f8c41f70b15f430d884c434b935d452c"),
    "wan-nfs-v3": ("0x1.f417d00c6496ap-1", "0x0.0p+0",
                   "977a1553d7f2fc9099f4956bffce13bd4a2bf1bf877980668b6873b44d1cc8ce"),
    "wan-nfs-v4": ("0x1.f5fde87e88beep-1", "0x0.0p+0",
                   "c317e19ca35373c40c99baed50aebc8a675cd54e5b15ddb4f453270ec79e3490"),
    "wan-sfs": ("0x1.044957f80294ap+0", "0x0.0p+0",
                "49c387cce4992b42a098c697ab7718387774af856221a2cb2353418f18861332"),
    "wan-sgfs": ("0x1.a9162ab729484p+0", "0x0.0p+0",
                 "ad223ad0d18c8259ed79a4ffb966372de3214331da519ef5a8b5333188a27287"),
    "wan-sgfs-aes": ("0x1.a9162ab729484p+0", "0x0.0p+0",
                     "ad223ad0d18c8259ed79a4ffb966372de3214331da519ef5a8b5333188a27287"),
    "wan-sgfs-rc": ("0x1.a5c951b5c5c52p+0", "0x0.0p+0",
                    "643f08c44315bc701812e258a54d8306b5a936812e1ea225d0e2cf61a65c06ce"),
    "wan-sgfs-sha": ("0x1.a531ae0adb48cp+0", "0x0.0p+0",
                     "39564c4c5121a21a51f63f9b4156153b0b301b8a700cc92bb02b947fed696ac2"),
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


def test_golden_trace_export_identical():
    """The Chrome-trace export is part of the determinism contract: the
    span stream must not move when dispatch internals change."""
    r = run_iozone("sgfs", rtt=0.0, file_size=512 * 1024,
                   setup_kwargs={"cache_bytes": 256 * 1024, "disk_cache": True},
                   telemetry=True, tracing=True)
    assert r.total == float.fromhex("0x1.b697846f8c496p-4")
    trace_sha = hashlib.sha256(r.trace_json().encode()).hexdigest()
    assert trace_sha == ("882113c25629abe180f702b15a52a2fd2"
                         "fa5e231d828defefc810edbb817142b")


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
