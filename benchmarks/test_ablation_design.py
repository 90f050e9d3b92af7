"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the mechanisms behind them:

1. blocking vs asynchronous RPC forwarding in the proxies (the paper's
   §6.2.1 explanation for trailing SFS by ~15 %; a multithreaded SGFS
   was "under development"),
2. disk caching on/off over the WAN (the entire Fig. 8–10 story),
3. write-back vs write-through caching (the Seismic §6.3.2 story),
4. the server-side ACL memory cache (§4.3 "for the reason of
   performance, the ACLs are cached in memory"),
5. periodic SSL renegotiation (§4.2): rekeying a session must cost
   little.
"""

from repro.core import Testbed, setup_sgfs
from repro.core.setups import USER_DN
from repro.harness import Scenario, run
from repro.harness.tables import IOZONE_CACHE, IOZONE_FILE
from repro.proxy.acl import AclEntry
from repro.workloads.iozone import IOzoneReadReread
from repro.workloads.postmark import PostMark
from repro.workloads.seismic import Seismic


def _iozone_async_total() -> float:
    """The ``sgfs-rc`` IOzone LAN run with both proxies serving
    calls concurrently instead of one at a time."""
    tb = Testbed.build()
    wl = IOzoneReadReread(file_size=IOZONE_FILE)
    wl.prepare(tb)
    mount = setup_sgfs(tb, suite="rc4-128-sha1", cache_bytes=IOZONE_CACHE)
    mount.client_proxy.blocking = mount.server_proxy.blocking = False
    t0 = tb.sim.now
    tb.run(wl.run(mount))
    return tb.sim.now - t0


def run_all_ablations():
    out = {}

    # 1. blocking vs async proxies (IOzone LAN)
    iozone = lambda: IOzoneReadReread(file_size=IOZONE_FILE)
    out["blocking"] = run(Scenario("sgfs-rc", cache_bytes=IOZONE_CACHE), iozone).total
    out["async"] = _iozone_async_total()
    out["sfs"] = run(Scenario("sfs", cache_bytes=IOZONE_CACHE), iozone).total

    # 2. disk cache on/off at 40ms (PostMark)
    out["wan_cache_on"] = run(Scenario("sgfs", rtt=0.040, disk_cache=True), PostMark).total
    out["wan_cache_off"] = run(Scenario("sgfs", rtt=0.040), PostMark).total

    # 3. write-back vs write-through at 40ms (Seismic: absorbed temporaries)
    out["wb_writeback"] = run(Scenario("sgfs", rtt=0.040, disk_cache=True), Seismic).total
    out["wb_writethrough"] = run(
        Scenario("sgfs", rtt=0.040, disk_cache=True, write_back=False), Seismic).total

    return out


def test_ablation_design_choices(benchmark):
    out = benchmark.pedantic(run_all_ablations, rounds=1, iterations=1)
    print("\n=== Ablations ===")
    for key, value in out.items():
        print(f"{key:18s} {value:9.2f}s")
    benchmark.extra_info["ablations_s"] = {k: round(v, 2) for k, v in out.items()}

    # 1. async forwarding recovers (most of) the gap to SFS
    assert out["async"] < out["blocking"]
    assert out["async"] <= out["sfs"] * 1.10
    # 2. the WAN win comes from the disk cache
    assert out["wan_cache_on"] < 0.75 * out["wan_cache_off"]
    # 3. write-back absorbs the temporaries write-through must ship
    assert out["wb_writeback"] < 0.80 * out["wb_writethrough"]


def test_ablation_acl_cache(benchmark):
    """Server-side ACL memory cache: ACCESS-heavy load with ACLs in force."""

    def run(acl_cache_enabled: bool) -> float:
        tb = Testbed.build()
        mount = setup_sgfs(tb, acl_cache_enabled=acl_cache_enabled)

        def job():
            cl = mount.client
            yield from cl.mkdir("/data")
            for i in range(30):
                yield from cl.write_file(f"/data/f{i}", b"x" * 512)
            # protect the directory: everything inherits this ACL
            mount.server_proxy.acls.set_acl(
                tb.fs.root.fileid, "data",
                [AclEntry(str(USER_DN), 0x3F)],
            )
            t0 = tb.sim.now
            # ACCESS storm: defeat the kernel client's own access cache
            # by spacing queries beyond its timeout
            for round_no in range(8):
                for i in range(30):
                    yield from cl.access(f"/data/f{i}", 0x1)
                yield tb.sim.timeout(31.0)
            return tb.sim.now - t0 - 8 * 31.0

        return tb.run(job())

    def run_both():
        return {"cached": run(True), "uncached": run(False)}

    out = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\nACL cache on: {out['cached']:.3f}s  off: {out['uncached']:.3f}s")
    benchmark.extra_info.update({k: round(v, 3) for k, v in out.items()})
    assert out["cached"] < out["uncached"]


def test_ablation_renegotiation(benchmark):
    """Frequent rekeying must not measurably hurt an established session."""

    def run(interval):
        tb = Testbed.build()
        mount = setup_sgfs(tb, renegotiate_interval=interval)
        wl = IOzoneReadReread(file_size=IOZONE_FILE)
        wl.prepare(tb)
        tb.run(wl.run(mount))
        channel = mount.client_proxy._upstream
        return wl.results["total"], getattr(channel, "renegotiations", 0)

    def run_both():
        base, _ = run(None)
        rekey, renegs = run(0.05)  # rekey every 50 virtual ms — extreme
        return {"base": base, "rekey": rekey, "renegotiations": renegs}

    out = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\nno-reneg: {out['base']:.3f}s  with {out['renegotiations']} renegotiations: "
          f"{out['rekey']:.3f}s")
    benchmark.extra_info.update(out)
    assert out["renegotiations"] >= 3, "renegotiation timer did not fire"
    assert out["rekey"] < out["base"] * 1.10, "rekeying should be cheap"
