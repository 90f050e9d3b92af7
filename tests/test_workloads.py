"""Workload generators: correctness of the I/O they drive."""

import pytest

from repro.core import Testbed, setup_nfs_v3
from repro.harness import run_iozone, run_postmark, format_table
from repro.vfs.fs import Credentials
from repro.workloads import (
    IOzoneReadReread,
    ModifiedAndrewBenchmark,
    PostMark,
    PostMarkConfig,
    Seismic,
    SeismicConfig,
    SourceTree,
)

ROOT = Credentials(0, 0)


def test_iozone_reads_exact_file_twice():
    tb = Testbed.build()
    wl = IOzoneReadReread(file_size=1 << 20)
    wl.prepare(tb)
    mount = setup_nfs_v3(tb)
    reads_before = tb.nfs_program.ops
    tb.run(wl.run(mount))
    assert wl.results["read"] > 0 and wl.results["reread"] > 0
    assert wl.results["total"] >= wl.results["read"] + wl.results["reread"]
    # with a default-sized cache the reread is served from client memory
    assert wl.results["reread"] < wl.results["read"]


def test_iozone_cache_too_small_defeats_reread():
    tb = Testbed.build()
    wl = IOzoneReadReread(file_size=1 << 20)
    wl.prepare(tb)
    mount = setup_nfs_v3(tb, cache_bytes=1 << 19)  # half the file
    tb.run(wl.run(mount))
    # LRU gives no reuse: reread costs about as much as the first read
    assert wl.results["reread"] > 0.7 * wl.results["read"]


def test_iozone_detects_bad_setup():
    tb = Testbed.build()
    wl = IOzoneReadReread(file_size=1 << 20)
    # no prepare(): file missing
    mount = setup_nfs_v3(tb)
    with pytest.raises(Exception):
        tb.run(wl.run(mount))


def test_postmark_phases_and_cleanup():
    tb = Testbed.build()
    mount = setup_nfs_v3(tb)
    wl = PostMark(PostMarkConfig(directories=5, files=20, transactions=40))
    tb.run(wl.run(mount))
    for phase in ("creation", "transaction", "deletion", "total"):
        assert wl.results[phase] > 0
    # deletion phase removed everything
    assert not tb.fs.root.entries


def test_postmark_deterministic_given_seed():
    def one():
        tb = Testbed.build()
        mount = setup_nfs_v3(tb)
        wl = PostMark(PostMarkConfig(directories=5, files=20, transactions=40, seed="fix"))
        tb.run(wl.run(mount))
        return wl.results

    assert one() == one()


def test_postmark_different_seed_changes_outcome():
    def one(seed):
        tb = Testbed.build()
        mount = setup_nfs_v3(tb)
        wl = PostMark(PostMarkConfig(directories=5, files=20, transactions=40, seed=seed))
        tb.run(wl.run(mount))
        return wl.results["total"]

    assert one("a") != one("b")


def test_source_tree_matches_paper_shape():
    tree = SourceTree.openssh_like()
    assert len(tree.directories) == 13
    assert len(tree.files) == 449
    assert sum(1 for _p, _s, src in tree.files if src) == 194
    assert tree.total_bytes > 1 << 20  # a real source tree, not stubs


def test_mab_phases_and_artifacts():
    tb = Testbed.build()
    wl = ModifiedAndrewBenchmark()
    # shrink the compile so the test is quick
    wl.config.compile_cpu_per_unit = 0.001
    wl.config.include_probes_per_unit = 2
    wl.config.headers_per_unit = 1
    wl.prepare(tb)
    mount = setup_nfs_v3(tb)
    tb.run(wl.run(mount))
    for phase in ("copy", "stat", "search", "compile"):
        assert wl.results[phase] > 0, phase
    # the working copy and build tree exist server-side
    assert tb.fs.resolve("/work/openssh-4.6p1", ROOT).is_dir
    build = tb.fs.resolve("/work/build", ROOT)
    objects = [n for n in build.entries if n.endswith(".o")]
    assert len(objects) == 194
    assert any(n.startswith("bin") for n in build.entries)


def test_seismic_phases_and_preserved_outputs():
    tb = Testbed.build()
    cfg = SeismicConfig(
        initial_file=1 << 20, stacked_file=1 << 18, time_mig_file=1 << 18,
        depth_mig_file=1 << 18, cpu_generate=0.1, cpu_stack=0.1,
        cpu_time_mig=0.05, cpu_depth_mig=0.2, stack_passes=2,
    )
    wl = Seismic(cfg)
    mount = setup_nfs_v3(tb)
    tb.run(wl.run(mount))
    for phase in ("phase1", "phase2", "phase3", "phase4"):
        assert wl.results[phase] > 0
    root = tb.fs.resolve("/seismic", ROOT)
    # intermediates removed; the last two results preserved (§6.3.2)
    assert set(root.entries) == {"time-mig.data", "depth-mig.data"}


def test_harness_run_collects_cpu_and_stats():
    r = run_iozone("sgfs-aes", rtt=0.0, file_size=1 << 20,
                   setup_kwargs={"cache_bytes": 1 << 19})
    assert r.total > 0
    assert r.cpu_mean("client", "proxy") > 0
    assert "nfs.cache" in r.stats and "proxy.client" in r.stats
    assert r.stats["proxy.server"]["granted"] > 0


def test_harness_unknown_setup_rejected():
    with pytest.raises(ValueError, match="unknown setup 'no-such-setup'"):
        run_iozone("no-such-setup")


def test_harness_formatting_helpers():
    table = format_table(
        "T", [("nfs-v3", {"a": 1.0}), ("sgfs", {"a": 2.0, "b": 3.0})], ["a", "b"]
    )
    assert "nfs-v3" in table and "2.000s" in table and "-" in table


def test_postmark_wan_rtt_increases_runtime_monotonically():
    cfg = PostMarkConfig(directories=3, files=10, transactions=20)
    totals = [
        run_postmark("nfs-v3", rtt=rtt, config=cfg).total
        for rtt in (0.0, 0.010, 0.040)
    ]
    assert totals[0] < totals[1] < totals[2]
