"""The command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_command():
    code, text = run_cli("list")
    assert code == 0
    for expected in ("sgfs-aes", "rc4-128-sha1", "postmark", "fig8"):
        assert expected in text


def test_info_command():
    code, text = run_cli("info")
    assert code == 0
    assert "cpu_hz" in text and "proxy_cost" in text


def test_run_iozone_lan():
    code, text = run_cli(
        "run", "--workload", "iozone", "--setup", "nfs-v3"
    )
    assert code == 0
    assert "iozone on nfs-v3 (LAN)" in text
    assert "read" in text and "total" in text


def test_run_with_disk_cache_and_cpu():
    code, text = run_cli(
        "run", "--workload", "iozone", "--setup", "sgfs-aes",
        "--rtt-ms", "10", "--disk-cache", "--cpu",
    )
    assert code == 0
    assert "(10ms RTT)" in text
    assert "cpu[client:proxy]" in text


def test_run_rejects_disk_cache_on_native_nfs():
    code, text = run_cli(
        "run", "--workload", "iozone", "--setup", "nfs-v3", "--disk-cache"
    )
    assert code == 2
    assert "proxied setups" in text


def test_run_rejects_unknown_setup():
    with pytest.raises(SystemExit):
        run_cli("run", "--workload", "iozone", "--setup", "zfs")


def test_sweep_command():
    code, text = run_cli(
        "sweep", "--workload", "iozone", "--baseline", "nfs-v3",
        "--setup", "sgfs", "--rtts-ms", "1,5",
    )
    assert code == 0
    assert "1.0ms" in text and "5.0ms" in text and "x" in text


def test_sweep_bad_rtt_list():
    code, text = run_cli("sweep", "--rtts-ms", "five,ten")
    assert code == 2
    assert "bad RTT" in text


def test_figure_fig4_smoke():
    code, text = run_cli("figure", "fig4")
    assert code == 0
    assert "Figure 4" in text
    for setup in ("nfs-v3", "gfs-ssh"):
        assert setup in text


def test_requires_a_command():
    with pytest.raises(SystemExit):
        run_cli()


def test_run_fleet_with_stats_json(tmp_path):
    import json

    stats_file = tmp_path / "fleet.json"
    code, text = run_cli(
        "run", "--workload", "iozone", "--setup", "nfs-v3",
        "--clients", "3", "--stagger-ms", "1",
        "--stats-json", str(stats_file),
    )
    assert code == 0
    assert "3-client fleet" in text
    assert "makespan" in text and "c2" in text
    stats = json.loads(stats_file.read_text())
    assert "rpc.server" in stats and "nfs.cache" in stats


def test_run_fleet_rejects_single_session_setup():
    code, text = run_cli(
        "run", "--workload", "iozone", "--setup", "sfs", "--clients", "2",
    )
    assert code == 2
    assert "single-session" in text


# -- one workload table, one run path ------------------------------------------


def test_profile_fleet_offers_every_workload_the_parser_does():
    """``profile ... --clients 2`` used a private factory table that
    lacked iozone-wr (KeyError) while argparse offered it."""
    code, text = run_cli("profile", "sgfs", "iozone-wr", "--clients", "2")
    assert code == 0
    assert "makespan" in text and "cpu c1" in text


def test_fleet_factories_take_no_arguments(monkeypatch):
    """run_fleet passes the client index to a factory that takes a
    parameter — ``--workload mab --clients 2`` once handed it the bare
    class, which took the index for its source tree."""
    import inspect

    from repro.cli import WORKLOADS

    seen = []

    def recording_run_fleet(setup, factory, **kw):
        seen.append(factory)
        raise ValueError("recorded")

    monkeypatch.setattr("repro.cli.run_fleet", recording_run_fleet)
    for name, cls in WORKLOADS.items():
        code, text = run_cli("run", "--workload", name, "--setup", "gfs",
                             "--clients", "2")
        assert (code, text) == (2, "error: recorded\n")
        assert not inspect.signature(seen[-1]).parameters
        assert isinstance(seen[-1](), cls)


@pytest.mark.parametrize("flag", [
    ("--stagger-ms", "5"), ("--server-cores", "2"), ("--session-tickets",),
    ("--reconnect-ms", "5"), ("--delegation-ms", "5"), ("--servers", "2"),
    ("--replicas", "2"),
])
def test_fleet_only_flags_are_refused_for_one_client(flag):
    code, text = run_cli("run", "--workload", "iozone", "--setup", "sgfs", *flag)
    assert code == 2
    assert text == f"error: {flag[0]} requires a fleet run (--clients >= 2)\n"


def test_profile_refuses_server_cores_for_one_client_like_run():
    code, text = run_cli("profile", "sgfs", "iozone", "--server-cores", "2")
    assert code == 2
    assert text == "error: --server-cores requires a fleet run (--clients >= 2)\n"


def test_run_rejects_nonpositive_streams():
    for extra in ((), ("--clients", "2")):
        code, text = run_cli("run", "--workload", "iozone", "--setup", "sgfs",
                             "--streams", "-3", *extra)
        assert code == 2 and "streams must be >= 1" in text
