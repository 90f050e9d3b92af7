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
    code, text = run_cli("profile", "--setup", "sgfs", "--workload", "iozone-wr",
                         "--clients", "2")
    assert code == 0
    assert "makespan" in text and "cpu c1" in text


def test_fleet_factories_take_no_arguments(monkeypatch):
    """A fleet passes the client index to a factory that takes a
    parameter — ``--workload mab --clients 2`` once handed it the bare
    class, which took the index for its source tree."""
    import inspect

    from repro.cli import WORKLOADS

    seen = []

    def recording_run(scenario, factory, **kw):
        assert scenario.clients == 2
        seen.append(factory)
        raise ValueError("recorded")

    monkeypatch.setattr("repro.cli.run", recording_run)
    for name, cls in WORKLOADS.items():
        code, text = run_cli("run", "--workload", name, "--setup", "gfs",
                             "--clients", "2")
        assert (code, text) == (2, "error: recorded\n")
        assert not inspect.signature(seen[-1]).parameters
        assert isinstance(seen[-1](), cls)


@pytest.mark.parametrize("flag", [
    ("--stagger-ms", "5"), ("--server-cores", "2"), ("--reconnect-ms", "5"),
    ("--delegation-ms", "5"), ("--servers", "2"), ("--replicas", "2"),
])
def test_fleet_only_flags_are_refused_for_one_client(flag):
    code, text = run_cli("run", "--workload", "iozone", "--setup", "sgfs", *flag)
    assert code == 2
    assert text == f"error: {flag[0]} requires a fleet run (--clients >= 2)\n"


def test_session_tickets_run_at_one_client():
    """The paper's seat takes session tickets, as ``run(Scenario("sgfs",
    session_tickets=True), ...)`` does: the flag is not a fleet's."""
    import json

    code, text = run_cli("stats", *SMALL, "--setup", "sgfs", "--session-tickets",
                         "--json")
    assert code == 0
    assert json.loads(text)["proxy.server"]["sessions"] == 1


def test_profile_refuses_server_cores_for_one_client_like_run():
    code, text = run_cli("profile", "--setup", "sgfs", "--workload", "iozone",
                         "--server-cores", "2")
    assert code == 2
    assert text == "error: --server-cores requires a fleet run (--clients >= 2)\n"


def test_run_rejects_nonpositive_streams():
    for extra in ((), ("--clients", "2")):
        code, text = run_cli("run", "--workload", "iozone", "--setup", "sgfs",
                             "--streams", "-3", *extra)
        assert code == 2 and "streams must be >= 1" in text


# -- one scenario grammar, one validator ----------------------------------------

SMALL = ("--workload", "iozone", "--file-size", "131072")


@pytest.mark.parametrize("argv", [
    ("run", "--workload", "iozone", "--setup", "sfs", "--disk-cache"),
    ("stats", "--setup", "sfs", "--workload", "iozone", "--rtt-ms", "40",
     "--disk-cache"),
])
def test_disk_cache_on_sfs_is_refused_not_a_crash(argv):
    """Three hand-copied lists of cacheless setups all forgot sfs:
    ``setup_sfs() got an unexpected keyword argument 'disk_cache'``."""
    assert run_cli(*argv) == (
        2, "error: disk_cache applies only to proxied setups\n")


def test_sweep_takes_its_cache_decision_from_the_harness():
    code, text = run_cli("sweep", "--workload", "iozone", "--setup", "sfs",
                         "--rtts-ms", "1")
    assert code == 0
    assert "nfs-v3 vs sfs" in text and "1.0ms" in text


@pytest.mark.parametrize("extra, message", [
    (("--setup", "nfs-v3", "--disk-cache"),
     "disk_cache applies only to proxied setups"),
    (("--setup", "gfs-ssh", "--streams", "2"),
     "streams applies only to proxied gfs/sgfs setups"),
    (("--setup", "sgfs", "--streams", "0"), "streams must be >= 1"),
    (("--setup", "sgfs", "--clients", "0"), "fleet needs at least one client"),
    (("--setup", "gfs", "--clients", "2", "--session-tickets"),
     "session_tickets requires a secure (sgfs*) setup"),
    (("--setup", "nfs-v3", "--clients", "2", "--reconnect-ms", "10"),
     "reconnect_interval requires a proxied setup"),
    (("--setup", "sgfs", "--clients", "2", "--reconnect-ms", "-1"),
     "reconnect_interval must be positive"),
    (("--setup", "sgfs", "--clients", "2", "--stagger-ms", "-1"),
     "stagger must be >= 0"),
])
def test_every_running_command_prints_the_harness_refusal(extra, message, tmp_path):
    """One validator behind one grammar: the same one-line error and exit
    code from run, stats, trace and profile."""
    for command in (("run",), ("stats",), ("profile",),
                    ("trace", "--out", str(tmp_path / "t.json"))):
        assert run_cli(*command, *SMALL, *extra) == (2, f"error: {message}\n")


def test_stats_trace_profile_take_the_scenario_flags_of_run(tmp_path):
    scenario = (*SMALL, "--setup", "sgfs", "--rtt-ms", "40", "--disk-cache")
    code, text = run_cli("stats", *scenario)
    assert code == 0 and "[proxy.client]" in text
    code, text = run_cli("trace", *scenario, "--out", str(tmp_path / "t.json"))
    assert code == 0 and "disk" in text  # the cache disk's span category
    code, text = run_cli("profile", *scenario)
    assert code == 0 and "makespan" in text


def test_stats_runs_a_fleet():
    import json

    code, text = run_cli("stats", *SMALL, "--setup", "sgfs", "--clients", "2",
                         "--json")
    assert code == 0
    assert json.loads(text)["proxy.server"]["sessions"] == 2


@pytest.mark.parametrize("workload", [SMALL, ("--workload", "churn")])
def test_every_running_command_reports_a_fleet(workload, tmp_path):
    """The shared grammar offers --clients (and churn, which needs it) to
    all four commands, so each must read the fleet's result: a makespan
    and a tracer, not one session's total."""
    import json

    fleet = (*workload, "--setup", "sgfs", "--clients", "2")
    code, text = run_cli("run", *fleet)
    assert code == 0 and "2-client fleet" in text and "makespan" in text
    code, text = run_cli("stats", *fleet)
    assert code == 0 and "2-client makespan=" in text
    assert "[proxy.server]" in text
    trace = tmp_path / "t.json"
    code, text = run_cli("trace", *fleet, "--out", str(trace))
    assert code == 0 and "spans across" in text
    events = json.loads(trace.read_text())["traceEvents"]
    # client tracks are namespaced, so the export keeps the members apart
    tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert any(t.startswith("c0:") for t in tracks)
    assert any(t.startswith("c1:") for t in tracks)
    code, text = run_cli("profile", *fleet)
    assert code == 0 and "makespan" in text


def test_positional_preset_form_is_gone():
    for command in ("stats", "trace", "profile"):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "wan-sgfs-cache", "iozone")
        assert exc.value.code == 2


def test_stats_is_the_harness_run_it_spells():
    import json

    from repro.harness import Scenario, run
    from repro.workloads.iozone import IOzoneReadReread

    code, text = run_cli("stats", "--setup", "sgfs", "--workload", "iozone",
                         "--rtt-ms", "40", "--disk-cache", "--json")
    direct = run(Scenario("sgfs", rtt=0.040, disk_cache=True), IOzoneReadReread)
    assert code == 0
    assert text == json.dumps(direct.stats, sort_keys=True, indent=2) + "\n"
