"""The one scenario validator (``repro.harness.runner.check_scenario``):
a setup x option point the stack has no part for is a ``ValueError`` with
the same message from ``run_fleet`` and ``run_workload`` — never a
``TypeError`` from a builder, never an option silently ignored."""

import re

import pytest

from repro.core.setups import PROXY_CACHE_SETUPS, SETUP_BUILDERS, SUITES
from repro.harness import run_fleet, run_workload
from repro.workloads.iozone import IOzoneReadReread


FS = 64 * 1024


def _iozone():
    return IOzoneReadReread(file_size=FS)


def _fleet(setup, **options):
    """``options`` in run_fleet's spelling, except that ``disk_cache`` and
    ``cache_capacity`` may be given flat (they travel in ``setup_kwargs``
    there)."""
    flat = {k: options.pop(k) for k in ("disk_cache", "cache_capacity")
            if k in options}
    if flat:
        options["setup_kwargs"] = flat
    return run_fleet(setup, _iozone, **{"clients": 2, **options})


def _single(setup, **options):
    return run_workload(setup, _iozone, setup_kwargs=options)


#: points only a fleet can spell (setup, run_fleet options, message)
FLEET_ONLY = [
    # -- refused by run_fleet before there was a validator; wording pinned
    ("nfs-v3", dict(clients=0), "fleet needs at least one client"),
    ("sfs", dict(clients=2), "sfs is a single-session design; fleets unsupported"),
    ("gfs-ssh", dict(clients=1),
     "gfs-ssh is a single-session design; fleets unsupported"),
    ("sgfs", dict(servers=0), "servers must be >= 1"),
    ("sgfs", dict(servers=2, replicas=3), "replicas must be in [1, servers]; got 3"),
    ("sgfs", dict(servers=2, replicas=0), "replicas must be in [1, servers]; got 0"),
    ("nfs-v3", dict(servers=2),
     "sharded data plane (servers > 1) requires a proxied setup"),
    ("gfs", dict(delegation_lifetime=1.0),
     "delegation_lifetime requires a secure (sgfs*) setup"),
    ("sgfs", dict(delegation_lifetime=0.0), "delegation_lifetime must be positive"),
    ("sgfs", dict(setup_kwargs={"at_rest": True}),
     "unsupported fleet setup_kwargs: ['at_rest']"),
    # a fleet spells streams at top level: the spelling error wins over
    # what nfs-v3 could do with them
    ("nfs-v3", dict(setup_kwargs={"streams": 2}),
     "unsupported fleet setup_kwargs: ['streams']"),
    # -- ignored or mis-reported before
    ("nfs-v3", dict(reconnect_interval=0.01),
     "reconnect_interval requires a proxied setup"),
    ("sgfs", dict(reconnect_interval=-1.0), "reconnect_interval must be positive"),
    ("gfs", dict(reconnect_interval=0.0), "reconnect_interval must be positive"),
    ("sgfs", dict(stagger=-0.5), "stagger must be >= 0"),
]
#: points both entry points can spell; all ran, crashed or were ignored before
BOTH = [
    ("zfs", dict(), "unknown setup 'zfs'"),
    ("lan-nfs", dict(), "unknown setup 'lan-nfs'"),  # the preset dialect
    ("sgfs", dict(streams=0), "streams must be >= 1"),
    ("nfs-v3", dict(streams=4), "streams applies only to proxied gfs/sgfs setups"),
    ("nfs-v4", dict(disk_cache=True), "disk_cache applies only to proxied setups"),
    ("gfs", dict(session_tickets=True),
     "session_tickets requires a secure (sgfs*) setup"),
    ("nfs-v3", dict(session_tickets=True),
     "session_tickets requires a secure (sgfs*) setup"),
]
#: the single-session setups' own points (as fleets they are refused whole)
SINGLE_ONLY = [
    ("gfs-ssh", dict(streams=2), "streams applies only to proxied gfs/sgfs setups"),
    ("sfs", dict(disk_cache=True), "disk_cache applies only to proxied setups"),
]


@pytest.mark.parametrize("runs, setup, options, message", [
    (runs, *row)
    for runs, rows in (((_fleet,), FLEET_ONLY), ((_fleet, _single), BOTH),
                       ((_single,), SINGLE_ONLY))
    for row in rows
])
def test_unsupported_point_is_refused_by_every_entry_point(
        runs, setup, options, message):
    for run in runs:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            run(setup, **dict(options))


@pytest.mark.parametrize("setup", sorted(SETUP_BUILDERS))
@pytest.mark.parametrize("option, supported", [
    ({"disk_cache": True}, PROXY_CACHE_SETUPS),
    ({"streams": 2}, ("gfs", *SUITES)),
    ({"cache_capacity": FS}, ("gfs", *SUITES)),
])
def test_every_setup_runs_or_refuses_an_option(setup, option, supported):
    runs = [_single] + ([] if setup in ("sfs", "gfs-ssh") else [_fleet])
    for run in runs:
        if setup in supported:
            assert run(setup, **dict(option)).stats["nfs.client"]
        else:
            with pytest.raises(ValueError, match="applies only to proxied"):
                run(setup, **dict(option))


def test_proxy_cache_setups_are_the_proxied_stacks():
    assert set(PROXY_CACHE_SETUPS) == set(SETUP_BUILDERS) - {"nfs-v3", "nfs-v4", "sfs"}
