"""The one scenario validator (``Scenario.check``): a setup x option point
the stack has no part for is a ``ValueError`` with the same message for
the paper's seat and for a fleet — never a ``TypeError`` from a builder,
never an option silently ignored — and a field at its default is never
refused."""

import re

import pytest

from repro.core.setups import PROXY_CACHE_SETUPS, SETUP_BUILDERS, SUITES
from repro.harness import Scenario, run
from repro.workloads.iozone import IOzoneReadReread


FS = 64 * 1024


def _iozone():
    return IOzoneReadReread(file_size=FS)


def _fleet(setup, **options):
    return run(Scenario(setup, **{"clients": 2, **options}), _iozone)


def _single(setup, **options):
    return run(Scenario(setup, **options), _iozone)


#: points only a fleet can spell (setup, Scenario fields, message)
FLEET_ONLY = [
    # -- refused by the fleet runner before there was a validator; wording pinned
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
    # a fleet seat's proxy always writes back
    ("sgfs", dict(write_back=False), "unsupported on a fleet: write_back=False"),
    ("nfs-v3", dict(write_back=False), "unsupported on a fleet: write_back=False"),
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
#: the paper's seat's own points (as fleets the single-session setups
#: are refused whole); a builder's TypeError or a silent drop before
SINGLE_ONLY = [
    ("gfs-ssh", dict(streams=2), "streams applies only to proxied gfs/sgfs setups"),
    ("sfs", dict(disk_cache=True), "disk_cache applies only to proxied setups"),
    ("gfs", dict(write_back=False), "write_back applies only to sgfs setups"),
    ("nfs-v3", dict(write_back=False), "write_back applies only to sgfs setups"),
    ("gfs-ssh", dict(session_tickets=True),
     "session_tickets requires a secure (sgfs*) setup"),
    ("sfs", dict(cache_capacity=FS),
     "cache_capacity applies only to proxied gfs/sgfs setups"),
    *[("sgfs", {name: value}, f"{name} requires a fleet (clients=N)")
      for name, value in (("stagger", 0.5), ("session_seed", "other"),
                          ("server_cores", 2), ("reconnect_interval", 1.0),
                          ("servers", 2), ("replicas", 2),
                          ("grid_block_size", 4096), ("delegation_lifetime", 1.0))],
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


@pytest.mark.parametrize("setup, options", [
    ("gfs-ssh", dict(session_tickets=False)),
    ("nfs-v3", dict(write_back=True)),
    ("sfs", dict(cache_capacity=None)),
    ("gfs", dict(write_back=True, streams=1, servers=1, stagger=0.0)),
])
def test_a_field_at_its_default_is_never_refused(setup, options):
    """Each of these reached a builder that has no such keyword
    (``TypeError``) before the one value."""
    assert _single(setup, **options).stats["nfs.client"]


def test_proxy_cache_setups_are_the_proxied_stacks():
    assert set(PROXY_CACHE_SETUPS) == set(SETUP_BUILDERS) - {"nfs-v3", "nfs-v4", "sfs"}
