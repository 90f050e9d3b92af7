"""One daemon lifecycle: every harness run returns with its simulation empty.

The testbed knows each daemon of a run by name (``Testbed.register``),
and ``run_workload``/``run_fleet`` end with ``Testbed.close()``: the
fault plan closes, every daemon stops, the simulation drains, and the
call raises while a process is alive or an event pending.  These tests
read what a run made from the ``made`` fixture (``tests/quiescence.py``),
not only from the harness's own check.
"""

import pytest

from repro.core import Testbed
from repro.core.setups import SETUP_BUILDERS
from repro.faults import CrashEvent, FaultSpec
from repro.harness.fleet import run_fleet
from repro.harness.runner import run_workload
from repro.sim import SimError, Simulator
from repro.sim.process import Process
from repro.workloads.iozone import IOzoneWriteRead
from repro.workloads.postmark import PostMark, PostMarkConfig


def _left(made):
    """(names of the processes alive, simulators with an event pending)."""
    return (sorted(p.name for p in made[Process] if p.alive),
            [sim for sim in made[Simulator] if sim.peek() != float("inf")])


@pytest.mark.parametrize("setup", sorted(SETUP_BUILDERS))
def test_every_setup_run_ends_empty(setup, made):
    cfg = PostMarkConfig(directories=3, files=10, transactions=20)
    run_workload(setup, lambda: PostMark(cfg))
    assert _left(made) == ([], [])


#: fleet runs on a 3-backend grid, 2 replicas: the faults each one arms,
#: and the crashes that fire
FLEETS = {
    "lossy-wan-2-streams": (dict(faults="lossy-wan", streams=2), 0),
    # the restart is due long after the workload: it goes with the run,
    # and the crash it follows stays counted
    "restart-due-after-the-run": (dict(faults=FaultSpec(crashes=(
        CrashEvent(at=0.05, target="backend1", down_for=100.0),))), 1),
}


@pytest.mark.parametrize("case", sorted(FLEETS))
def test_every_fleet_run_ends_empty(case, made):
    options, crashes = FLEETS[case]
    r = run_fleet("sgfs-sha", lambda: IOzoneWriteRead(file_size=256 * 1024), clients=2,
                  servers=3, replicas=2, grid_block_size=32 * 1024,
                  setup_kwargs={"cache_bytes": 64 * 1024}, **options)
    assert r.stats["faults"]["crashes"] == crashes
    assert _left(made) == ([], [])


def test_close_names_a_stray_parked_process():
    tb = Testbed.build()
    never = tb.sim.event()

    def parked():
        yield never

    tb.sim.spawn(parked(), name="stray")
    with pytest.raises(SimError, match="stray"):
        tb.close()
    never.succeed()  # let it go: the teardown rule holds this test too
    tb.sim.run()
