"""The teardown rule: a closed simulation is empty.

After every test, each listener, socket and RPC server the test made is
closed and each simulator it made runs until its queue drains
(``Simulator.run``'s ``max_events`` guard turns a timer that re-arms
forever into a failure).  The test then fails unless no process is
alive, no event is pending and no semaphore or reader/writer lock is
held; the failure names what is left.  The harness's runs end empty by
themselves (``Testbed.close``); a test whose simulation opens more
while it drains (a crashed server's restart timer) closes its testbed
the same way.

What a test makes is listed by wrapping constructors for the whole
session, so a module-scoped fixture's simulators are held to the rule
at the end of the first test that uses them.  Loaded as a plugin by
``tests/conftest.py`` and ``benchmarks/conftest.py``.
"""

from collections import Counter

import pytest

from repro.net.socket import Listener, SimSocket
from repro.rpc.server import RpcServer
from repro.sim.core import SimError, Simulator
from repro.sim.process import Process
from repro.sim.sync import RwLock, Semaphore

LISTED = (Simulator, Process, Listener, SimSocket, RpcServer, Semaphore, RwLock)


def _listing(init, made):
    def init_and_list(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
    return init_and_list


@pytest.fixture(scope="session", autouse=True)
def made():
    """Class -> its instances made since the last test's teardown."""
    made = {cls: [] for cls in LISTED}
    with pytest.MonkeyPatch.context() as mp:
        for cls in LISTED:
            mp.setattr(cls, "__init__", _listing(cls.__init__, made[cls]))
        yield made


def _held(lock) -> bool:
    if isinstance(lock, Semaphore):
        return lock.in_use > 0 or lock.queued > 0
    return lock.readers > 0 or lock.write_locked or lock.queued > 0


#: what the rule closes, in this order, and how
CLOSE = ((Listener, Listener.close), (RpcServer, RpcServer.stop), (SimSocket, SimSocket.close))


@pytest.fixture(autouse=True)
def closed_simulation_is_empty(made):
    yield
    problems = []
    try:
        for cls, close in CLOSE:
            for obj in made[cls]:
                close(obj)
        try:
            for sim in made[Simulator]:
                sim.run()
        except SimError as err:
            problems.append(f"the drain did not end: {err}")
        alive = Counter(p.name for p in made[Process] if p.alive)
        if alive:
            problems.append(f"{sum(alive.values())} processes alive: {dict(alive)}")
        pending = [sim for sim in made[Simulator] if sim.peek() != float("inf")]
        if pending:
            problems.append(f"events pending in {len(pending)} simulators")
        held = Counter(lock.name for lock in made[Semaphore] + made[RwLock]
                       if _held(lock))
        if held:
            problems.append(f"locks held: {dict(held)}")
    finally:
        for instances in made.values():
            instances.clear()
    if problems:
        pytest.fail("after closing every listener, socket and RPC server and "
                    "draining every simulator: " + "; ".join(problems),
                    pytrace=False)
