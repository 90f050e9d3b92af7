"""Hypothesis profiles, and the parked-process ratchet.

Tier-1 runs the ``default`` profile.  ``wide`` — more examples, no
deadline — is for a longer pass over the stateful models
(``pytest tests/test_proxy_model.py --hypothesis-profile=wide``, the CI
``wan`` job).

Every test runs with :meth:`Simulator.spawn` wrapped, so the processes
it starts are known.  Those still alive when the test ends are *parked*:
counted per kind (the process name without its index, port or program),
summed over the test module's tests, and held to the pins in
``tests/parked_processes.json``.  A count above its pin, or a kind with
no pin that parks, fails the test that pushes it there, so a count may
only fall; a pin is lowered by hand once a change parks fewer.
"""

import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

from repro.sim.core import Simulator

settings.register_profile("wide", max_examples=1000, deadline=None)

PINS = json.loads((Path(__file__).parent / "parked_processes.json").read_text())
#: test module -> kind -> parked processes summed over its tests so far
parked = {}


def kind(name: str) -> str:
    """The name without its numbers: ``nfsd-s1.worker0`` -> ``nfsd.worker``,
    ``rpc-pump:100003/3`` -> ``rpc-pump``, ``dss:5002.conn`` -> ``dss.conn``."""
    return re.sub(r"-s\d+|:\d+/?\d*|\d+", "", name)


@pytest.fixture(autouse=True)
def parked_process_ratchet(request, monkeypatch):
    started = []
    spawn = Simulator.spawn

    def spawn_and_list(sim, generator, name=""):
        proc = spawn(sim, generator, name)
        started.append(proc)
        return proc

    monkeypatch.setattr(Simulator, "spawn", spawn_and_list)
    yield
    monkeypatch.undo()
    # a test's count of a kind is its worst simulator's: a hypothesis
    # test builds one per example, and runs a varying number of examples
    runs = {}
    for proc in started:
        if proc.alive:
            runs.setdefault(id(proc.sim), Counter())[kind(proc.name)] += 1
    started.clear()
    counts = Counter()
    for run in runs.values():
        counts |= run
    module = request.node.module.__name__.rpartition(".")[2]
    totals = parked.setdefault(module, Counter())
    totals.update(counts)
    pins = PINS.get(module, {})
    over = {k: f"{totals[k]} > {pins.get(k, 0)}" for k in counts
            if totals[k] > pins.get(k, 0)}
    if over:
        pytest.fail(f"more processes park in {module} than pinned in "
                    f"tests/parked_processes.json: {over}", pytrace=False)
