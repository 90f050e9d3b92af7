"""The two keyword spellings of a run that ``bench/workloads.py`` calls.

Each maps its keywords onto :class:`~repro.harness.scenario.Scenario`
fields and calls :func:`~repro.harness.scenario.run`; nothing else
calls them (``tests/test_layering.py``).  Everything else spells
``run(Scenario(...), factory)``.
"""

from repro.harness.scenario import Scenario, run


def run_workload(setup, workload_factory, setup_kwargs=None, telemetry=True,
                 tracing=False, profile=False, **fields):
    """The paper's seat: ``setup_kwargs`` and ``fields`` are fields."""
    return run(Scenario(setup, **fields, **(setup_kwargs or {})), workload_factory,
               telemetry=telemetry, tracing=tracing, profile=profile)


def run_fleet(setup, workload_factory, clients=4, setup_kwargs=None, telemetry=True,
              tracing=False, profile=False, **fields):
    """A fleet of ``clients`` seats: ``setup_kwargs`` and ``fields`` are
    fields."""
    return run(Scenario(setup, clients=clients, **fields, **(setup_kwargs or {})),
               workload_factory, telemetry=telemetry, tracing=tracing, profile=profile)
