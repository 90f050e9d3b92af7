"""Experiment harness: builds testbeds, runs workloads, formats results.

One experiment is one :class:`Scenario` value and one call of
:func:`run`; the ``benchmarks/`` suite regenerates every figure of the
paper's evaluation through it::

    from repro.harness import Scenario, run
    from repro.workloads.iozone import IOzoneReadReread
    result = run(Scenario("sgfs-aes", rtt=0.040, disk_cache=True), IOzoneReadReread)
"""

from repro.harness.fleet import FleetClientResult, FleetResult
from repro.harness.keywords import run_fleet, run_workload
from repro.harness.runner import ExperimentResult
from repro.harness.scenario import Scenario, run
from repro.harness.tables import (
    figure_rows,
    figure_table,
    format_table,
    run_figure,
)

__all__ = [
    "ExperimentResult",
    "FleetClientResult",
    "FleetResult",
    "Scenario",
    "run",
    "run_fleet",
    "run_workload",
    "run_figure",
    "figure_rows",
    "figure_table",
    "format_table",
]
