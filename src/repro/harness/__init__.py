"""Experiment harness: builds testbeds, runs workloads, formats results.

Used by the ``benchmarks/`` suite to regenerate every figure of the
paper's evaluation, and usable directly::

    from repro.harness import run_iozone
    result = run_iozone("sgfs-aes", rtt=0.040, setup_kwargs={"disk_cache": True})
"""

from repro.harness.fleet import FleetClientResult, FleetResult, run_fleet
from repro.harness.runner import (
    ExperimentResult,
    check_scenario,
    run_workload,
    run_iozone,
    run_iozone_wr,
    run_postmark,
    run_mab,
    run_seismic,
)
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
    "check_scenario",
    "run_fleet",
    "run_workload",
    "run_iozone",
    "run_iozone_wr",
    "run_postmark",
    "run_mab",
    "run_seismic",
    "run_figure",
    "figure_rows",
    "figure_table",
    "format_table",
]
