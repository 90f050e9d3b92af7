"""Experiment harness: builds testbeds, runs workloads, formats results.

Used by the ``benchmarks/`` suite to regenerate every figure of the
paper's evaluation, and usable directly::

    from repro.harness import run_iozone_lan
    table = run_iozone_lan(setups=["nfs-v3", "gfs", "sgfs-aes"])
"""

from repro.harness.fleet import FleetClientResult, FleetResult, run_fleet
from repro.harness.runner import (
    ExperimentResult,
    run_workload,
    run_iozone,
    run_iozone_wr,
    run_postmark,
    run_mab,
    run_seismic,
)
from repro.harness.tables import format_table, format_series, speedup

__all__ = [
    "ExperimentResult",
    "FleetClientResult",
    "FleetResult",
    "run_fleet",
    "run_workload",
    "run_iozone",
    "run_iozone_wr",
    "run_postmark",
    "run_mab",
    "run_seismic",
    "format_table",
    "format_series",
    "speedup",
]
