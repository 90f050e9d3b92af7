"""Shared benchmark helpers.

Each benchmark regenerates one figure of the paper's evaluation: it runs
the figure's experiments (``repro.harness.run_figure``, the table that
``repro figure NAME`` prints too), prints its rows (virtual-time
seconds), attaches them to pytest-benchmark's ``extra_info``, and
asserts the paper's *shape* claims — who wins, by roughly what factor,
where crossovers fall.  Absolute virtual times are calibration-dependent
and are not asserted beyond coarse sanity.

Every benchmark ends under the tests' teardown rule
(:mod:`tests.quiescence`).
"""

from __future__ import annotations

pytest_plugins = ["tests.quiescence"]


def within_factor(value: float, target: float, tolerance: float) -> bool:
    """Is ``value`` within [target/tolerance, target*tolerance]?"""
    return target / tolerance <= value <= target * tolerance
