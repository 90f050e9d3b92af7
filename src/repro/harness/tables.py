"""The paper's figures: their runs as one table, and its textual analog."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.harness.runner import ExperimentResult
from repro.harness.scenario import Scenario, run
from repro.workloads.iozone import IOzoneReadReread
from repro.workloads.mab import ModifiedAndrewBenchmark
from repro.workloads.postmark import PostMark
from repro.workloads.seismic import Seismic

#: IOzone scale of the figures and ablations: the paper's 512 MB file over
#: a 256 MB client cache, scaled down — the defining ratio (file = 2 x
#: cache) is preserved
IOZONE_FILE = 4 * 1024 * 1024
IOZONE_CACHE = 2 * 1024 * 1024


def figures():
    """The paper's figures (§6) as data, name -> (title, the unit and
    columns of its table, its runs as (label, scenario, workload
    factory)).  Built per call, so importing the harness pays nothing for
    it."""
    iozone = lambda: IOzoneReadReread(file_size=IOZONE_FILE)
    user_level = [(s, Scenario(s, cache_bytes=IOZONE_CACHE), iozone)
                  for s in ("gfs", "sgfs-sha", "sgfs-rc", "sgfs-aes", "sfs")]

    def lan_and_wan(factory):
        return [("nfs-v3-lan", Scenario("nfs-v3"), factory),
                ("sgfs-lan", Scenario("sgfs"), factory),
                ("nfs-v3-wan", Scenario("nfs-v3", rtt=0.040), factory),
                ("sgfs-wan", Scenario("sgfs", rtt=0.040, disk_cache=True), factory)]

    return {
        "fig4": ("Figure 4: IOzone runtime, LAN", "s", ["total"],
                 [(s, Scenario(s, cache_bytes=IOZONE_CACHE), iozone)
                  for s in ("nfs-v3", "nfs-v4", "sfs", "gfs", "sgfs-sha",
                            "sgfs-rc", "sgfs-aes", "gfs-ssh")]),
        "fig5": ("Figure 5: IOzone client-side user-level CPU", "%",
                 ["client-cpu"], user_level),
        "fig6": ("Figure 6: IOzone server-side user-level CPU", "%",
                 ["server-cpu"], user_level),
        "fig7": ("Figure 7: PostMark phases, LAN", "s",
                 ["creation", "transaction", "deletion", "total"],
                 [(s, Scenario(s), PostMark)
                  for s in ("nfs-v3", "nfs-v4", "sfs", "sgfs", "gfs-ssh")]),
        "fig8": ("Figure 8: PostMark total vs RTT", "s", ["total"],
                 [(f"{s}-{ms}ms", Scenario(s, rtt=ms / 1000.0, disk_cache=cached),
                   PostMark)
                  for ms in (5, 10, 20, 40, 80)
                  for s, cached in (("nfs-v3", False), ("sgfs", True))]),
        "fig9": ("Figure 9: MAB phases, LAN + 40ms WAN", "s",
                 ["copy", "stat", "search", "compile", "total", "write-back"],
                 lan_and_wan(ModifiedAndrewBenchmark)),
        "fig10": ("Figure 10: Seismic phases, LAN + 40ms WAN", "s",
                  ["phase1", "phase2", "phase3", "phase4", "total", "write-back"],
                  lan_and_wan(Seismic)),
    }


def run_figure(name: str) -> Dict[str, ExperimentResult]:
    """Run every experiment of figure ``name``: label -> result."""
    *_table, runs = figures()[name]
    return {label: run(scenario, factory) for label, scenario, factory in runs}


def figure_rows(results: Dict[str, ExperimentResult]):
    """What a figure tabulates of each run: its phases, the end-of-run
    write-back, and the mean CPU share of the user-level proxy (for SFS,
    of its daemon) on either host."""
    rows = []
    for label, r in results.items():
        sfs = r.setup == "sfs"
        rows.append((label, {
            **r.phases, "write-back": r.writeback_seconds,
            "client-cpu": r.cpu_mean("client", "sfsd" if sfs else "proxy"),
            "server-cpu": r.cpu_mean("server", "sfssd" if sfs else "proxy"),
        }))
    return rows


def figure_table(name: str, results: Dict[str, ExperimentResult]) -> str:
    """The text table of figure ``name`` over :func:`run_figure`'s results."""
    title, unit, columns, _runs = figures()[name]
    return format_table(title, figure_rows(results), columns, unit)


def format_table(
    title: str,
    rows: Sequence[Tuple[str, Dict[str, float]]],
    columns: Sequence[str],
    unit: str = "s",
) -> str:
    """Render rows of named values as an aligned text table."""
    name_w = max([len(r[0]) for r in rows] + [len("setup")])
    col_w = {c: max(len(c), 10) for c in columns}
    out: List[str] = [title]
    header = "setup".ljust(name_w) + "  " + "  ".join(c.rjust(col_w[c]) for c in columns)
    out.append(header)
    out.append("-" * len(header))
    for name, values in rows:
        cells = []
        for c in columns:
            v = values.get(c)
            cells.append(("-" if v is None else f"{v:.3f}{unit}").rjust(col_w[c]))
        out.append(name.ljust(name_w) + "  " + "  ".join(cells))
    return "\n".join(out)
