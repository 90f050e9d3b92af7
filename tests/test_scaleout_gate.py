"""The scale-out gate (``benchmarks/bench_scaleout.py --check``) fails when
any committed number moves, in either direction, and when a key is
added or removed — not only when a value regresses.

No fleet runs: ``check`` is called on mutated copies of the committed
``BENCH_SCALEOUT.json``.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_scaleout", ROOT / "benchmarks" / "bench_scaleout.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "BENCH_SCALEOUT.json").read_text(encoding="utf-8"))


def _makespan_lower(d):
    d["scenarios"]["grid-24c-4s"]["makespan_virtual_seconds"] *= 0.9


def _throughput_higher(d):
    d["scenarios"]["base-8c-1core"]["aggregate_mb_per_sec"] *= 1.1


def _authz_removed(d):
    del d["scenarios"]["authz-1e6"]


def _boolean_flipped(d):
    row = d["scenarios"]["resume-8c-4core"]
    row["session_tickets"] = not row["session_tickets"]


def _field_added(d):
    d["scenarios"]["wan-lan-16m"]["extra_field"] = 0


def test_committed_file_passes(bench, committed, capsys):
    assert bench.check(copy.deepcopy(committed), committed) == 0
    assert capsys.readouterr().out.startswith("OK:")


@pytest.mark.parametrize("mutate", [_makespan_lower, _throughput_higher,
                                    _authz_removed, _boolean_flipped,
                                    _field_added])
def test_any_moved_number_fails(bench, committed, capsys, mutate):
    result = copy.deepcopy(committed)
    mutate(result)
    assert bench.check(result, committed) == 1
    assert "FAIL:" in capsys.readouterr().out
