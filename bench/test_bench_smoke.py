"""Schema check of the benchmark: ``pytest bench/`` (not a tier-1 test).

Runs ``bench/run.py --smoke --trace`` once — every workload at toy size,
every untimed rep, the micro-benchmarks — and checks the names, units and
sums that ``BENCHMARK.json`` and ``bench/README.md`` promise.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
LAYERS = ("sim", "net", "xdr", "rpc", "tls", "crypto", "gsi", "proxy", "grid",
          "nfs", "vfs", "obs", "harness")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "result.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(out.read_text()), done.stdout


def test_names_and_counts(spec):
    end = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    # ten end-to-end names: nine in BENCHMARK.json, and ops_failed_share,
    # which is always 0 and so travels as the result's attempted/failed
    assert len(end) + 1 == 10 and "ops_failed_share" not in end
    assert len(layer) == 73
    names = end + layer + [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert {f"{l}.host_self_s" for l in LAYERS} <= set(layer)
    assert len(spec["workloads"]) == 4


def test_every_metric_emitted_with_a_unit(spec, smoke):
    result, stdout = smoke
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert result["env"]["nproc"] >= 1 and result["env"]["python"]
    for name, doc in result["workloads"].items():
        assert doc["correct"] and not doc["errors"], (name, doc["errors"])
        assert doc["attempted"] >= 1 and doc["failed"] == 0  # ops_failed_share == 0
        assert re.fullmatch(r"[0-9a-f]{64}", doc["fingerprint"])
        for m in spec["end_to_end"]:
            s = doc["end_to_end"][m["name"]]
            assert s["median"] > 0 and s["q1"] <= s["median"] <= s["q3"], (name, m)
        for m in spec["per_layer"]:
            assert isinstance(doc["per_layer"][m["name"]], (int, float)), (name, m)
        assert (ROOT / "bench" / "out" / f"{name}.trace.json").stat().st_size > 0
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}\b",
                         stdout, re.M), m
    assert "ops_failed_share=0 ratio" in stdout


def test_host_self_time_sums_to_the_profiled_total(smoke):
    result, _ = smoke
    for name, doc in result["workloads"].items():
        layers = sum(doc["per_layer"][f"{l}.host_self_s"] for l in LAYERS)
        total = doc["profiled_total_s"]
        assert abs(layers - total) <= 0.05 * total, (name, layers, total)


def test_only_grid_workload_touches_the_grid(smoke):
    result, _ = smoke
    for name, doc in result["workloads"].items():
        spans = doc["per_layer"]["grid.spans_read"] + doc["per_layer"]["grid.spans_written"]
        assert (spans > 0) == (name == "grid-fleet-wr")


def test_driver_contract_line(spec):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--workload", "iozone-wan-engine", "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0
