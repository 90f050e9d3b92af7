"""One transport stack, one hop: each decision has one owner in ``src/repro``.

A structure guard, not a behaviour test: it walks the source with
``ast`` and fails when a second copy of framing, the crypto cost split,
the exactly-once protocol or the reply table appears (DESIGN.md § One
transport stack, one hop)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
TREES = {p.relative_to(SRC).as_posix(): ast.parse(p.read_text())
         for p in sorted(SRC.rglob("*.py"))}


def _calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            yield node, name


def test_framing_is_the_stream_transports():
    outside = [(path, name) for path, tree in TREES.items() if not path.startswith("rpc/")
               for _node, name in _calls(tree)
               if name in ("RecordReader", "RecordWriter", "next_record")]
    assert outside == []


def test_exactly_once_is_the_drcs():
    outside = [(path, name) for path, tree in TREES.items() if path != "rpc/drc.py"
               for node, name in _calls(tree)
               if name in ("check", "complete", "abort")
               and ast.unparse(node.func.value).endswith("drc")]
    assert outside == []


def test_one_reply_table_and_one_crypto_cost_split():
    functions = [(path, node) for path, tree in TREES.items() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    assert [path for path, fn in functions if fn.name == "_fail_all"] == ["rpc/client.py"]
    assert [fn.name for _path, fn in functions
            if any(isinstance(n, ast.Name) and n.id == "CRYPTO_CPU_FRACTION"
                   for n in ast.walk(fn))] == ["charge_crypto"]


def test_charge_is_part_of_the_transport_interface():
    probes = [path for path, tree in TREES.items() for node, name in _calls(tree)
              if name == "hasattr" and len(node.args) == 2
              and getattr(node.args[1], "value", None) == "charge"]
    assert probes == []
