"""One transport stack, one hop: each decision has one owner in ``src/repro``.

A structure guard, not a behaviour test: it walks the source with
``ast`` and fails when a second copy of framing, the crypto cost split,
the exactly-once protocol, the proxies' session loop or the reply table
appears (DESIGN.md § One
transport stack, one hop), when a hop starts catching what it cannot
name (DESIGN.md § Failure vocabulary), when a session is assembled
outside ``core/setups`` (DESIGN.md § One session builder), when the
NFS layer reaches up into the proxies above it, or when an experiment is
spelled other than ``run(Scenario(...), factory)`` outside ``bench/``."""

import ast
import re
from collections import Counter
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
               if name in ("once", "check", "complete", "abort")
               and ast.unparse(node.func.value).endswith("drc")]
    assert outside == []


def test_the_forwarding_hops_share_one_session_loop():
    """The proxies and the SFS daemons read a session's records only
    through ``rpc.server.serve_records``."""
    readers = [path for path, tree in TREES.items()
               if path.startswith("proxy/") or path == "sfs/daemons.py"
               for _node, name in _calls(tree) if name == "recv_record"]
    assert readers == []


def test_one_reply_table_and_one_crypto_cost_split():
    functions = [(path, node) for path, tree in TREES.items() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    assert [path for path, fn in functions if fn.name == "_fail_all"] == ["rpc/client.py"]
    assert [fn.name for _path, fn in functions
            if any(isinstance(n, ast.Name) and n.id == "CRYPTO_CPU_FRACTION"
                   for n in ast.walk(fn))] == ["charge_crypto"]


def test_the_nfs_layer_imports_nothing_of_the_proxies():
    """The block table lives in ``nfs/cache.py`` and the client proxy
    imports it from there: ``repro.nfs`` sits below ``repro.proxy``."""
    imports = [(path, name) for path, tree in TREES.items() if path.startswith("nfs/")
               for node in ast.walk(tree)
               for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                            else [node.module or ""] if isinstance(node, ast.ImportFrom)
                            else [])
               if name == "repro.proxy" or name.startswith("repro.proxy.")]
    assert imports == []


def test_charge_is_part_of_the_transport_interface():
    probes = [path for path, tree in TREES.items() for node, name in _calls(tree)
              if name == "hasattr" and len(node.args) == 2
              and getattr(node.args[1], "value", None) == "charge"]
    assert probes == []


# -- failure vocabulary ---------------------------------------------------------


def _handlers():
    """(path, innermost enclosing function, caught names) per ``except``."""
    found = []

    def visit(node, path, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.ExceptHandler):
            caught = node.type
            if isinstance(caught, ast.Tuple):
                names = [ast.unparse(e) for e in caught.elts]
            else:
                names = [] if caught is None else [ast.unparse(caught)]
            found.append((path, fn, names))
        for child in ast.iter_child_nodes(node):
            visit(child, path, fn)

    for path, tree in TREES.items():
        visit(tree, path, None)
    return found


def test_one_catch_all_and_it_answers_its_caller():
    """``except Exception`` (or a bare ``except``) exists where a
    protocol error goes back to the caller instead — SYSTEM_ERR from the
    RPC dispatcher, which serves the management services too — and
    nowhere else: every other handler names what it means to survive."""
    catch_alls = [(path, fn) for path, fn, names in _handlers()
                  if not names or "Exception" in names]
    assert catch_alls == [("rpc/server.py", "_dispatch")]


def test_base_exception_is_caught_only_to_be_handed_on():
    """Four handlers see ``BaseException``, and each passes it on: the
    two that end a process fail its completion with it, the DRC
    re-raises after releasing what it holds, a fleet client records it
    for ``fleet_run`` to raise."""
    assert sorted((path, fn) for path, fn, names in _handlers()
                  if "BaseException" in names) == [
        ("harness/fleet.py", "client_proc"),
        ("rpc/drc.py", "once"),
        ("sim/process.py", "_resume"),
        ("sim/process.py", "_throw"),
    ]


def test_no_named_error_set_can_swallow_an_interrupt():
    from repro.rpc.messages import DECODE_ERRORS
    from repro.rpc.transport import DIAL_ERRORS, TRANSPORT_ERRORS
    from repro.sim import Interrupt

    for vocabulary in (TRANSPORT_ERRORS, DIAL_ERRORS, DECODE_ERRORS):
        assert not any(issubclass(Interrupt, t) for t in vocabulary)


# -- one session assembly -------------------------------------------------------

SESSION_PARTS = ("UpstreamSession", "GridRouter", "GridMetadataService",
                 "GridMetadataProgram", "GridMetadataClient", "SessionPki")
PROXIES = ("SgfsServerProxy", "SgfsClientProxy")


def _session_imports(prefixes):
    """(path, module) of every import of ``repro.grid`` or
    ``repro.proxy.upstream`` in the files under ``prefixes``."""
    imported = []
    for path in [p for p in TREES if p.startswith(prefixes)]:
        for node in ast.walk(TREES[path]):
            if isinstance(node, ast.ImportFrom):
                imported.append((path, node.module or ""))
            elif isinstance(node, ast.Import):
                imported += [(path, alias.name) for alias in node.names]
    return [(path, module) for path, module in imported
            if (module + ".").startswith(("repro.grid.", "repro.proxy.upstream."))]


def test_sessions_are_assembled_only_in_core_setups():
    """The legs, the router, the catalogue and the PKI are built in
    ``core/setups`` and nowhere else; inside ``core`` + ``harness`` each
    part, and each of the two proxies, is built in exactly one place."""
    built = {(path, name) for path, tree in TREES.items()
             for _node, name in _calls(tree) if name in SESSION_PARTS}
    assert built == {("core/setups.py", name) for name in SESSION_PARTS}
    calls = Counter(name for path, tree in TREES.items()
                    if path.startswith(("core/", "harness/"))
                    for _node, name in _calls(tree) if name in SESSION_PARTS + PROXIES)
    assert calls == Counter(SESSION_PARTS + PROXIES)


def test_the_harness_runs_sessions_and_does_not_build_them():
    assert _session_imports("harness/") == []


def test_the_services_and_sfs_get_their_sessions_from_core_setups():
    """The FSS and the SFS daemons import no session part and call
    neither proxy's constructor (the daemons subclass the proxies; a
    subclass's ``super().__init__`` is not such a call)."""
    assert _session_imports(("services/", "sfs/")) == []
    assert [(path, name) for path, tree in TREES.items()
            if path.startswith(("services/", "sfs/"))
            for _node, name in _calls(tree) if name in PROXIES] == []


# -- one experiment value ---------------------------------------------------------

ROOT = SRC.parent.parent
#: where the program, its tests, benchmarks, examples and tools live;
#: ``bench/`` (the benchmark's frozen driver) is the one other caller
PROGRAM = ("src", "tests", "benchmarks", "examples", "tools")
#: ``bench/``'s two keyword spellings of a run, and where they live
KEYWORD_RUNS = ("run_workload", "run_fleet")
ADAPTERS = "src/repro/harness/keywords.py"


def _program_files():
    return [p for d in PROGRAM for p in sorted((ROOT / d).rglob("*.py"))]


def test_only_bench_calls_the_keyword_spellings():
    """Everything but ``bench/`` runs ``run(Scenario(...), factory)``."""
    callers = [(p.relative_to(ROOT).as_posix(), name) for p in _program_files()
               for _node, name in _calls(ast.parse(p.read_text())) if name in KEYWORD_RUNS]
    assert callers == []


def test_the_old_spellings_are_gone():
    """The free-form builder dict (but for the adapters, which take it from
    ``bench/``), the separate validator and the five canned wrappers."""
    gone = re.compile(r"\b(setup_kwargs|check_scenario|run_iozone|run_iozone_wr"
                      r"|run_postmark|run_mab|run_seismic)\b")
    found = sorted({(p.relative_to(ROOT).as_posix(), m.group(1)) for p in _program_files()
                    if p.name != "test_layering.py"
                    for m in gone.finditer(p.read_text())})
    assert found == [(ADAPTERS, "setup_kwargs")]


def test_ci_runs_bench_through_the_adapters():
    """CI's ``pytest bench -q`` job runs ``bench/``, whose calls are the
    adapters' only ones."""
    assert "python -m pytest bench -q" in (ROOT / ".github/workflows/ci.yml").read_text()
    called = {name for p in sorted((ROOT / "bench").glob("*.py"))
              for _node, name in _calls(ast.parse(p.read_text())) if name in KEYWORD_RUNS}
    assert called == set(KEYWORD_RUNS)
