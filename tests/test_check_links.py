"""The docs gate (``tools/check_links.py``) resolves the ``repro`` names a
fenced Python block imports, not only those in backticked prose."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "check_links", ROOT / "tools" / "check_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _problems(tool, tmp_path, text, name="README.md"):
    md = tmp_path / name
    md.write_text(text, encoding="utf-8")
    return [(line, target) for _p, line, _kind, target in tool.check_file(md, tmp_path)]


EXAMPLE = """\
Prose.

```python
from repro.harness import Scenario, run_everything
import repro.nfs.cache, repro.nfs.gone as g
from repro.workloads.iozone import (IOzoneWriteRead,
                                    IOzoneMissing)
run(Scenario("sgfs"), factory)  # from repro.nope import x
```

```console
$ python -c "from repro.nope import x"
```
"""


def test_a_fenced_python_block_s_imports_must_resolve(tool, tmp_path):
    assert _problems(tool, tmp_path, EXAMPLE) == [
        (4, "repro.harness.run_everything"),
        (5, "repro.nfs.gone"),
        (7, "repro.workloads.iozone.IOzoneMissing"),
    ]


def test_a_plan_with_an_open_task_list_is_not_checked(tool, tmp_path):
    assert _problems(tool, tmp_path, "- [ ] a task\n" + EXAMPLE) == []


def test_imported_names(tool):
    assert tool.imported("from repro.core import Testbed as T, setup_sgfs") == \
        ["repro.core.Testbed", "repro.core.setup_sgfs"]
    assert tool.imported("import repro") == ["repro"]
    assert tool.imported("import reprox.y") == []
    assert tool.imported("x = 1  # import repro.y") == []
