#!/usr/bin/env python3
"""Check that every relative link and every named symbol in the repo's
Markdown files resolves.

Walks all tracked ``*.md`` files, extracts inline links and images
(``[text](target)``), skips absolute URLs / mailto / pure-anchor
targets, and verifies each remaining target exists relative to the
linking file (anchors and query strings stripped).  Every ``repro.x.y``
name inside a backticked span must import or resolve (as a module, or
as attributes of one) against ``src/``, and so must every name a
``import repro…`` or ``from repro… import a, b`` line of a fenced Python
block imports — except in the files that are history and plans
(:data:`SYMBOL_SKIP`, and any file with an open ``- [ ]`` task list).
Links inside fenced blocks are not checked.  Exits non-zero listing
every dangling link and unresolved name — the CI docs gate.

Usage: python tools/check_links.py [root]
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

# Inline [text](target) and ![alt](target); stops at the first ')' so
# nested parens in URLs are out of scope (none in this repo).
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules"}
#: a backticked span, and a dotted ``repro`` name inside one
SPAN_RE = re.compile(r"`([^`]+)`")
SYMBOL_RE = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
#: history and plans: they name what was, or what is to come
SYMBOL_SKIP = {"CHANGES.md", "ROADMAP.md"}
#: an open task-list item marks a plan: it names what is yet to come
OPEN_TASK_RE = re.compile(r"^\s*[-*] \[ \]", re.MULTILINE)
#: an import statement of a ``repro`` module in a fenced Python block,
#: and what it imports
IMPORT_RE = re.compile(r"^\s*import\s+(repro\b.*)$")
FROM_RE = re.compile(r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+(.*)$")


def resolves(name: str) -> bool:
    """Whether ``name`` is a module, or an attribute path under one."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def imported(statement: str) -> list:
    """The dotted names an ``import repro…`` / ``from repro… import …``
    statement (one logical line) binds, aliases dropped; [] for any
    other line."""
    statement = statement.split("#", 1)[0].strip()
    match = IMPORT_RE.match(statement)
    if match:
        return [part.split()[0] for part in match.group(1).split(",") if part.strip()]
    match = FROM_RE.match(statement)
    if match:
        names = match.group(2).strip("() ")
        return [f"{match.group(1)}.{part.split()[0]}"
                for part in names.split(",") if part.strip() and part.strip() != "*"]
    return []


def iter_markdown(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not SKIP_DIRS.intersection(p.name for p in path.parents):
            yield path


def check_file(md: Path, root: Path) -> list:
    problems = []
    text = md.read_text(encoding="utf-8")
    symbols = md.name not in SYMBOL_SKIP and not OPEN_TASK_RE.search(text)
    in_fence = python = False
    pending = ""  # a parenthesized ``from … import (`` still open
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            python = in_fence and line.strip()[3:].strip() == "python"
            pending = ""
            continue
        if in_fence:
            if not (python and symbols):
                continue
            pending = f"{pending} {line.strip()}" if pending else line
            if FROM_RE.match(pending.strip()) and "(" in pending and ")" not in pending:
                continue
            names, pending = imported(pending), ""
        else:
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(SKIP_PREFIXES) or "://" in target:
                    continue
                # `<https://...>` autolinks don't match; bare anchors skipped above.
                plain = target.split("#", 1)[0].split("?", 1)[0]
                if not plain:
                    continue
                resolved = (md.parent / plain).resolve()
                if not resolved.exists():
                    problems.append((md.relative_to(root), lineno, "dangling link",
                                     target))
            names = [name for span in SPAN_RE.finditer(line) if symbols
                     for name in SYMBOL_RE.findall(span.group(1))]
        for name in names:
            if not resolves(name):
                problems.append((md.relative_to(root), lineno, "unresolved name", name))
    return problems


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    root = root.resolve()
    sys.path.insert(0, str(root / "src"))
    checked = 0
    problems = []
    for md in iter_markdown(root):
        checked += 1
        problems.extend(check_file(md, root))
    if problems:
        for path, lineno, kind, target in problems:
            print(f"{path}:{lineno}: {kind} -> {target}")
        print(f"{len(problems)} dangling link(s) or unresolved name(s) across "
              f"{checked} Markdown file(s)")
        return 1
    print(f"ok: all relative links and repro names resolve across {checked} "
          f"Markdown file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
