"""Flatten a nested stats/bench JSON document to dotted paths.

Dict keys are joined with ``.`` and list indices written ``[i]``, so two
snapshots can be compared key by key (``bench/workloads.py`` reads its
metrics this way).
"""

from __future__ import annotations

from typing import Any, Dict


def flatten(doc: Any, prefix: str = "") -> Dict[str, Any]:
    """Nested dict/list → ``{"a.b[0].c": leaf}`` with sorted traversal."""
    out: Dict[str, Any] = {}
    if isinstance(doc, dict):
        for key in sorted(doc, key=str):
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(doc[key], sub))
    elif isinstance(doc, (list, tuple)):
        for i, item in enumerate(doc):
            out.update(flatten(item, f"{prefix}[{i}]"))
    else:
        out[prefix] = doc
    return out
