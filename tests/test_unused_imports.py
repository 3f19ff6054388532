"""Every module of the package, the tests and the benchmark reads each name it imports.

A name counts as read when it appears as a bare name anywhere in the module,
annotations included; `from __future__` imports are exempt.  A name that a
module only passes on to others belongs to the module that defines it, so
importers take it from there.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for d in ("src/dnls_well", "tests", "perfbench") for path in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_scan_sees_an_unused_import():
    src = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom math import pi, tau\nprint(os, tau)\n"
    assert unused_imports(src) == ["np", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
