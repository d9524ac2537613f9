"""Every name a module imports is read in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/ctrserve/*.py"), *ROOT.glob("scripts/*.py"),
                  *ROOT.glob("tests/*.py")])
# The acceptance criteria's own test file is kept as it was written, unused
# imports included, so that it stays the fixed gate every change is run against.
UNCHECKED = {ROOT / "tests" / "test_acceptance.py"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os, sys\nfrom a.b import c as d, e\nsys.exit(e)\n") == ["os", "d"]


@pytest.mark.parametrize("path", [path for path in MODULES if path not in UNCHECKED],
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
