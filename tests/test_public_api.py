"""The package exports exactly the names its documented users import."""

from __future__ import annotations

import ast
from pathlib import Path

import satmist

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_exported_name_resolves():
    missing = [name for name in satmist.__all__ if not hasattr(satmist, name)]
    assert missing == []


def test_demo_imports_are_exported():
    imported = set()
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "satmist":
                imported.update(alias.name for alias in node.names)
    assert imported, "no demo imports from satmist"
    assert sorted(imported - set(satmist.__all__)) == []
