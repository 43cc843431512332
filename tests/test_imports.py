"""Every name imported by a package module is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "surflink"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # Names listed in __all__ are re-exports, hence used.
        if isinstance(node, ast.Assign) and "__all__" in {
            t.id for t in node.targets if isinstance(t, ast.Name)
        }:
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    source = "from typing import Optional, Sequence\n\ndef f(x: Sequence) -> None: ...\n"
    assert unused_imports(source) == ["line 1: Optional"]
