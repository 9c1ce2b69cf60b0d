"""The demos import only names the package defines.

Running all of ``demos/`` takes about a minute, so this checks their
``from fcndp... import`` statements statically instead.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def fcndp_imports(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fcndp"
        for alias in node.names
    ]


def test_demos_found():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = [
        f"{module}.{name}"
        for module, name in fcndp_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
