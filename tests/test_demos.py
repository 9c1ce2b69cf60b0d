"""The demos import only names the package defines, and the quick ones run.

Demos 04 (exact oracle on a 9-node instance) and 07 (the full solver) take
about 10 s each, so for them only the ``from fcndp... import`` statements
are checked; the others also run to exit 0, about 4 s in all.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK = [p for p in DEMOS if p.name[:2] not in ("04", "07")]


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


@pytest.mark.parametrize("path", QUICK, ids=lambda p: p.name)
def test_quick_demo_runs(path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(path)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
