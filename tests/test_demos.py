"""The demos import only names the package still has.

Each demo is parsed, not run, so a removed or renamed function shows up
here in milliseconds rather than when someone next runs the demo.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def tsfem_imports(path):
    """(module, name) of each `from tsfem... import name` in a demo."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tsfem":
            yield from ((node.module, alias.name) for alias in node.names)


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(tsfem_imports(path))
    assert imports, f"{path.name} imports nothing from tsfem"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names tsfem no longer has: {missing}"
