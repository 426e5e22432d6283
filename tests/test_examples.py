"""The example scripts import only names the package still provides.

Nothing runs the examples in the test suite (they take minutes), so an
import of a removed name would otherwise go unnoticed.  Every
``from repro... import name`` in ``examples/*.py`` must resolve to a
module attribute or a submodule.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def _repro_imports(path: pathlib.Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module is not None
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    missing = []
    for module_name, name in _repro_imports(path):
        module = importlib.import_module(module_name)
        if hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"from {module_name} import {name}")
    assert missing == []
