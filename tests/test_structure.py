"""Module boundaries: no cmforge module imports another module's private names."""

import ast
from pathlib import Path

import cmforge

PACKAGE_DIR = Path(cmforge.__file__).parent


def private_imports(path):
    """(module, name) for every _private name the file imports from another module."""
    own = path.stem
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("cmforge"):
            continue
        source = (node.module or "").rsplit(".", 1)[-1]
        for alias in node.names:
            if alias.name.startswith("_") and source != own:
                found.append((node.module, alias.name))
    return found


def test_no_private_imports_across_modules():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (found := private_imports(path))
    }
    assert offenders == {}
