"""Every name a module under src/affsel imports is used in that module.

``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "affsel"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


def test_detects_unused_import():
    assert unused_imports("import math\nfrom typing import Dict, List\nx: List = []\n") == [
        (1, "math"), (2, "Dict")]


def package_imports(source: str) -> set:
    """Modules of the package that ``source`` imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module.split(".")[0] if node.module else None
                found.update([base] if base else (alias.name for alias in node.names))
            elif node.module and node.module.split(".")[0] == "affsel":
                parts = node.module.split(".")
                found.update(parts[1:2] or (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "affsel":
                    found.add(rest.split(".")[0] or "affsel")   # the whole package
    return found


def test_oracle_shares_no_code_with_the_selector():
    # the independent check may lean on the number types, nothing else
    assert package_imports((SRC / "oracle.py").read_text(encoding="utf-8")) <= {"numerics"}


def test_detects_package_imports():
    assert package_imports("from . import hyperplane\nfrom .numerics import Scalar\n"
                           "import affsel.conelift\nfrom affsel import sandwich\n"
                           "from affsel.subgradient import x\nimport json, affsel\n") == {
        "hyperplane", "numerics", "conelift", "sandwich", "subgradient", "affsel"}
