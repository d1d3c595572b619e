"""Every module of the package, its tests and its benchmark uses each name it imports,
and every private module-level name of the package is used somewhere in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [path for part in ("src/iisan", "tests", "perfbench") for path in sorted((ROOT / part).glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_scanner_flags_only_unread_names():
    source = "import math\nimport os.path\nfrom typing import Any, Optional\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Any (line 3)", "math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name`s (functions, classes, assignments) that no module of
    the package reads, imports or reaches as an attribute."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((name, f"{module}:{node.lineno}") for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [f"{name} ({where})" for name, where in sorted(defined.items()) if name not in referenced]


def test_private_name_scanner_flags_only_unused_names():
    sources = {"a": "_used = 1\n_dead = 2\ndef _helper(): return _used\nclass _Gone: pass\n",
               "b": "from .a import _helper\nx = _helper()\n"}
    assert unreferenced_private_names(sources) == ["_Gone (a:4)", "_dead (a:2)"]


def test_no_unused_private_names_in_package():
    package = sorted((ROOT / "src/iisan").glob("*.py"))
    assert unreferenced_private_names({p.name: p.read_text(encoding="utf-8") for p in package}) == []
