"""Every module of the package, its tests and its benchmark uses each name it imports;
every private name of the package is read somewhere in it, and every public one
in it, its tests or its benchmark."""

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


def definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Names a module defines at its top level (functions, classes, assignment
    targets) and the methods of its top-level classes, with their lines."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found.extend((f.name, f.lineno) for f in node.body
                         if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return found


def reads(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attributes, imported names and string
    constants (a tracer names the attributes it wraps by string)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unread_names(defining: dict[str, str], reading: dict[str, str], private: bool) -> list[str]:
    """Names the `defining` modules define, private (`_name`) or public, that no
    `reading` module reads. Dunder names are neither."""
    read = set().union(*(reads(ast.parse(source)) for source in reading.values()))
    return sorted(f"{name} ({module}:{line})" for module, source in defining.items()
                  for name, line in definitions(ast.parse(source))
                  if not name.startswith("__") and name.startswith("_") == private and name not in read)


def _sources(parts) -> dict[str, str]:
    return {f"{path.parent.name}/{path.name}": path.read_text(encoding="utf-8")
            for path in MODULES if path.parent.name in parts}


def test_private_name_scanner_flags_only_unused_names():
    sources = {"a": "_used = 1\n_dead = 2\ndef _helper(): return _used\nclass _Gone: pass\n",
               "b": "from .a import _helper\nx = _helper()\n"}
    assert unread_names(sources, sources, private=True) == ["_Gone (a:4)", "_dead (a:2)"]


def test_no_unused_private_names_in_package():
    package = _sources({"iisan"})
    assert unread_names(package, package, private=True) == []


def test_public_name_scanner_flags_only_unread_names():
    defining = {"m": "VALUE = 1\nOTHER = 2\ndef build(): pass\nclass Box:\n"
                     "    def get(self): pass\n    def put(self): pass\n    def drop(self): pass\n"
                     "    def __len__(self): return 0\nclass Gone: pass\n"}
    reading = {"t": "from m import build\nprint(VALUE)\nBox().get()\n", "b": "TARGETS = [(m, 'put')]\n"}
    assert unread_names(defining, reading, private=False) == ["Gone (m:9)", "OTHER (m:2)", "drop (m:7)"]


def test_every_public_name_of_the_package_is_read():
    """A public function, class, assignment or method of `src/iisan` that no
    module of the package, its tests or its benchmark reads is dead code."""
    assert unread_names(_sources({"iisan"}), _sources({"iisan", "tests", "perfbench"}), private=False) == []


def raised_names(source: str) -> list[tuple[str, int]]:
    """What each `raise` of a module names, the class called or raised, with its
    line; a bare `raise` re-raises and names nothing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((ast.unparse(exc), node.lineno))
    return found


def test_raise_scanner_names_each_raised_class():
    source = ("try:\n    f()\nexcept KeyError:\n    raise\nraise InputError('x') from None\n"
              "raise ValueError\nraise errors.FormatError('y', offset=0)\n")
    assert raised_names(source) == [("InputError", 5), ("ValueError", 6), ("errors.FormatError", 7)]


def test_package_raises_only_the_error_taxonomy():
    """Every error the package raises is a class of `errors.py`, which the CLI maps to an exit status."""
    taxonomy = {node.name for node in ast.parse((ROOT / "src/iisan/errors.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.ClassDef)}
    assert sorted(f"{name} ({module}:{line})" for module, source in _sources({"iisan"}).items()
                  for name, line in raised_names(source) if name not in taxonomy) == []
