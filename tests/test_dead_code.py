"""No dead code left behind in divcalc's source: every name a module
imports is used in that module (the package's __init__.py, which imports
to re-export, aside; the tests and tools are held to the same rule), and
every private module-level name is referenced somewhere in the package
besides its own definition. And each rule has
one layer: no geometry module imports the rules or the command line,
and the rules import only errors and lattice. A class carries its model,
so only the exports pinned below take a model beside a class."""

import ast
import inspect
from pathlib import Path

import pytest

import divcalc

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "divcalc"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _unused_imports(tree):
    """(line, name) for each name the module imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def _package_imports(tree):
    """The modules of divcalc that a module imports from, by name, the
    package itself as __init__."""
    full = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            full.append("divcalc." * (node.level > 0) + (node.module or ""))
        elif isinstance(node, ast.Import):
            full += [alias.name for alias in node.names]
    return {name or "__init__" for package, _, name in
            (f.partition(".") for f in full) if package == "divcalc"}


def _private_definitions(tree):
    """(statement, name) for each private name a top-level statement of
    the module defines: a function, a class or an assignment target."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(stmt, "targets", None) or [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        found += [(stmt, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def _references(node):
    """The names that node reads: as a name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unreferenced(trees):
    """(module, line, name) for each private top-level name of the
    modules (name -> tree) that no other statement of them reads."""
    statements = [(module, stmt, _references(stmt))
                  for module, tree in trees.items() for stmt in tree.body]
    return sorted(
        (module, stmt.lineno, name)
        for module, tree in trees.items()
        for stmt, name in _private_definitions(tree)
        if not any(name in refs for _, other, refs in statements
                   if other is not stmt))


def test_the_guard_sees_each_form():
    a = ast.parse("import os\nimport x.y\nfrom m import b as c, d\n"
                  "from __future__ import annotations\n"
                  "_k = 1\n_used = 2\n\n"
                  "def _f():\n    return _f() + _used\n\n"
                  "class _C:\n    pass\n")
    b = ast.parse("from .a import _C\nprint(d, _C)\n")
    assert _unused_imports(a) == [(1, "os"), (2, "x"), (3, "c"), (3, "d")]
    assert _unused_imports(b) == []
    # _f reads only itself, and _C is read by b's import alone
    assert _unreferenced({"a": a, "b": b}) == [("a", 5, "_k"), ("a", 8, "_f")]
    c = ast.parse("from . import __version__\nfrom .errors import E\n"
                  "import divcalc.cli\nfrom divcalc.lattice import pair\n"
                  "import os.path\nfrom json import dumps\n")
    assert _package_imports(c) == {"__init__", "errors", "cli", "lattice"}


# no two of these share a file name, so the name is the id
@pytest.mark.parametrize("path", [
    p for p in MODULES + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "tools").glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = _unused_imports(_tree(path))
    assert not unused, [f"{path.name}:{line}: {name}" for line, name in unused]


def test_every_private_name_is_referenced():
    found = _unreferenced({p.name: _tree(p) for p in MODULES})
    assert not found, [f"{m}:{line}: {name}" for m, line, name in found]


# the modules below the rules: the lattice, the E10 chamber, expressions,
# the surfaces and the searches
GEOMETRY = ("lattice", "chamber", "divexpr", "surfaces", "enumeration")


def test_each_rule_has_one_layer():
    imports = {p.stem: _package_imports(_tree(p)) for p in MODULES}
    above = {m: sorted(imports[m] & {"criteria", "cli"}) for m in GEOMETRY}
    assert above == dict.fromkeys(GEOMETRY, [])
    assert imports["criteria"] <= {"errors", "lattice"}, imports["criteria"]


def test_only_four_exports_take_a_model_beside_a_class():
    # a model is a parameter annotated LatticeModel or named surface or
    # model, a class one annotated DivClass; a function that takes both
    # restates the model its class carries
    def restates(f):
        params = inspect.signature(f).parameters.values()
        return (any(p.annotation == "LatticeModel"
                    or p.name in ("surface", "model") for p in params)
                and any(p.annotation == "DivClass" for p in params))

    assert sorted(name for name, f in vars(divcalc).items()
                  if inspect.isfunction(f) and restates(f)) == [
        # perfbench/worker.py calls enumerate_bogreider(surf, C, k, ...)
        "enumerate_bogreider",
        # takes enumerate_bogreider's arguments, and changes with it
        "explainer",
        # perfbench/tracing.py binds it by name; it goes with boxed phi
        "isotropic_search",
        # perfbench/worker.py calls phi(surf, L, ...)
        "phi",
    ]
