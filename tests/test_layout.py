"""Source layout rules for the dynsfm package, checked on its syntax trees."""

import ast
from pathlib import Path

import dynsfm

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dynsfm"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced_names(node, modules):
    """Every name read under node as a bare name, or as an attribute of a
    module in modules (banded.place counts, np.linalg.lstsq does not)."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            base = n.value
            if getattr(base, "id", getattr(base, "attr", None)) in modules:
                names.add(n.attr)
    return names


def test_every_definition_has_a_caller_in_the_program():
    # a top-level function or class, public or private, that only the
    # tests call, directly or through other such definitions, is dead
    # code (an oracle the tests keep belongs in their conftest); the
    # program's callers are the module-level statements, and the
    # package's exports are its API and need no caller
    modules = {path.stem for path in PACKAGE.glob("*.py")} | {"dynsfm"}
    defined, calls, live = [], {}, set(dynsfm.__all__)
    for path in SOURCES:
        for stmt in _tree(path).body:
            names = _referenced_names(stmt, modules)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                # a definition's own body does not count as its caller
                calls.setdefault(stmt.name, set()).update(names - {stmt.name})
                if path.parent == PACKAGE:
                    defined.append(f"{path.stem}.{stmt.name}")
            else:
                live |= names
    todo = list(live)
    while todo:
        new = calls.get(todo.pop(), set()) - live
        live |= new
        todo += new
    unused = [name for name in defined if name.split(".")[1] not in live]
    assert unused == []


def test_no_import_inside_a_function_or_class():
    # imports sit at module top, so the import graph has no hidden edge
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _tree(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                nested += [f"{path.name}:{n.lineno}" for n in ast.walk(stmt)
                           if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert nested == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_name():
    # a leading underscore keeps a name to its module: another module that
    # imports it, or reads it as an attribute of an imported name, leans
    # on what its owner may change freely, so a shared name is public
    reads = []
    for path in SOURCES:
        tree = _tree(path)
        imported = set()
        for n in ast.walk(tree):
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                for alias in n.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.add(name)
                    if isinstance(n, ast.ImportFrom) and _private(alias.name):
                        reads.append(f"{path.name}:{n.lineno} {alias.name}")
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and _private(n.attr):
                root = n.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if getattr(root, "id", None) in imported:
                    reads.append(f"{path.name}:{n.lineno} {n.attr}")
    assert reads == []
