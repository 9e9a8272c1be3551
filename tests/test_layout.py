"""Source layout rules for the dynsfm package, checked on its syntax trees."""

import ast
from pathlib import Path

import dynsfm

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dynsfm"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced_names(node):
    """Every name read as a bare name or as an attribute under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_has_a_caller_in_the_program():
    # a public function or class that only the tests call is dead code;
    # the package's exports are its API and need no caller
    defined, used = [], set()
    for path in SOURCES:
        for stmt in _tree(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                # a definition's own body does not count as its caller
                used |= _referenced_names(stmt) - {stmt.name}
                if path.parent == PACKAGE and not stmt.name.startswith("_"):
                    defined.append(f"{path.stem}.{stmt.name}")
            else:
                used |= _referenced_names(stmt)
    unused = [name for name in defined
              if name.split(".")[1] not in used | set(dynsfm.__all__)]
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
