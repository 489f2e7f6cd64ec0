"""Every name a module or a function imports is used there.

No linter ships with the project, so this walks the syntax trees with
``ast``.  A top-level import must be used somewhere in its module; an
import in a function body, as the CLI handlers make, must be used in
that function.
"""

import ast
from pathlib import Path

import ncmoduli

PACKAGE = Path(ncmoduli.__file__).parent


def _imported_names(statements):
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(nodes):
    return {name.id for node in nodes for name in ast.walk(node) if isinstance(name, ast.Name)}


def _unused_in_functions(tree):
    """``function: name`` for each name a function body imports and does not use."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used = _used_names(node.body)
            yield from (f"{node.name}: {name}" for name in _imported_names(node.body) if name not in used)


def _parsed_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in modules]


def test_no_unused_top_level_imports():
    unused = []
    for name, tree in _parsed_modules():
        used = _used_names([tree])
        unused += [f"{name}: {imported}" for imported in _imported_names(tree.body) if imported not in used]
    assert unused == []


def test_no_unused_function_imports():
    unused = [f"{name}: {entry}" for name, tree in _parsed_modules() for entry in _unused_in_functions(tree)]
    assert unused == []


def test_function_imports_are_checked_in_their_function():
    tree = ast.parse("import json\n\ndef f():\n    from os import sep\n    return json\n\ndef g():\n    return sep\n")
    assert list(_unused_in_functions(tree)) == ["f: sep"]
