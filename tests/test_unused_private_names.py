"""Every module-level private name of the package is read somewhere in it.

A ``_name`` bound at the top of a module is not part of the public API,
so once nothing in ``src/ncmoduli/`` loads it, it is dead code.  Like
``test_unused_imports.py`` this walks the syntax trees with ``ast``; a
name counts as read when it is loaded as a bare name or as an attribute.
"""

import ast
from pathlib import Path

import ncmoduli

PACKAGE = Path(ncmoduli.__file__).parent


def _private_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_no_unused_private_names():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    defined = [(module, name) for module, tree in trees.items() for name in _private_names(tree)]
    assert defined
    assert [f"{module}: {name}" for module, name in defined if name not in loaded] == []
