"""Every name a module imports at top level is used in that module.

No linter ships with the project, so this walks the syntax trees with
``ast``.  ``__init__.py`` is skipped: it imports names to re-export them.
"""

import ast
from pathlib import Path

import ncmoduli

PACKAGE = Path(ncmoduli.__file__).parent


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_top_level_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert unused == []
