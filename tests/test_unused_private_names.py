"""Every private name of the package is read somewhere in it, outside its own definition.

A ``_name`` bound at the top of a module, or a ``_method`` of a class,
is not part of the public API, so once nothing in ``src/ncmoduli/``
reads it outside its own body, it is dead code: a recursive call or a
method that only reads itself does not keep it.  Like
``test_unused_imports.py`` this walks the syntax trees with ``ast``; it
shares the walk of ``test_public_names.py``, where a name counts as read
when it is loaded as a bare name or as an attribute.
"""

import ast
from pathlib import Path

import ncmoduli

from test_public_names import unread_definitions

PACKAGE = Path(ncmoduli.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree):
    """(qualified name, node) for each private function, class and assignment of a module, and each private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(item.name):
                        yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)):
                if _private(name):
                    yield name, node


def test_no_unused_private_names():
    package = sorted(PACKAGE.glob("*.py"))
    defined = [qualname for path in package for qualname, _ in _private_definitions(ast.parse(path.read_text()))]
    # the walk reaches module-level names and methods alike
    assert {"_Table", "ExactMatrix._wrap", "_Poly._lift", "StabilityParameter._require_framed_chamber"} <= set(defined)
    assert unread_definitions(package, [], _private_definitions) == []


def test_the_private_walk_skips_reads_inside_the_definition(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "_LIMIT = 3\n_UNUSED: int = 4\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _LIMIT\n\n"
        "def _helper():\n    return 1\n\n"
        "class _Box:\n"
        "    def __init__(self):\n        self._value = _helper()\n\n"
        "    def _lonely(self):\n        return self._lonely()\n\n"
        "    def _used(self):\n        return self._value\n\n"
        "    def read(self):\n        return self._used()\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("from mod import _Box, _recursive\n_Box().read()\nx = {'_UNUSED': 1}\n")
    assert unread_definitions([source, reader], [], _private_definitions) == [
        "mod.py: _Box._lonely",
        "mod.py: _UNUSED",
        "mod.py: _recursive",
    ]
