"""The package computes exactly: no module but ``acceptance.py`` uses floats.

Like ``test_unused_imports.py`` this walks the syntax trees with ``ast``.
A module fails when it holds a float or complex literal, a ``float(...)``
or ``complex(...)`` call, or an import of ``cmath``.  ``acceptance.py`` is
exempt: its time budgets and measured seconds are floats.
"""

import ast
from pathlib import Path

import ncmoduli

PACKAGE = Path(ncmoduli.__file__).parent
EXEMPT = {"acceptance.py"}


def _float_uses(tree):
    """(line, what) for each float literal, float call and cmath import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
            yield node.lineno, f"{node.func.id}(...)"
        elif isinstance(node, ast.Import) and any(alias.name == "cmath" for alias in node.names):
            yield node.lineno, "import cmath"
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            yield node.lineno, "from cmath import"


def test_no_module_uses_floats():
    modules = sorted(PACKAGE.glob("*.py"))
    assert EXEMPT <= {path.name for path in modules}
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        if path.name not in EXEMPT
        for line, what in _float_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_guard_sees_each_use():
    source = "import cmath\nfrom cmath import pi\nx = 0.5\ny = 2j\nz = float(x)\nw = complex(x, 1)\nv = 1 / 2\n"
    assert sorted(line for line, _ in _float_uses(ast.parse(source))) == [1, 2, 3, 4, 5, 6]
