"""Value semantics live in one place: ``exact._Record``.

Only the classes listed here write an ``__eq__`` of their own, each for
the reason given in the ``_Record`` docstring; every other value class
takes equality, hashing and read-only fields from the base.  Like
``test_unused_private_names.py`` this walks the syntax trees with ``ast``.
"""

import ast
from pathlib import Path

import ncmoduli

PACKAGE = Path(ncmoduli.__file__).parent

OWN_EQUALITY = {
    "_Record",
    "GaussianRational",
    "PrimeFieldElement",
    "_Poly",
    "SymmetricPotentialMatrix",
    "LambdaPair",
    "EllPoint",
    "EllipticConfiguration",
}


def test_only_the_listed_classes_define_eq():
    defining = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "__eq__" for item in node.body
            ):
                defining.add(node.name)
    assert defining == OWN_EQUALITY
