"""Value semantics live in one place: ``exact._Record``.

Every class with a public field is a read-only ``_Record``, and only the
classes that equal plain numbers write an ``__eq__`` of their own, as the
``_Record`` docstring says.  Like ``test_unused_private_names.py`` this
walks the syntax trees with ``ast``.
"""

import ast
import importlib
from pathlib import Path

import ncmoduli
from ncmoduli.exact import _Record

PACKAGE = Path(ncmoduli.__file__).parent

OWN_EQUALITY = {"_Record", "GaussianRational", "PrimeFieldElement", "_Poly"}

#: The private polynomial of the proofs: a mutable working value, not a record.
NOT_RECORDS = {"_Poly"}


def _classes():
    """(module, class node) for every class defined in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"ncmoduli.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                yield module, node


def _slots(node):
    for item in node.body:
        if isinstance(item, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in item.targets
        ):
            return ast.literal_eval(item.value)
    return ()


def test_only_the_listed_classes_define_eq():
    defining = {
        node.name
        for _, node in _classes()
        if any(isinstance(item, ast.FunctionDef) and item.name == "__eq__" for item in node.body)
    }
    assert defining == OWN_EQUALITY


def test_every_class_with_a_public_field_is_a_record():
    public = {
        node.name: getattr(module, node.name)
        for module, node in _classes()
        if any(name[0] != "_" for name in _slots(node))
    }
    assert {"PrimeFieldElement", "SymmetricPotentialMatrix", "CriterionResult", "_Poly"} <= set(public)
    assert sorted(name for name, cls in public.items() if not issubclass(cls, _Record)) == sorted(NOT_RECORDS)
