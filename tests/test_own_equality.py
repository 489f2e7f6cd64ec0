"""Value semantics live in one place: ``exact._Record``.

Every class with a public field is a read-only ``_Record``, and only the
classes that equal plain numbers write an ``__eq__`` of their own, as the
``_Record`` docstring says.  Like ``test_unused_private_names.py`` this
walks the syntax trees with ``ast``; a seeded sweep checks that equal
values hash equal.
"""

import ast
import importlib
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

import ncmoduli
from ncmoduli import exact
from ncmoduli.exact import GaussianRational, PrimeFieldElement, _Record

PACKAGE = Path(ncmoduli.__file__).parent

OWN_EQUALITY = {"_Record", "GaussianRational", "_Poly"}

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


def _hash_samples(rng):
    """Seeded ints and Fractions, and values of each hashable class of ``OWN_EQUALITY`` by name."""
    numbers = [3] + [rng.randint(-9, 9) for _ in range(30)]
    numbers += [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(30)]
    parts = numbers + [0] * 30
    return numbers, {
        # a record equals by its fields: prime-field elements have int fields
        "_Record": [PrimeFieldElement(3, 7)] + [PrimeFieldElement(rng.randint(-9, 9), rng.choice((2, 3, 7))) for _ in range(40)],
        "GaussianRational": [GaussianRational(rng.choice(numbers), rng.choice(parts)) for _ in range(60)],
    }


def test_equal_values_hash_equal():
    numbers, samples = _hash_samples(Random(32))
    pool = [(None, value) for value in numbers]
    pool += [(name, value) for name, values in samples.items() for value in values]
    met = set()
    for (name, a), (_, b) in product(pool, repeat=2):
        if a == b:
            assert hash(a) == hash(b), (a, b)
            if a is not b:
                met.add(name)
    # each class meets values equal to it, and every hashable class is sampled
    assert met >= set(samples)
    assert set(samples) == {name for name in OWN_EQUALITY if getattr(exact, name).__hash__ is not None}
