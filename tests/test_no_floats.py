"""The package computes exactly: no module uses floats.

Like ``test_unused_imports.py`` this walks the syntax trees with ``ast``.
A module fails when it holds a float or complex literal, a ``float(...)``
or ``complex(...)`` call, or an import of ``cmath``.  ``acceptance.py``
keeps its time budgets in whole seconds and prints no wall time.  Nor
does a float or a string get in through an argument: every entry point that
takes a rational accepts an int or a ``Fraction`` and raises
``TypeError`` for anything else, and ``counting_report``, ``count_points``
and the prime-field scalars and their modulus take ints.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import ncmoduli
from ncmoduli.dtcount import FramedRep, StabilityParameter, count_points, counting_report, default_stability
from ncmoduli.exact import GaussianRational, PrimeFieldElement
from ncmoduli.potential import SymmetricPotentialMatrix, fiber_experiment
from ncmoduli.quintuple import Quintuple
from ncmoduli.quiver import CyclicPotential, conifold_potential, conifold_quiver

PACKAGE = Path(ncmoduli.__file__).parent
#: A non-real operand for the Q(i) operators.
_G = GaussianRational(Fraction(1, 3), 2)


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
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _float_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_guard_sees_each_use():
    source = "import cmath\nfrom cmath import pi\nx = 0.5\ny = 2j\nz = float(x)\nw = complex(x, 1)\nv = 1 / 2\n"
    assert sorted(line for line, _ in _float_uses(ast.parse(source))) == [1, 2, 3, 4, 5, 6]


ENTRY_POINTS = {
    "GaussianRational": lambda v: GaussianRational(v),
    "GaussianRational.im": lambda v: GaussianRational(1, v),
    "GaussianRational.im, Fraction re": lambda v: GaussianRational(Fraction(1, 3), v),
    "GaussianRational g + v": lambda v: _G + v,
    "GaussianRational v - g": lambda v: v - _G,
    "GaussianRational g * v": lambda v: _G * v,
    "GaussianRational g / v": lambda v: _G / v,
    "SymmetricPotentialMatrix": lambda v: SymmetricPotentialMatrix(
        [[v if r == c == 0 else 0 for c in range(4)] for r in range(4)]
    ),
    "SymmetricPotentialMatrix.diagonal": lambda v: SymmetricPotentialMatrix.diagonal((1, 2, 3, v)),
    "CyclicPotential": lambda v: CyclicPotential(conifold_quiver(), {("a1", "b1", "a2", "b2"): v}),
    "CyclicPotential.scale": lambda v: conifold_potential().scale(v),
    "StabilityParameter": lambda v: StabilityParameter(-1, -1, v),
    "StabilityParameter.theta0": lambda v: StabilityParameter(v, -1, 2),
    "fiber_experiment": lambda v: fiber_experiment((1, 2, 3, v)),
    "counting_report": lambda v: counting_report(conifold_potential(), default_stability(), (2, 3, 5, v)),
    "count_points": lambda v: count_points(conifold_potential(), default_stability(), v),
    "Quintuple": lambda v: Quintuple([[[[v, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]]),
    "PrimeFieldElement": lambda v: PrimeFieldElement(v, 5),
    "PrimeFieldElement.modulus": lambda v: PrimeFieldElement(3, v),
    "FramedRep.from_ints": lambda v: FramedRep.from_ints(5, v, 0, 0, 0, 1),
    "FramedRep.from_ints.modulus": lambda v: FramedRep.from_ints(v, 1, 0, 0, 0, 1),
}


@pytest.mark.parametrize("bad", [0.1, 7.9, "1/3"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_refuse_values_that_are_not_rational(name, bad):
    # each was once converted silently: a float to its binary Fraction,
    # "1/3" by parsing, counting_report's 7.9 to the prime 7, a float
    # scalar of F_p was kept as it was, a float modulus such as 2.0 passed
    # the primality test, and count_points refused 0.1 as "not prime"
    call = ENTRY_POINTS[name]
    call(7)
    with pytest.raises(TypeError):
        call(bad)
