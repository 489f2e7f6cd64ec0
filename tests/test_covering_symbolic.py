"""The symbolic proof of the four covering identities, and that it can fail.

Criterion 1 checks f2' = f2, f4' = f4, g4' = e4 and f6' = p6 on sampled
matrices and runs ``prove_covering_identities``, which takes the ten
upper entries of N as variables and compares both sides as polynomials.
Here the symbolic sides are also evaluated at rational points against
the exact invariants, and a wrong Newton coefficient or a negated
determinant must fail both the proof and criterion 1.
"""

from fractions import Fraction
from random import Random

import pytest

from ncmoduli import acceptance, potential
from ncmoduli.exact import ExactMatrix
from ncmoduli.potential import (
    SymmetricPotentialMatrix,
    invariants_potential,
    potential_to_quintuple,
    prove_covering_identities,
)
from ncmoduli.quintuple import invariants

UPPER = [(r, c) for r in range(4) for c in range(r, 4)]


def test_covering_identities_hold_symbolically():
    assert prove_covering_identities()

    # the symbolic sides are the library's invariants: compare them with
    # the exact invariants at a few rational points
    f, tensor = potential._covering_polynomials()
    rng = Random(56)
    for _ in range(3):
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in UPPER]
        n = SymmetricPotentialMatrix([[point[UPPER.index((min(r, c), max(r, c)))] for c in range(4)] for r in range(4)])
        assert [p.at(point) for p in f] == list(invariants_potential(n).as_tuple())
        actual = invariants(potential_to_quintuple(n)).as_tuple()
        assert [t.at(point) for t in tensor] == [v.as_fraction() for v in actual]


def _mutated_newton(e4_divisor, i4_factor):
    """``potential._newton`` with k*e_k divided by ``e4_divisor`` at k = 4
    and the i = 4 term of the power-sum recurrence times ``i4_factor``."""

    def newton(power_sums, top):
        n = len(power_sums)
        p = list(power_sums)
        e = [Fraction(1)]
        for k in range(1, n + 1):
            divisor = e4_divisor if k == 4 else k
            e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) / divisor)
        for k in range(n + 1, top + 1):
            factors = [(i4_factor if i == 4 else 1) * (-1) ** (i - 1) for i in range(1, n + 1)]
            p.append(sum(factors[i - 1] * e[i] * p[k - i - 1] for i in range(1, n + 1)))
        return e[1:], p

    return newton


def test_unmutated_copy_proves():
    # the copy the mutations start from is the library's own recurrence
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potential, "_newton", _mutated_newton(4, 1))
        assert prove_covering_identities()


def test_negated_det_fails_the_proof_and_criterion_1(monkeypatch):
    # g4 comes from ExactMatrix.det in the proof as in the numbers, so a
    # wrong determinant must break the proof too
    det = ExactMatrix.det
    monkeypatch.setattr(ExactMatrix, "det", lambda self: -det(self))
    assert prove_covering_identities() is False
    result = acceptance.criterion_1()
    assert not result.passed
    assert "symbolic proof FAILED" in result.detail


@pytest.mark.parametrize("e4_divisor, i4_factor", [(5, 1), (4, 2)], ids=["e4 over 5", "i=4 term doubled"])
def test_wrong_newton_coefficient_fails_the_proof_and_criterion_1(monkeypatch, e4_divisor, i4_factor):
    monkeypatch.setattr(potential, "_newton", _mutated_newton(e4_divisor, i4_factor))
    assert prove_covering_identities() is False
    result = acceptance.criterion_1()
    assert not result.passed
    assert "symbolic proof FAILED" in result.detail
