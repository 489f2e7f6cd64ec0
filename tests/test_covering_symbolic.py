"""A symbolic proof of the four covering identities.

Criterion 1 checks f2' = f2, f4' = f4, g4' = e4 and f6' = p6 on sampled
matrices.  Here the ten upper entries of N are variables.  The potential
side runs the library's own ``covering_image_invariants`` on the
symbolic power traces f_d = tr((N J)^d); the tensor side follows the
definitions in ``quintuple``: the flattening M is N, the pairing matrix
is A = M^T J M J, f2', f4', f6' are tr A, tr A^2, tr A^3 and g4' is
det M.  Both sides are compared as polynomials, so the identities hold
for every potential, not only for the sampled ones.
"""

from fractions import Fraction
from itertools import permutations
from random import Random

from ncmoduli.potential import (
    PotentialInvariants,
    SymmetricPotentialMatrix,
    covering_image_invariants,
    invariants_potential,
    potential_to_quintuple,
)
from ncmoduli.quintuple import J_MATRIX, invariants

UPPER = [(r, c) for r in range(4) for c in range(r, 4)]
BITS = 8  # bits per exponent in a monomial key; every degree here is at most 6


class Poly:
    """A polynomial over Q in the ten upper entries of N: {monomial: coefficient}.

    The exponent of variable v sits in bits BITS*v and up of the monomial
    key, so multiplying two monomials adds their keys.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def lift(value):
        return value if isinstance(value, Poly) else Poly({0: value})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in Poly.lift(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return self * Fraction(1, k)

    def __eq__(self, other):
        return self.terms == Poly.lift(other).terms

    def __repr__(self):
        return f"Poly({self.terms})"

    def at(self, point):
        """The value at the point whose v-th coordinate is point[v]."""
        total = Fraction(0)
        for m, c in self.terms.items():
            for v in range(len(point)):
                c *= point[v] ** ((m >> (BITS * v)) & ((1 << BITS) - 1))
            total += c
        return total


def _matmul(a, b):
    return [[sum((a[r][k] * b[k][c] for k in range(4)), Poly({})) for c in range(4)] for r in range(4)]


def _trace(a):
    return sum((a[k][k] for k in range(4)), Poly({}))


def _det(m):
    total = Poly({})
    for perm in permutations(range(4)):
        odd = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4)) & 1
        term = Poly({0: -1 if odd else 1})
        for r in range(4):
            term = term * m[r][perm[r]]
        total = total + term
    return total


def _symbolic_sides():
    n = [[Poly({1 << (BITS * UPPER.index((min(r, c), max(r, c)))): 1}) for c in range(4)] for r in range(4)]
    j = [[int(J_MATRIX[r, c].as_fraction()) for c in range(4)] for r in range(4)]
    nj = _matmul(n, j)
    powers = [nj]
    for _ in range(3):
        powers.append(_matmul(powers[-1], nj))
    f = [_trace(p) for p in powers]
    predicted = covering_image_invariants(PotentialInvariants(*f))
    transpose = [[n[c][r] for c in range(4)] for r in range(4)]
    a = _matmul(_matmul(_matmul(transpose, j), n), j)
    a2 = _matmul(a, a)
    tensor = (_trace(a), _trace(a2), _det(n), _trace(_matmul(a2, a)))
    return f, predicted, tensor


def test_covering_identities_hold_symbolically():
    f, predicted, tensor = _symbolic_sides()
    assert all(side.terms for side in tensor)
    for side, other in zip(predicted, tensor):
        assert side == other

    # the symbolic definitions are the library's: compare both sides with
    # the exact invariants at a few rational points
    rng = Random(56)
    for _ in range(3):
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in UPPER]
        n = SymmetricPotentialMatrix([[point[UPPER.index((min(r, c), max(r, c)))] for c in range(4)] for r in range(4)])
        assert [p.at(point) for p in f] == list(invariants_potential(n).as_tuple())
        actual = invariants(potential_to_quintuple(n)).as_tuple()
        assert [t.at(point) for t in tensor] == [v.as_fraction() for v in actual]
