"""Moduli data attached to quartic conifold potentials.

A homogeneous quartic potential in the alternating words a_i b_j a_k b_l
is the same thing as a symmetric 4x4 rational matrix N indexed by the
pairs (i, j) and (k, l): the word a_i b_j a_k b_l with coefficient c
contributes c/2 to both N[(ij), (kl)] and N[(kl), (ij)].  The invariants
are the power traces f_d = tr((N J)^d) for d = 1..4, giving a point of
the weighted projective space with weights (1, 2, 3, 4).

Reinterpreting N as a 2x2x2x2 tensor realizes the degree-4 covering of
weighted spaces: the tensor invariants of the image are polynomial in
the f_d.  :func:`verify_covering_identities` checks those relations
exactly on any given N, and :func:`prove_covering_identities` proves
them for every N as polynomial identities.

On quartic potentials the covering map is the double-cover lift
:func:`ncmoduli.quiver.potential_double_cover`: in the lift, the word
a_i b_j' a_k' b_l has coefficient 2 M[2i+j][2k+l], M the flattening of
the image tensor (``test_double_cover_lift_is_the_tensor`` pins it).  The
two stay separate constructions: the lift also takes cycles of length
8, 12, ..., which have no matrix, and reading the tensor off the lift is
slower than building it here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Dict, List, Sequence, Tuple

from .errors import DomainError, SchemaError
from .exact import (
    ExactMatrix,
    GaussianRational,
    _Poly,
    _Record,
    _poly_divmod,
    _rational,
    fraction_str,
)
from .quintuple import (
    PAIR_INDEX,
    J_MATRIX,
    Quintuple,
    WeightedPoint,
    invariants as quintuple_invariants,
    weighted_point_equal,
)
from .quiver import CyclicPotential, conifold_quiver

_UPPER = [(r, c) for r in range(4) for c in range(r, 4)]
# _UPPER_POS[r][c]: where entry (r, c) of a symmetric 4x4 matrix sits in _UPPER
_UPPER_POS = tuple(
    tuple(_UPPER.index((min(r, c), max(r, c))) for c in range(4)) for r in range(4)
)

# _ENTRY maps each quartic cyclic word, in its canonical rotation, to its
# upper entry (r, c): the word a_i b_j a_k b_l with (i, j) and (k, l) the
# pairs of r and c.  Read from r or from c it is the same cycle, so the ten
# upper entries give the ten words, in the order of _UPPER, and every
# potential shares these tuples.
_A, _B = ("a1", "a2"), ("b1", "b2")
_ENTRY = {
    min((_A[i], _B[j], _A[k], _B[l]), (_A[k], _B[l], _A[i], _B[j])): (r, c)
    for r, c in _UPPER
    for (i, j), (k, l) in [(PAIR_INDEX[r], PAIR_INDEX[c])]
}
# the entry of every word a potential lacks
_NO_TERM = Fraction(0)
# _TRACE_NJ: (place of N[i][k] in _UPPER, J[k][i]) for the four nonzero J[k][i]
_TRACE_NJ = tuple((_UPPER_POS[i][k], v.as_fraction()) for k, row in enumerate(J_MATRIX.rows)
                  for i, v in enumerate(row) if v)


class SymmetricPotentialMatrix(_Record):
    """A symmetric 4x4 rational matrix encoding a quartic conifold potential.

    Its one field ``upper`` holds the ten entries on and above the
    diagonal, in ``_UPPER`` order; ``n`` gives the full matrix as a tuple
    of row tuples, and the constructor takes those rows.
    """

    __slots__ = ("upper",)

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise SchemaError("expected a 4x4 matrix")
        n = tuple(tuple(v if type(v) is Fraction else _rational(v) for v in row) for row in rows)
        for r in range(4):
            for c in range(r):
                if n[r][c] != n[c][r]:
                    raise DomainError(f"matrix is not symmetric at ({r}, {c})")
        object.__setattr__(self, "upper", tuple(n[r][c] for r, c in _UPPER))

    def __reduce__(self):
        # the constructor takes the rows, not the upper entries
        return self.__class__, (self.n,)

    @property
    def n(self) -> Tuple[Tuple[Fraction, ...], ...]:
        u = self.upper
        return tuple(tuple(u[_UPPER_POS[r][c]] for c in range(4)) for r in range(4))

    def __getitem__(self, key) -> Fraction:
        r, c = key
        return self.upper[_UPPER_POS[r][c]]

    def __repr__(self):
        return f"SymmetricPotentialMatrix({[list(map(str, r)) for r in self.n]})"

    def is_zero(self) -> bool:
        return not any(self.upper)

    def to_exact(self) -> ExactMatrix:
        """N over Q(i): each upper entry is converted once, and (r, c) and (c, r) share it."""
        g = tuple(map(GaussianRational, self.upper))
        return ExactMatrix._wrap(tuple(tuple(g[p] for p in row) for row in _UPPER_POS))

    def to_json(self):
        return [[fraction_str(v) for v in row] for row in self.n]

    @classmethod
    def diagonal(cls, values: Sequence[Fraction]) -> "SymmetricPotentialMatrix":
        if len(values) != 4:
            raise ValueError("need four diagonal values")
        return cls([[values[r] if r == c else Fraction(0) for c in range(4)] for r in range(4)])


def potential_to_sym_matrix(potential: CyclicPotential) -> SymmetricPotentialMatrix:
    """Extract the symmetric coefficient matrix of a quartic conifold potential.

    The exact inverse of :func:`sym_matrix_to_potential`: each word sets its
    upper entry, to its coefficient on the diagonal and to half of it off
    it.  Every cycle of the conifold quiver alternates a and b arrows, so
    the only words without an entry are those of another length.
    """
    if potential.quiver != conifold_quiver():
        raise DomainError("expected a potential on the conifold quiver")
    upper = [_NO_TERM] * len(_UPPER)
    for word, coeff in potential.terms.items():
        entry = _ENTRY.get(word)
        if entry is None:
            raise DomainError(f"word {word} is not quartic")
        r, c = entry
        upper[_UPPER_POS[r][c]] = coeff if r == c else coeff / 2
    # the upper entries of a symmetric matrix by construction: no check to repeat
    n = object.__new__(SymmetricPotentialMatrix)
    object.__setattr__(n, "upper", tuple(upper))
    return n


def sym_matrix_to_potential(n: SymmetricPotentialMatrix) -> CyclicPotential:
    """The quartic potential whose coefficient matrix is n."""
    terms: Dict[Tuple[str, ...], Fraction] = {}
    for word, (r, c) in _ENTRY.items():
        v = n[r, c]
        if v:
            terms[word] = v if r == c else v + v
    return CyclicPotential(conifold_quiver(), terms)


class PotentialInvariants(_Record):
    __slots__ = ("f1", "f2", "f3", "f4")

    def __init__(self, f1: Fraction, f2: Fraction, f3: Fraction, f4: Fraction):
        self._assign(f1, f2, f3, f4)

    def as_tuple(self):
        return (self.f1, self.f2, self.f3, self.f4)

    def all_zero(self) -> bool:
        return all(v == 0 for v in self.as_tuple())

    def to_json(self):
        return [fraction_str(v) for v in self.as_tuple()]


def hamiltonian_matrix(n: SymmetricPotentialMatrix) -> ExactMatrix:
    """The product N J whose power traces are the potential invariants."""
    return n.to_exact() * J_MATRIX


def invariants_potential(n: SymmetricPotentialMatrix) -> PotentialInvariants:
    if n.is_zero():
        raise DomainError("invariants of the zero potential are not defined")
    traces = hamiltonian_matrix(n).power_traces(4)
    return PotentialInvariants(*(t.as_fraction() for t in traces))


def _trace_nj(n: SymmetricPotentialMatrix) -> Fraction:
    """f1 = tr(N J): N[i][k] J[k][i] summed over the four nonzero J[k][i]."""
    return sum(n.upper[place] * v for place, v in _TRACE_NJ)


def classify_stability_potential(n: SymmetricPotentialMatrix) -> str:
    """"unstable" when N J is nilpotent, otherwise "semistable".

    The invariants f1..f4 are the power sums of the four eigenvalues of
    N J.  By Newton's identities they all vanish exactly when the
    characteristic polynomial is x^4, so N J is nilpotent exactly when
    every invariant vanishes.  A nonzero f1 = tr(N J), read off the four
    nonzero entries of J, therefore decides "semistable" alone; N J and
    its four traces are formed only when f1 = 0.
    """
    if n.is_zero():
        raise DomainError("stability of the zero potential is not defined")
    if _trace_nj(n):
        return "semistable"
    if invariants_potential(n).all_zero():
        return "unstable"
    return "semistable"


def weighted_point_potential(n: SymmetricPotentialMatrix) -> WeightedPoint:
    """The invariants (f1, f2, f3, f4) as a point of P(1, 2, 3, 4)."""
    inv = invariants_potential(n)
    if inv.all_zero():
        raise DomainError("all invariants vanish; the potential has no invariant-theory image")
    return WeightedPoint(
        weights=(1, 2, 3, 4),
        coords=tuple(GaussianRational(v) for v in inv.as_tuple()),
    )


def potential_to_quintuple(n: SymmetricPotentialMatrix) -> Quintuple:
    """Reread the symmetric matrix as a 2x2x2x2 tensor (the covering map)."""
    return Quintuple.from_matrix(n.to_exact())


def _newton(power_sums: Sequence[Fraction], top: int) -> Tuple[List[Fraction], List[Fraction]]:
    """Newton's identities for n values, from their power sums p_1..p_n.

    Returns the elementary symmetric functions [e_1, ..., e_n], from
    k*e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i, and the power sums
    [p_1, ..., p_top], from p_k = sum_{i=1..n} (-1)^(i-1) e_i p_(k-i) for
    k > n, where every e_i with i > n vanishes.
    """
    n = len(power_sums)
    p = list(power_sums)
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    for k in range(n + 1, top + 1):
        p.append(sum((-1) ** (i - 1) * e[i] * p[k - i - 1] for i in range(1, n + 1)))
    return e[1:], p


def covering_image_invariants(inv: PotentialInvariants) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """Predicted tensor invariants (f2', f4', g4', f6') from potential invariants.

    The f_d are the power sums of the four eigenvalues of N J.  The
    covering squares the spectrum, so even traces pass through, the
    determinant is the elementary symmetric function e4, and the sixth
    trace is the power sum p6; Newton's identities give both from f1..f4.
    """
    e, p = _newton(inv.as_tuple(), 6)
    return (p[1], p[3], e[3], p[5])


def _covering_polynomials():
    """Both sides of the covering identities, with the upper entries of N as variables.

    Returns the power traces [f1, f2, f3, f4] of N J and ``quintuple.invariants``
    of the image tensor, whose g4 is the division-free ``ExactMatrix.det``.
    """
    x = _Poly.variables(len(_UPPER))
    m = ExactMatrix._wrap(tuple(tuple(x[_UPPER_POS[r][c]] for c in range(4)) for r in range(4)))
    f = (m * J_MATRIX).power_traces(4)
    return f, quintuple_invariants(Quintuple.from_matrix(m)).as_tuple()


def prove_covering_identities() -> bool:
    """Prove f2' = f2, f4' = f4, g4' = e4 and f6' = p6 for every N.

    ``covering_image_invariants`` on the symbolic power traces must equal
    the nonzero symbolic tensor invariants as polynomials, so the
    identities :func:`verify_covering_identities` checks on one N hold for all.
    """
    f, tensor = _covering_polynomials()
    return all(tensor) and covering_image_invariants(PotentialInvariants(*f)) == tensor


def verify_covering_identities(n: SymmetricPotentialMatrix) -> bool:
    """Check, exactly, that the tensor invariants of the image match the predictions."""
    predicted = covering_image_invariants(invariants_potential(n))
    actual = quintuple_invariants(potential_to_quintuple(n))
    return actual.as_tuple() == predicted


# -- fibers of the covering -------------------------------------------


class FiberReport(_Record):
    """Outcome of the sign-pattern fiber experiment over a diagonal spectrum."""

    __slots__ = ("spectrum", "target", "preimages", "preimage_count", "target_consistent", "odd_patterns_differ")

    def __init__(self, spectrum: Tuple[Fraction, ...], target: WeightedPoint, preimages: Tuple[WeightedPoint, ...],
                 preimage_count: int, target_consistent: bool, odd_patterns_differ: bool):
        self._assign(spectrum, target, preimages, preimage_count, target_consistent, odd_patterns_differ)


def _power_sums(values: Sequence[Fraction], top: int) -> List[Fraction]:
    return [sum((v ** d for v in values), Fraction(0)) for d in range(1, top + 1)]


def fiber_experiment(spectrum: Sequence[Fraction]) -> FiberReport:
    """Walk all sign flips of a diagonal spectrum and collect the fiber.

    For distinct positive rationals x1..x4 the even sign patterns (an
    even number of flips) all map to the same point of P(2, 4, 4, 6) and
    the distinct points of P(1, 2, 3, 4) they produce form the fiber.
    Odd patterns change the determinant sign and land elsewhere.
    """
    xs = [_rational(v) for v in spectrum]
    if len(xs) != 4:
        raise DomainError("the fiber experiment needs four spectrum values")
    if len(set(xs)) != 4:
        raise DomainError("spectrum values must be distinct")
    if any(v <= 0 for v in xs):
        raise DomainError("spectrum values must be positive")

    even_points: List[WeightedPoint] = []
    even_targets: List[WeightedPoint] = []
    odd_targets: List[WeightedPoint] = []
    for signs in product((1, -1), repeat=4):
        ys = [s * v for s, v in zip(signs, xs)]
        p = _power_sums(ys, 4)
        src = WeightedPoint(
            weights=(1, 2, 3, 4),
            coords=tuple(GaussianRational(v) for v in p),
        )
        p6 = sum((v ** 6 for v in ys), Fraction(0))
        tgt = WeightedPoint(
            weights=(2, 4, 4, 6),
            coords=(
                GaussianRational(p[1]),
                GaussianRational(p[3]),
                GaussianRational(math.prod(ys)),
                GaussianRational(p6),
            ),
        )
        if math.prod(signs) == 1:
            even_points.append(src)
            even_targets.append(tgt)
        else:
            odd_targets.append(tgt)

    distinct: List[WeightedPoint] = []
    for pt in even_points:
        if not any(weighted_point_equal(pt, seen) for seen in distinct):
            distinct.append(pt)
    target = even_targets[0]
    consistent = all(weighted_point_equal(target, t) for t in even_targets[1:])
    odd_differ = bool(odd_targets) and not any(
        weighted_point_equal(target, t) for t in odd_targets
    )
    return FiberReport(
        spectrum=tuple(xs),
        target=target,
        preimages=tuple(distinct),
        preimage_count=len(distinct),
        target_consistent=consistent,
        odd_patterns_differ=odd_differ,
    )


# -- exact spectrum ---------------------------------------------------


def _sturm_level(f: List[GaussianRational]) -> Tuple[int, List[GaussianRational]]:
    """The number of distinct real roots of a rational polynomial f and
    gcd(f, f') up to a constant, both from one Sturm chain.

    The chain starts with f, from descending coefficients, and f', and
    continues with negated remainders until a remainder is empty, so it
    ends at gcd(f, f') up to a constant.  Sturm's theorem, which holds for
    repeated roots too, counts the distinct real roots: the sign changes
    among the leading terms at -infinity minus those at +infinity.
    """
    d = len(f) - 1
    chain = [f, [(d - k) * c for k, c in enumerate(f[:-1])]]
    while rem := _poly_divmod(chain[-2], chain[-1])[1]:
        chain.append([-c for c in rem])
    at_plus = [p[0].re > 0 for p in chain]
    at_minus = [s == (len(p) % 2 == 1) for s, p in zip(at_plus, chain)]
    minus, plus = (sum(x != y for x, y in zip(v, v[1:])) for v in (at_minus, at_plus))
    return minus - plus, chain[-1]


def reconstruct_spectrum(n: SymmetricPotentialMatrix) -> List[Tuple[int, Tuple[Fraction, ...], int]]:
    """The square-free factorization f = g_1 g_2^2 g_3^3 g_4^4 of the
    characteristic polynomial f of N J, from its power traces.

    With f_0 = f and f_k = gcd(f_(k-1), f_(k-1)'), the quotient
    q_k = f_(k-1) / f_k holds each root of multiplicity at least k once,
    and g_k = q_k / q_(k+1).  The Sturm chain of f_(k-1) gives f_k and
    the real roots of q_k, among which are those of q_(k+1).  Returns
    (k, coefficients, real_roots) for each nonconstant g_k, in increasing
    k: g_k monic, as descending Fractions, and its real-root count.
    """
    e1, e2, e3, e4 = _newton(invariants_potential(n).as_tuple(), 4)[0]
    level = [GaussianRational(c) for c in (1, -e1, e2, -e3, e4)]
    quotients = []
    while len(level) > 1:
        real, deeper = _sturm_level(level)
        quotients.append((_poly_divmod(level, deeper)[0], real))
        level = deeper
    spectrum = []
    for k, ((q, real), (q_next, real_next)) in enumerate(zip(quotients, quotients[1:] + [(level, 0)]), start=1):
        g = _poly_divmod(q, q_next)[0]
        if len(g) > 1:
            spectrum.append((k, tuple((c / g[0]).as_fraction() for c in g), real - real_next))
    return spectrum
