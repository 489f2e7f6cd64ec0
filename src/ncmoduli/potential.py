"""Moduli data attached to quartic conifold potentials.

A homogeneous quartic potential in the alternating words a_i b_j a_k b_l
is the same thing as a symmetric 4x4 rational matrix N indexed by the
pairs (i, j) and (k, l): the word a_i b_j a_k b_l with coefficient c
contributes c/2 to both N[(ij), (kl)] and N[(kl), (ij)].  The invariants
are the power traces f_d = tr((N J)^d) for d = 1..4, giving a point of
the weighted projective space with weights (1, 2, 3, 4).

Reinterpreting N as a 2x2x2x2 tensor realizes the degree-4 covering of
weighted spaces: the tensor invariants of the image are polynomial in
the f_d, and :func:`verify_covering_identities` checks those relations
exactly on any given N.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, Sequence, Tuple

from .errors import DomainError, SchemaError
from .exact import (
    BinaryForm,
    ExactMatrix,
    GaussianRational,
    _poly_divmod,
    binary_form_gcd,
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


class SymmetricPotentialMatrix:
    """A symmetric 4x4 rational matrix encoding a quartic conifold potential.

    Only the ten entries on and above the diagonal are stored; ``n`` gives
    the full matrix as a tuple of row tuples.
    """

    __slots__ = ("_upper",)

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise SchemaError("expected a 4x4 matrix")
        n = tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows)
        for r in range(4):
            for c in range(r):
                if n[r][c] != n[c][r]:
                    raise DomainError(f"matrix is not symmetric at ({r}, {c})")
        self._upper = tuple(n[r][c] for r, c in _UPPER)

    @property
    def n(self) -> Tuple[Tuple[Fraction, ...], ...]:
        u = self._upper
        return tuple(tuple(u[_UPPER_POS[r][c]] for c in range(4)) for r in range(4))

    def __getitem__(self, key) -> Fraction:
        r, c = key
        return self._upper[_UPPER_POS[r][c]]

    def __eq__(self, other):
        if not isinstance(other, SymmetricPotentialMatrix):
            return NotImplemented
        return self._upper == other._upper

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"SymmetricPotentialMatrix({[list(map(str, r)) for r in self.n]})"

    def is_zero(self) -> bool:
        return not any(self._upper)

    def to_exact(self) -> ExactMatrix:
        return ExactMatrix(self.n)

    def to_json(self):
        return [[fraction_str(v) for v in row] for row in self.n]

    @classmethod
    def diagonal(cls, values: Sequence[Fraction]) -> "SymmetricPotentialMatrix":
        vals = [Fraction(v) for v in values]
        if len(vals) != 4:
            raise ValueError("need four diagonal values")
        return cls([[vals[r] if r == c else Fraction(0) for c in range(4)] for r in range(4)])


def potential_to_sym_matrix(potential: CyclicPotential) -> SymmetricPotentialMatrix:
    """Extract the symmetric coefficient matrix of a quartic conifold potential.

    Every cycle of the conifold quiver alternates a and b arrows, so the
    only words without an entry are those of another length.
    """
    if potential.quiver != conifold_quiver():
        raise DomainError("expected a potential on the conifold quiver")
    acc = [[Fraction(0)] * 4 for _ in range(4)]
    for word, coeff in potential.terms.items():
        entry = _ENTRY.get(word)
        if entry is None:
            raise DomainError(f"word {word} is not quartic")
        r, c = entry
        acc[r][c] += coeff / 2
        acc[c][r] += coeff / 2
    return SymmetricPotentialMatrix(acc)


def sym_matrix_to_potential(n: SymmetricPotentialMatrix) -> CyclicPotential:
    """The quartic potential whose coefficient matrix is n."""
    terms: Dict[Tuple[str, ...], Fraction] = {}
    for word, (r, c) in _ENTRY.items():
        v = n[r, c]
        if v:
            terms[word] = v if r == c else v + v
    return CyclicPotential(conifold_quiver(), terms)


@dataclass(frozen=True, slots=True)
class PotentialInvariants:
    f1: Fraction
    f2: Fraction
    f3: Fraction
    f4: Fraction

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


def classify_stability_potential(n: SymmetricPotentialMatrix) -> str:
    """"unstable" when N J is nilpotent, otherwise "semistable".

    The invariants f1..f4 are the power sums of the four eigenvalues of
    N J.  By Newton's identities they all vanish exactly when the
    characteristic polynomial is x^4, so N J is nilpotent exactly when
    every invariant vanishes.
    """
    if n.is_zero():
        raise DomainError("stability of the zero potential is not defined")
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


def verify_covering_identities(n: SymmetricPotentialMatrix) -> bool:
    """Check, exactly, that the tensor invariants of the image match the predictions."""
    predicted = covering_image_invariants(invariants_potential(n))
    actual = quintuple_invariants(potential_to_quintuple(n))
    return (
        actual.f2 == predicted[0]
        and actual.f4 == predicted[1]
        and actual.g4 == predicted[2]
        and actual.f6 == predicted[3]
    )


# -- fibers of the covering -------------------------------------------


@dataclass(frozen=True, slots=True)
class FiberReport:
    """Outcome of the sign-pattern fiber experiment over a diagonal spectrum."""

    spectrum: Tuple[Fraction, ...]
    target: WeightedPoint
    preimages: Tuple[WeightedPoint, ...]
    preimage_count: int
    target_consistent: bool
    odd_patterns_differ: bool


def _power_sums(values: Sequence[Fraction], top: int) -> List[Fraction]:
    return [sum((v ** d for v in values), Fraction(0)) for d in range(1, top + 1)]


def fiber_experiment(spectrum: Sequence[Fraction]) -> FiberReport:
    """Walk all sign flips of a diagonal spectrum and collect the fiber.

    For distinct positive rationals x1..x4 the even sign patterns (an
    even number of flips) all map to the same point of P(2, 4, 4, 6) and
    the distinct points of P(1, 2, 3, 4) they produce form the fiber.
    Odd patterns change the determinant sign and land elsewhere.
    """
    xs = [Fraction(v) for v in spectrum]
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
        prod = Fraction(1)
        for v in ys:
            prod *= v
        p6 = sum((v ** 6 for v in ys), Fraction(0))
        tgt = WeightedPoint(
            weights=(2, 4, 4, 6),
            coords=(
                GaussianRational(p[1]),
                GaussianRational(p[3]),
                GaussianRational(prod),
                GaussianRational(p6),
            ),
        )
        parity = 1
        for s in signs:
            parity *= s
        if parity == 1:
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


# -- numeric spectrum recovery ----------------------------------------


#: Largest relative residual :func:`reconstruct_spectrum` accepts.
SPECTRUM_RESIDUAL_BOUND = 1e-8

#: Durand-Kerner sweeps allowed per square-free factor.
_ROOT_SWEEPS = 100


def _simple_roots(factor: List[GaussianRational]) -> List[complex]:
    """The roots of a monic square-free polynomial, from descending coefficients.

    A linear factor gives its root exactly.  A longer one runs Durand-Kerner
    sweeps from points on a circle of Fujiwara's radius, which encloses
    every root.  Sweeps evaluate in floats until the corrections settle,
    or until half of ``_ROOT_SWEEPS`` are spent, and then evaluate the
    exact factor at each float iterate: near a cluster of close roots a
    float evaluation is only rounding noise.
    """
    if len(factor) == 2:
        return [complex(-factor[1])]
    c = [complex(v) for v in factor]
    d = len(c) - 1
    radius = 2 * max(abs(v) ** (1 / k) for k, v in enumerate(c[1:], start=1))
    z = [radius * cmath.exp(1j * (2 * cmath.pi * k + 1) / d) for k in range(d)]
    exact = False
    for sweep in range(_ROOT_SWEEPS):
        moved = 0.0
        for k in range(d):
            if exact:
                x, coeffs = GaussianRational(Fraction(z[k].real), Fraction(z[k].imag)), factor
            else:
                x, coeffs = z[k], c
            value = coeffs[0]
            for v in coeffs[1:]:
                value = value * x + v
            value = complex(value)
            for j in range(d):
                if j != k:
                    value /= z[k] - z[j]
            z[k] -= value
            moved = max(moved, abs(value))
        if moved <= 1e-16 * radius or sweep == _ROOT_SWEEPS // 2:
            if exact:
                break
            exact = True
    return z


def _real_root_count(factor: List[GaussianRational]) -> int:
    """Distinct real roots of a square-free rational polynomial, by Sturm's theorem.

    The Sturm sequence starts with the polynomial and its derivative and
    continues with negated remainders; the count is the number of sign
    changes among the leading terms at -infinity minus those at +infinity.
    """
    d = len(factor) - 1
    chain = [factor, [(d - k) * c for k, c in enumerate(factor[:-1])]]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _poly_divmod(chain[-2], chain[-1])[1]])
    at_plus = [p[0].re > 0 for p in chain]
    at_minus = [s == (len(p) % 2 == 1) for s, p in zip(at_plus, chain)]
    minus, plus = (sum(x != y for x, y in zip(v, v[1:])) for v in (at_minus, at_plus))
    return minus - plus


def reconstruct_spectrum(n: SymmetricPotentialMatrix):
    """Recover the eigenvalues of N J numerically from its power traces.

    Newton's identities turn the four traces into the characteristic
    polynomial f, an exact binary form.  Its square-free levels are the
    quotients f_(k-1) / f_k, where f_0 = f and f_k = gcd(f_(k-1), f_(k-1)');
    the k-th level holds every root of multiplicity at least k once, so
    a repeated root is found once per level, and exactly when the level
    is linear.  Sturm's theorem counts each level's real roots exactly,
    and that many of its roots, the ones nearest the real axis, come back
    with imaginary part exactly 0.  The roots are returned sorted by real
    then imaginary part.  The power sums of the computed roots are
    checked against the exact traces; a relative residual above
    ``SPECTRUM_RESIDUAL_BOUND`` raises DomainError.
    """
    power_sums = invariants_potential(n).as_tuple()
    e1, e2, e3, e4 = _newton(power_sums, 4)[0]
    level = BinaryForm([1, -e1, e2, -e3, e4])
    roots: List[complex] = []
    while level.degree:
        d = level.degree
        derivative = BinaryForm([(d - k) * c for k, c in enumerate(level.coeffs[:-1])])
        deeper = binary_form_gcd([level, derivative])
        factor = _poly_divmod(level.coeffs, deeper.coeffs)[0]
        found = sorted(_simple_roots(factor), key=lambda z: abs(z.imag))
        real = _real_root_count(factor)
        roots += [complex(z.real, 0.0) for z in found[:real]] + found[real:]
        level = deeper
    roots.sort(key=lambda z: (z.real, z.imag))
    worst = 0.0
    for d, target in enumerate(power_sums, start=1):
        power_sum = sum(z ** d for z in roots)
        err = abs(power_sum - float(target)) / max(1.0, abs(float(target)))
        worst = max(worst, err)
    if worst > SPECTRUM_RESIDUAL_BOUND:
        raise DomainError(f"spectrum residual {worst:.3e} exceeds {SPECTRUM_RESIDUAL_BOUND:.1e}")
    return roots
