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

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, SchemaError
from .exact import ExactMatrix, GaussianRational, fraction_str, scalar_to_json
from .quintuple import (
    PAIR_INDEX,
    J_MATRIX,
    Quintuple,
    WeightedPoint,
    invariants as quintuple_invariants,
    weighted_point_equal,
)
from .quiver import CyclicPotential, conifold_quiver

_PAIR_POS = {pair: k for k, pair in enumerate(PAIR_INDEX)}
_UPPER = [(r, c) for r in range(4) for c in range(r, 4)]
# _UPPER_POS[r][c]: where entry (r, c) of a symmetric 4x4 matrix sits in _UPPER
_UPPER_POS = tuple(
    tuple(_UPPER.index((min(r, c), max(r, c))) for c in range(4)) for r in range(4)
)


class SymmetricPotentialMatrix:
    """A symmetric 4x4 rational matrix encoding a quartic conifold potential.

    Only the ten entries on and above the diagonal are stored; ``n`` gives
    the full matrix as a tuple of row tuples.
    """

    __slots__ = ("_upper",)

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise SchemaError("expected a 4x4 matrix")
        n = tuple(tuple(Fraction(v) for v in row) for row in rows)
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
    """Extract the symmetric coefficient matrix of a quartic conifold potential."""
    if potential.quiver != conifold_quiver():
        raise DomainError("expected a potential on the conifold quiver")
    acc = [[Fraction(0)] * 4 for _ in range(4)]
    for word, coeff in potential.terms.items():
        if len(word) != 4:
            raise DomainError(f"word {word} is not quartic")
        # rotate to the unique alternating reading a_i b_j a_k b_l
        rot = None
        for s in range(4):
            cand = word[s:] + word[:s]
            if all(lbl.startswith(kind) for lbl, kind in zip(cand, "abab")):
                rot = cand
                break
        if rot is None:
            raise DomainError(f"word {word} does not alternate a and b arrows")
        i, j, k, l = (int(lbl[1]) - 1 for lbl in rot)
        r = _PAIR_POS[(i, j)]
        c = _PAIR_POS[(k, l)]
        acc[r][c] += Fraction(coeff) / 2
        acc[c][r] += Fraction(coeff) / 2
    return SymmetricPotentialMatrix(acc)


def sym_matrix_to_potential(n: SymmetricPotentialMatrix) -> CyclicPotential:
    """The quartic potential whose coefficient matrix is n."""
    terms: Dict[Tuple[str, ...], Fraction] = {}
    for r, (i, j) in enumerate(PAIR_INDEX):
        for c, (k, l) in enumerate(PAIR_INDEX):
            v = n[r, c]
            if v == 0:
                continue
            word = (f"a{i + 1}", f"b{j + 1}", f"a{k + 1}", f"b{l + 1}")
            terms[word] = terms.get(word, Fraction(0)) + v
    # the words coming from (r, c) and (c, r) are rotations of one another,
    # so the constructor merges them and the round trip stays exact
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
    """"unstable" when N J is nilpotent, otherwise "semistable"."""
    if n.is_zero():
        raise DomainError("stability of the zero potential is not defined")
    if hamiltonian_matrix(n).is_nilpotent():
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


def covering_image_invariants(inv: PotentialInvariants) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """Predicted tensor invariants (f2', f4', g4', f6') from potential invariants.

    These are Newton-type polynomials in the power traces f1..f4 of N J:
    the covering squares the spectrum, so even traces pass through, the
    determinant is the elementary symmetric polynomial e4, and the sixth
    trace is the degree-6 power sum rewritten in f1..f4.
    """
    f1, f2, f3, f4 = inv.as_tuple()
    g4 = (
        f1 ** 4 / 24
        - f1 ** 2 * f2 / 4
        + f1 * f3 / 3
        + f2 ** 2 / 8
        - f4 / 4
    )
    f6 = (
        -(f1 ** 6) / 24
        + 3 * f1 ** 4 * f2 / 8
        - 2 * f1 ** 3 * f3 / 3
        - 3 * f1 ** 2 * f2 ** 2 / 8
        + 3 * f1 ** 2 * f4 / 4
        - f2 ** 3 / 8
        + 3 * f2 * f4 / 4
        + f3 ** 2 / 3
    )
    return (f2, f4, g4, f6)


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


def reconstruct_spectrum(n: SymmetricPotentialMatrix, residual_bound: float = 1e-8):
    """Recover the eigenvalues of N J numerically from its power traces.

    Newton's identities turn the four traces into the characteristic
    polynomial, whose roots are returned sorted by real then imaginary
    part.  The power sums of the computed roots are checked against the
    exact traces; a relative residual above ``residual_bound`` raises
    DomainError.
    """
    import numpy as np  # the only float code; kept off the package import path

    inv = invariants_potential(n)
    p1, p2, p3, p4 = (Fraction(v) for v in inv.as_tuple())
    e1 = p1
    e2 = (e1 * p1 - p2) / 2
    e3 = (e2 * p1 - e1 * p2 + p3) / 3
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4
    coeffs = [1.0, -float(e1), float(e2), -float(e3), float(e4)]
    roots = sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag))
    worst = 0.0
    for d, target in enumerate((p1, p2, p3, p4), start=1):
        power_sum = sum(z ** d for z in roots)
        err = abs(power_sum - float(target)) / max(1.0, abs(float(target)))
        worst = max(worst, err)
    if worst > residual_bound:
        raise DomainError(f"spectrum residual {worst:.3e} exceeds {residual_bound:.1e}")
    return [complex(z) for z in roots]
