"""Invariants and classification of 2x2x2x2 tensors.

A tensor w with four binary slots is flattened to a 4x4 matrix M by the
row index (i, j) and column index (k, l), both ordered 11, 12, 21, 22.
With the fixed symmetric pairing J below, the combination
A = M^T J M J drives everything: the even traces f2, f4, f6 of A (half
powers of A), together with g4 = det M, are the basic invariants, and
they assemble into a point of the weighted projective space with weights
(2, 4, 4, 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, SchemaError
from .exact import (
    BinaryForm,
    ExactMatrix,
    GaussianRational,
    ScalarLike,
    binary_form_gcd,
    scalar_from_json,
    scalar_to_json,
)

#: Row/column order used when flattening two binary indices.
PAIR_INDEX: Tuple[Tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))

J_MATRIX = ExactMatrix(
    [
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ]
)


class Quintuple:
    """A 2x2x2x2 tensor over Q(i), indexed w[i][j][k][l] with i,j,k,l in {0,1}."""

    __slots__ = ("w",)

    def __init__(self, entries: Sequence[Sequence[Sequence[Sequence[ScalarLike]]]]):
        try:
            w = tuple(
                tuple(
                    tuple(
                        tuple(GaussianRational.coerce(entries[i][j][k][l]) for l in range(2))
                        for k in range(2)
                    )
                    for j in range(2)
                )
                for i in range(2)
            )
            # reject ragged input that happens to be long enough
            if any(
                len(entries) != 2
                or len(entries[i]) != 2
                or len(entries[i][j]) != 2
                or len(entries[i][j][k]) != 2
                for i in range(2)
                for j in range(2)
                for k in range(2)
            ):
                raise ValueError
        except (TypeError, IndexError, ValueError, KeyError) as exc:
            raise SchemaError("a quintuple needs a full 2x2x2x2 nested array") from exc
        self.w = w

    def __getitem__(self, key):
        i, j, k, l = key
        return self.w[i][j][k][l]

    def __eq__(self, other):
        if not isinstance(other, Quintuple):
            return NotImplemented
        return self.w == other.w

    def __hash__(self):
        return hash(self.w)

    def __repr__(self):
        nonzero = [
            f"w[{i}{j}{k}{l}]={self.w[i][j][k][l]!r}"
            for i in range(2)
            for j in range(2)
            for k in range(2)
            for l in range(2)
            if not self.w[i][j][k][l].is_zero()
        ]
        return "Quintuple(" + (", ".join(nonzero) or "0") + ")"

    def is_zero(self) -> bool:
        return all(
            self.w[i][j][k][l].is_zero()
            for i in range(2)
            for j in range(2)
            for k in range(2)
            for l in range(2)
        )

    def scale(self, factor: ScalarLike) -> "Quintuple":
        c = GaussianRational.coerce(factor)
        return Quintuple(
            [
                [
                    [[c * self.w[i][j][k][l] for l in range(2)] for k in range(2)]
                    for j in range(2)
                ]
                for i in range(2)
            ]
        )

    def flatten(self) -> ExactMatrix:
        """The 4x4 matrix M with M[(ij)][(kl)] = w[i][j][k][l]."""
        return ExactMatrix(
            [
                [self.w[i][j][k][l] for (k, l) in PAIR_INDEX]
                for (i, j) in PAIR_INDEX
            ]
        )

    @classmethod
    def from_matrix(cls, m: ExactMatrix) -> "Quintuple":
        if (m.nrows, m.ncols) != (4, 4):
            raise ValueError("expected a 4x4 matrix")
        entries = [[[[None] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
        for r, (i, j) in enumerate(PAIR_INDEX):
            for c, (k, l) in enumerate(PAIR_INDEX):
                entries[i][j][k][l] = m[r, c]
        return cls(entries)

    def to_json(self):
        return [
            [
                [[scalar_to_json(self.w[i][j][k][l]) for l in range(2)] for k in range(2)]
                for j in range(2)
            ]
            for i in range(2)
        ]

    @classmethod
    def from_json(cls, doc) -> "Quintuple":
        if not isinstance(doc, list):
            raise SchemaError("quintuple document must be a nested array")
        try:
            entries = [
                [
                    [[scalar_from_json(doc[i][j][k][l]) for l in range(2)] for k in range(2)]
                    for j in range(2)
                ]
                for i in range(2)
            ]
        except (TypeError, IndexError, KeyError) as exc:
            raise SchemaError("quintuple document must be a full 2x2x2x2 array") from exc
        return cls(entries)


def linear_reference_quintuple() -> Quintuple:
    """The rank-type reference tensor with entries +1 at 1122 and 2211, -1 at 2112 and 1221."""
    entries = [[[[0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    entries[0][0][1][1] = 1
    entries[1][1][0][0] = 1
    entries[1][0][0][1] = -1
    entries[0][1][1][0] = -1
    return Quintuple(entries)


@dataclass(frozen=True, slots=True)
class QuintupleInvariants:
    f2: GaussianRational
    f4: GaussianRational
    g4: GaussianRational
    f6: GaussianRational

    def as_tuple(self):
        return (self.f2, self.f4, self.g4, self.f6)

    def all_zero(self) -> bool:
        return all(v.is_zero() for v in self.as_tuple())

    def to_json(self):
        return {
            "f2": scalar_to_json(self.f2),
            "f4": scalar_to_json(self.f4),
            "g4": scalar_to_json(self.g4),
            "f6": scalar_to_json(self.f6),
        }


def pairing_matrix(q: Quintuple) -> ExactMatrix:
    """A = M^T J M J for the flattening M of the tensor."""
    m = q.flatten()
    return m.transpose() * J_MATRIX * m * J_MATRIX


def invariants(q: Quintuple) -> QuintupleInvariants:
    """The invariants (f2, f4, g4, f6) of a nonzero tensor."""
    if q.is_zero():
        raise DomainError("invariants of the zero tensor are not defined")
    f2, f4, f6 = pairing_matrix(q).power_traces(3)
    return QuintupleInvariants(f2=f2, f4=f4, g4=q.flatten().det(), f6=f6)


def classify_stability(q: Quintuple) -> str:
    """One of "stable", "strictly-semistable", "unstable".

    Stable means g4 does not vanish; unstable means the pairing matrix A
    is nilpotent (every invariant vanishes); anything else sits in
    between.
    """
    inv = invariants(q)
    if not inv.g4.is_zero():
        return "stable"
    if pairing_matrix(q).is_nilpotent():
        return "unstable"
    return "strictly-semistable"


@dataclass(frozen=True, slots=True)
class WeightedPoint:
    """A point of a weighted projective space, kept as raw coordinates."""

    weights: Tuple[int, ...]
    coords: Tuple[GaussianRational, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.coords):
            raise ValueError("weights and coordinates differ in length")
        object.__setattr__(
            self, "coords", tuple(GaussianRational.coerce(c) for c in self.coords)
        )
        if all(c.is_zero() for c in self.coords):
            raise DomainError("all coordinates vanish; not a point of weighted space")

    def to_json(self):
        return {
            "weights": list(self.weights),
            "coords": [scalar_to_json(c) for c in self.coords],
        }


def weighted_point(q: Quintuple) -> WeightedPoint:
    """The invariants of q as a point of P(2, 4, 4, 6).

    Undefined (DomainError) when every invariant vanishes, which is
    exactly the unstable case.
    """
    inv = invariants(q)
    if inv.all_zero():
        raise DomainError("all invariants vanish; the tensor has no invariant-theory image")
    return WeightedPoint(weights=(2, 4, 4, 6), coords=inv.as_tuple())


def _extended_gcd(values: Sequence[int]) -> Tuple[int, List[int]]:
    """g = gcd(values) and integers c with sum(c_k * values_k) = g."""
    g, coeffs = values[0], [1]
    for w in values[1:]:
        # extended Euclid on (g, w): s*g + t*w = gcd(g, w)
        r0, r1, s0, s1, t0, t1 = g, w, 1, 0, 0, 1
        while r1:
            quo = r0 // r1
            r0, r1 = r1, r0 - quo * r1
            s0, s1 = s1, s0 - quo * s1
            t0, t1 = t1, t0 - quo * t1
        g = r0
        coeffs = [s0 * c for c in coeffs] + [t0]
    return g, coeffs


def weighted_point_equal(p: WeightedPoint, q: WeightedPoint) -> bool:
    """Exact equality in weighted projective space over the algebraic closure.

    The points agree iff some mu has q_k = mu^(w_k) * p_k for every k.
    Zero patterns must agree.  On the common support let r_k = q_k / p_k
    and g = gcd(w_k) = sum(c_k * w_k).  Any such mu gives
    nu = prod(r_k^(c_k)) = mu^g, hence r_k = nu^(w_k / g); conversely a
    g-th root of nu is such a mu.  So the test is r_k == nu^(w_k / g).
    """
    if p.weights != q.weights:
        raise ValueError(f"weight mismatch {p.weights} vs {q.weights}")
    support = []
    for k, (a, b) in enumerate(zip(p.coords, q.coords)):
        if a.is_zero() != b.is_zero():
            return False
        if not a.is_zero():
            support.append(k)
    ratios = [q.coords[k] / p.coords[k] for k in support]
    weights = [p.weights[k] for k in support]
    g, coeffs = _extended_gcd(weights)
    nu = GaussianRational(1)
    for r, c in zip(ratios, coeffs):
        nu = nu * r ** c
    return all(r == nu ** (w // g) for r, w in zip(ratios, weights))


def _contraction_slices(q: Quintuple, j: int) -> List[List[List[GaussianRational]]]:
    """The four 2x2 slices obtained by keeping slots j, j+1 (cyclically) free.

    Slices are listed by the two frozen indices in PAIR_INDEX order; the
    result s[m][alpha][beta] has alpha in slot j and beta in slot j+1.
    """
    w = q.w
    out = []
    for k0, k1 in PAIR_INDEX:
        if j == 0:
            s = [[w[a][b][k0][k1] for b in range(2)] for a in range(2)]
        elif j == 1:
            s = [[w[k0][a][b][k1] for b in range(2)] for a in range(2)]
        elif j == 2:
            s = [[w[k0][k1][a][b] for b in range(2)] for a in range(2)]
        else:
            s = [[w[b][k0][k1][a] for b in range(2)] for a in range(2)]
        out.append(s)
    return out


def geometricity_minors(q: Quintuple, j: int) -> List[BinaryForm]:
    """Six quadratic binary forms: the 2x2 minors of the slot-j slice stack.

    Contracting slot j against a variable vector (u1, u2) turns each
    slice into a row of two linear forms in u1, u2; stacking the four
    rows gives a 4x2 matrix of linear forms whose six maximal minors are
    the returned quadratics.
    """
    slices = _contraction_slices(q, j)
    # row m: (sum_a u_a * s[m][a][0], sum_a u_a * s[m][a][1]) as linear forms
    rows = []
    for s in slices:
        left = (s[0][0], s[1][0])  # coefficients of u1, u2
        right = (s[0][1], s[1][1])
        rows.append((left, right))

    def _lin_mul(f, g) -> BinaryForm:
        return BinaryForm(
            [f[0] * g[0], f[0] * g[1] + f[1] * g[0], f[1] * g[1]]
        )

    minors = []
    for m, n in combinations(range(4), 2):
        lm, rm = rows[m]
        ln, rn = rows[n]
        det = BinaryForm(
            [
                a - b
                for a, b in zip(_lin_mul(lm, rn).coeffs, _lin_mul(rm, ln).coeffs)
            ]
        )
        minors.append(det)
    return minors


def is_geometric(q: Quintuple) -> Tuple[bool, Optional[int]]:
    """Whether all four slot contractions are base point free.

    For each slot j the six minors of the contracted slice stack must be
    not all zero and must have constant GCD; the first slot violating
    this is reported alongside False.
    """
    if q.is_zero():
        raise DomainError("geometricity of the zero tensor is not defined")
    for j in range(4):
        minors = geometricity_minors(q, j)
        if all(f.is_zero() for f in minors):
            return False, j
        gcd = binary_form_gcd(minors)
        if not gcd.is_constant():
            return False, j
    return True, None


def slot_transform(
    q: Quintuple,
    g0: ExactMatrix,
    g1: ExactMatrix,
    g2: ExactMatrix,
    g3: ExactMatrix,
) -> Quintuple:
    """Act by a 2x2 matrix on each of the four slots independently."""
    for g in (g0, g1, g2, g3):
        if (g.nrows, g.ncols) != (2, 2):
            raise ValueError("slot transforms must be 2x2")
    w = [
        [
            [[q.w[i][j][k][l] for l in range(2)] for k in range(2)]
            for j in range(2)
        ]
        for i in range(2)
    ]

    def _apply(slot, g, w):
        out = [
            [[[GaussianRational(0)] * 2 for _ in range(2)] for _ in range(2)]
            for _ in range(2)
        ]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        idx = (i, j, k, l)
                        acc = GaussianRational(0)
                        for t in range(2):
                            src = list(idx)
                            src[slot] = t
                            acc = acc + g[idx[slot], t] * w[src[0]][src[1]][src[2]][src[3]]
                        out[i][j][k][l] = acc
        return out

    for slot, g in enumerate((g0, g1, g2, g3)):
        w = _apply(slot, g, w)
    return Quintuple(w)
