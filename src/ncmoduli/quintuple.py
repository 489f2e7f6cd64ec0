"""Invariants and classification of 2x2x2x2 tensors.

A tensor w with four binary slots is stored as its flattening, the 4x4
matrix M with row index (i, j) and column index (k, l), both ordered 11,
12, 21, 22: entry w[i][j][k][l] is M[2i + j][2k + l].  A 2x2 matrix on
each slot acts on M through Kronecker products.  With the fixed
symmetric pairing J below, the combination A = M^T J M J drives
everything: the even traces f2, f4, f6 of A (half powers of A), together
with g4 = det M, are the basic invariants, and they assemble into a
point of the weighted projective space with weights (2, 4, 4, 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
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
    """A 2x2x2x2 tensor over Q(i), stored as its 4x4 flattening M.

    ``q[i, j, k, l]`` is M[2i + j][2k + l]; the constructor and the JSON
    form take the nested array w[i][j][k][l].
    """

    __slots__ = ("m",)

    def __init__(self, entries: Sequence[Sequence[Sequence[Sequence[ScalarLike]]]]):
        try:
            # reject ragged input that happens to be long enough
            if len(entries) != 2 or any(
                len(entries[i]) != 2 or len(entries[i][j]) != 2 or len(entries[i][j][k]) != 2
                for i, j in PAIR_INDEX
                for k in range(2)
            ):
                raise ValueError
            rows = tuple(
                tuple(GaussianRational.coerce(entries[i][j][k][l]) for k, l in PAIR_INDEX)
                for i, j in PAIR_INDEX
            )
        except (TypeError, IndexError, ValueError, KeyError) as exc:
            raise SchemaError("a quintuple needs a full 2x2x2x2 nested array") from exc
        self.m = ExactMatrix._wrap(rows)

    def __getitem__(self, key):
        i, j, k, l = key
        return self.m.rows[2 * i + j][2 * k + l]

    def __eq__(self, other):
        if not isinstance(other, Quintuple):
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        nonzero = [
            f"w[{i}{j}{k}{l}]={self[i, j, k, l]!r}"
            for i, j in PAIR_INDEX
            for k, l in PAIR_INDEX
            if not self[i, j, k, l].is_zero()
        ]
        return "Quintuple(" + (", ".join(nonzero) or "0") + ")"

    def is_zero(self) -> bool:
        return self.m.is_zero()

    def scale(self, factor: ScalarLike) -> "Quintuple":
        return Quintuple.from_matrix(self.m.scale(factor))

    def flatten(self) -> ExactMatrix:
        """The 4x4 matrix M with M[(ij)][(kl)] = w[i][j][k][l]."""
        return self.m

    @classmethod
    def from_matrix(cls, m: ExactMatrix) -> "Quintuple":
        if (m.nrows, m.ncols) != (4, 4):
            raise ValueError("expected a 4x4 matrix")
        q = object.__new__(cls)
        q.m = m
        return q

    def to_json(self):
        return [
            [[[scalar_to_json(self[i, j, k, l]) for l in range(2)] for k in range(2)] for j in range(2)]
            for i in range(2)
        ]

    @classmethod
    def from_json(cls, doc) -> "Quintuple":
        """Decode the leaves of w[i][j][k][l]; the constructor checks the shape."""

        def lists(node):
            if not isinstance(node, list):
                raise SchemaError("quintuple document must be a nested array")
            return node

        return cls(
            [
                [[[scalar_from_json(x) for x in lists(c)] for c in lists(b)] for b in lists(a)]
                for a in lists(doc)
            ]
        )


def linear_reference_quintuple() -> Quintuple:
    """The rank-type reference tensor with entries +1 at 1122 and 2211, -1 at 2112 and 1221.

    Its flattening is the pairing matrix J.
    """
    return Quintuple.from_matrix(J_MATRIX)


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
    is nilpotent; anything else sits in between.  When g4 = det M
    vanishes, so does det A = det(M)^2 det(J)^2, the product of the
    eigenvalues of A.  Its other three elementary symmetric functions
    follow from the power sums f2, f4, f6 = tr A, tr A^2, tr A^3 by
    Newton's identities, so A is nilpotent (characteristic polynomial
    x^4) exactly when every invariant vanishes.
    """
    inv = invariants(q)
    if not inv.g4.is_zero():
        return "stable"
    if inv.all_zero():
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


def geometricity_minors(q: Quintuple, j: int) -> List[BinaryForm]:
    """Six quadratic binary forms: the 2x2 minors of the slot-j contraction.

    Slot j carries the variables (u1, u2), slot j + 1 (mod 4) is the
    column, and the other two slots, in increasing slot order, index the
    four rows in PAIR_INDEX order.  Every entry of this 4x2 matrix is a
    linear form in u1, u2; the minors come in row-pair order (0, 1),
    (0, 2), ..., (2, 3).
    """
    col = (j + 1) % 4
    slots = (j, col) + tuple(s for s in range(4) if s not in (j, col))
    # rows[m][a][c]: the u_(a+1) coefficient in row m, column c
    rows = [[[None, None], [None, None]] for _ in PAIR_INDEX]
    for index in product(range(2), repeat=4):
        a, c, k0, k1 = (index[s] for s in slots)
        rows[2 * k0 + k1][a][c] = q[index]
    return [
        BinaryForm(
            [
                x[0][0] * y[0][1] - x[0][1] * y[0][0],
                x[0][0] * y[1][1] + x[1][0] * y[0][1] - x[0][1] * y[1][0] - x[1][1] * y[0][0],
                x[1][0] * y[1][1] - x[1][1] * y[1][0],
            ]
        )
        for x, y in combinations(rows, 2)
    ]


def is_geometric(q: Quintuple) -> Tuple[bool, Optional[int]]:
    """Whether all four slot contractions are base point free.

    Slot j passes when the gcd of its six minors is a nonzero constant:
    a zero gcd (every minor vanishes) or one of positive degree leaves a
    common zero.  The first failing slot is reported alongside False.
    """
    if q.is_zero():
        raise DomainError("geometricity of the zero tensor is not defined")
    for j in range(4):
        gcd = binary_form_gcd(geometricity_minors(q, j))
        if gcd.degree or gcd.is_zero():
            return False, j
    return True, None


def slot_transform(
    q: Quintuple,
    g0: ExactMatrix,
    g1: ExactMatrix,
    g2: ExactMatrix,
    g3: ExactMatrix,
) -> Quintuple:
    """Act by a 2x2 matrix on each of the four slots independently.

    On the flattening this is M -> (g0 (x) g1) M (g2 (x) g3)^T, with (x)
    the Kronecker product in the PAIR_INDEX order.
    """
    for g in (g0, g1, g2, g3):
        if (g.nrows, g.ncols) != (2, 2):
            raise ValueError("slot transforms must be 2x2")
    return Quintuple.from_matrix(g0.kron(g1) * q.m * g2.kron(g3).transpose())
