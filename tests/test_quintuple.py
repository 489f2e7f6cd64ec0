"""Tensor invariants, stability classes, weighted points, geometricity."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from ncmoduli.errors import DomainError, SchemaError
from ncmoduli.exact import BinaryForm, ExactMatrix, GaussianRational
from ncmoduli.quintuple import (
    J_MATRIX,
    Quintuple,
    WeightedPoint,
    classify_stability,
    geometricity_minors,
    invariants,
    is_geometric,
    linear_reference_quintuple,
    pairing_matrix,
    slot_transform,
    weighted_point,
    weighted_point_equal,
)


def _tensor_with(entries):
    w = [[[[0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for (i, j, k, l), v in entries.items():
        w[i][j][k][l] = v
    return Quintuple(w)


def _random_tensor(rng, span=5, maxden=4):
    return Quintuple(
        [
            [
                [
                    [Fraction(rng.randint(-span, span), rng.randint(1, maxden)) for _ in range(2)]
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            for _ in range(2)
        ]
    )


def test_pairing_matrix_fixed_properties():
    assert J_MATRIX == J_MATRIX.transpose()
    assert J_MATRIX * J_MATRIX == ExactMatrix.identity(4)
    assert J_MATRIX.det() == 1


def test_linear_reference_tensor():
    q = linear_reference_quintuple()
    assert q.flatten() == J_MATRIX
    inv = invariants(q)
    assert inv.as_tuple() == (
        GaussianRational(4),
        GaussianRational(4),
        GaussianRational(1),
        GaussianRational(4),
    )
    assert classify_stability(q) == "stable"
    assert is_geometric(q) == (True, None)
    point = weighted_point(q)
    assert point.weights == (2, 4, 4, 6)
    assert weighted_point_equal(
        point,
        WeightedPoint((2, 4, 4, 6), (GaussianRational(4), GaussianRational(4), GaussianRational(1), GaussianRational(4))),
    )


def test_single_corner_entry_is_unstable():
    q = _tensor_with({(0, 0, 0, 0): 1})
    inv = invariants(q)
    assert inv.all_zero()
    assert classify_stability(q) == "unstable"
    with pytest.raises(DomainError):
        weighted_point(q)
    ok, slot = is_geometric(q)
    assert not ok and slot == 0


def test_two_entry_regression_is_unstable():
    # flattened positions (0, 0) and (2, 1); the pairing matrix vanishes
    q = _tensor_with({(0, 0, 0, 0): 1, (1, 0, 0, 1): 1})
    assert pairing_matrix(q).is_zero()
    assert classify_stability(q) == "unstable"
    # moving the entries to (0, 1) and (3, 2) instead leaves a diagonal
    # involution-like pairing: semistable with vanishing determinant
    q2 = _tensor_with({(0, 0, 0, 1): 1, (1, 1, 1, 0): 1})
    assert classify_stability(q2) == "strictly-semistable"


def test_diagonal_with_kernel_is_strictly_semistable():
    q = Quintuple.from_matrix(
        ExactMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    )
    inv = invariants(q)
    assert inv.g4.is_zero() and not inv.all_zero()
    assert classify_stability(q) == "strictly-semistable"


def test_stability_matches_the_definition():
    # the reference is the definition: stable when det M != 0, unstable
    # when the pairing matrix is nilpotent, strictly semistable otherwise
    rng = Random(66)
    scalars = (0, 0, 0, 0, 1, -1, 2, GaussianRational(0, 1), GaussianRational(1, -1))

    def vector():
        return [rng.choice(scalars) for _ in range(4)]

    def rank_one():
        u, v = vector(), vector()
        return [[x * y for y in v] for x in u]

    verdicts = {"stable": 0, "strictly-semistable": 0, "unstable": 0}
    checked = 0
    while checked < 600:
        kind = checked % 3
        if kind == 0:
            rows = [vector() for _ in range(4)]
        elif kind == 1:
            rows = rank_one()
        else:
            rows = [[x + y for x, y in zip(u, v)] for u, v in zip(rank_one(), rank_one())]
        m = ExactMatrix(rows)
        if m.is_zero():
            continue
        q = Quintuple.from_matrix(m)
        if not m.det().is_zero():
            expected = "stable"
        elif pairing_matrix(q).is_nilpotent():
            expected = "unstable"
        else:
            expected = "strictly-semistable"
        assert classify_stability(q) == expected, q
        verdicts[expected] += 1
        checked += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_zero_tensor_rejected():
    q = _tensor_with({})
    with pytest.raises(DomainError):
        invariants(q)
    with pytest.raises(DomainError):
        is_geometric(q)


def test_invariants_scale_with_tensor_weight():
    rng = Random(40)
    for _ in range(20):
        q = _random_tensor(rng)
        if q.is_zero():
            continue
        c = GaussianRational(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(0, 2))
        if c.is_zero():
            continue
        a = invariants(q)
        b = invariants(q.scale(c))
        assert b.f2 == c ** 2 * a.f2
        assert b.f4 == c ** 4 * a.f4
        assert b.g4 == c ** 4 * a.g4
        assert b.f6 == c ** 6 * a.f6


def test_invariants_float_consistency_via_orthogonal_change():
    """The printed pairing diagonalizes to the identity after a column
    rescale by eighth roots of unity; in that frame the invariants are
    plain singular-trace data, checked here in floating point."""
    np = pytest.importorskip("numpy")
    t = np.array(
        [
            [1, 0, 0, 1],
            [0, 1j, 1j, 0],
            [0, -1, 1, 0],
            [1j, 0, 0, -1j],
        ],
        dtype=complex,
    ) / np.sqrt(2)
    zeta = np.exp(-1j * np.pi / 4)
    tc = t @ np.diag([zeta, zeta, zeta.conjugate(), zeta.conjugate()])
    j = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=complex)
    assert np.allclose(tc.T @ j @ tc, np.eye(4), atol=1e-12)
    assert abs(np.linalg.det(tc) - 1) < 1e-12

    rng = Random(41)
    tc_inv = np.linalg.inv(tc)
    for _ in range(50):
        q = _random_tensor(rng)
        if q.is_zero():
            continue
        m = np.array([[complex(q.flatten()[r, c]) for c in range(4)] for r in range(4)])
        inv = invariants(q)
        c = tc_inv @ m @ tc_inv.T
        gram = c.T @ c
        for d, exact in ((1, inv.f2), (2, inv.f4), (3, inv.f6)):
            approx = np.trace(np.linalg.matrix_power(gram, d))
            assert abs(approx - complex(exact)) <= 1e-9 * max(1.0, abs(complex(exact)))
        assert abs(np.linalg.det(m) - complex(inv.g4)) <= 1e-9 * max(1.0, abs(complex(inv.g4)))


def test_weighted_point_equality_rules():
    w = (2, 4, 4, 6)
    base = WeightedPoint(w, tuple(GaussianRational(v) for v in (1, 1, 1, 1)))
    scaled = WeightedPoint(w, tuple(GaussianRational(v) for v in (4, 16, 16, 64)))
    assert weighted_point_equal(base, scaled)
    other = WeightedPoint(w, tuple(GaussianRational(v) for v in (1, 2, 1, 1)))
    assert not weighted_point_equal(base, other)
    gap = WeightedPoint(w, tuple(GaussianRational(v) for v in (1, 0, 1, 1)))
    assert not weighted_point_equal(base, gap)
    with pytest.raises(ValueError):
        weighted_point_equal(base, WeightedPoint((1, 2, 3, 4), base.coords))
    with pytest.raises(DomainError):
        WeightedPoint(w, tuple(GaussianRational(0) for _ in range(4)))


def test_weighted_point_equality_is_exact_across_weights():
    w = (2, 4, 4, 6)
    ones = WeightedPoint(w, (1, 1, 1, 1))
    # mu^2 = 1 forces mu^4 = 1, so the sign of the weight-4 slot cannot flip
    assert not weighted_point_equal(ones, WeightedPoint(w, (1, 1, -1, 1)))
    # mu = i: (i^2, i^4, i^4, i^6) = (-1, 1, 1, -1)
    assert weighted_point_equal(ones, WeightedPoint(w, (-1, 1, 1, -1)))
    # mu = 1 + i scales by (2i, -4, -4, -8i); with gcd of the weights 2
    # the test must still find it
    mu = GaussianRational(1, 1)
    base = WeightedPoint(w, (Fraction(1, 2), 3, GaussianRational(0, 2), -1))
    moved = WeightedPoint(w, tuple(mu ** wk * c for wk, c in zip(w, base.coords)))
    assert weighted_point_equal(base, moved) and weighted_point_equal(moved, base)
    # a weight-4 slot alone: any nonzero ratio has a fourth root
    lone = WeightedPoint(w, (0, 0, 1, 0))
    assert weighted_point_equal(lone, WeightedPoint(w, (0, 0, -3, 0)))


def test_slot_transform_preserves_invariants():
    rng = Random(42)
    shears = [
        ExactMatrix([[1, 2], [0, 1]]),
        ExactMatrix([[1, 0], [-1, 1]]),
        ExactMatrix([[1, -3], [0, 1]]),
        ExactMatrix([[1, 0], [2, 1]]),
    ]
    for _ in range(10):
        q = _random_tensor(rng)
        if q.is_zero():
            continue
        gs = [shears[rng.randint(0, 3)] * shears[rng.randint(0, 3)] for _ in range(4)]
        moved = slot_transform(q, *gs)
        assert invariants(moved) == invariants(q)
        assert is_geometric(moved)[0] == is_geometric(q)[0]


def test_slot_transform_matches_the_entrywise_sum():
    rng = Random(44)
    for _ in range(6):
        q = _random_tensor(rng)
        gs = [
            ExactMatrix([[GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(2)] for _ in range(2)])
            for _ in range(4)
        ]
        moved = slot_transform(q, *gs)
        for i, j, k, l in product(range(2), repeat=4):
            want = GaussianRational(0)
            for a, b, c, d in product(range(2), repeat=4):
                want = want + gs[0][i, a] * gs[1][j, b] * gs[2][k, c] * gs[3][l, d] * q[a, b, c, d]
            assert moved[i, j, k, l] == want


def test_slot_transform_single_slot_action():
    q = linear_reference_quintuple()
    g = ExactMatrix([[1, 1], [0, 1]])
    eye = ExactMatrix.identity(2)
    moved = slot_transform(q, g, eye, eye, eye)
    # slot 0 mixes: w'[i][j][k][l] = sum_t g[i][t] w[t][j][k][l]
    assert moved[0, 0, 1, 1] == q[0, 0, 1, 1] + q[1, 0, 1, 1]
    assert moved[1, 1, 0, 0] == q[1, 1, 0, 0]


def test_json_roundtrip_and_schema():
    rng = Random(43)
    q = _random_tensor(rng)
    assert Quintuple.from_json(q.to_json()) == q
    with pytest.raises(SchemaError):
        Quintuple.from_json([[[["1"]]]])
    with pytest.raises(SchemaError):
        Quintuple.from_json({"not": "a tensor"})
    # a third top-level element, and the string "12" in place of a leaf pair
    doc = q.to_json()
    with pytest.raises(SchemaError):
        Quintuple.from_json(doc + [doc[0]])
    doc[1][1][0] = "12"
    with pytest.raises(SchemaError):
        Quintuple.from_json(doc)


# _SLOT_ENTRY[j](w, a, c, k0, k1): the entry of w with a in slot j, c in
# slot j + 1 (mod 4) and (k0, k1) in the other two slots, in slot order
_SLOT_ENTRY = (
    lambda w, a, c, k0, k1: w[a][c][k0][k1],
    lambda w, a, c, k0, k1: w[k0][a][c][k1],
    lambda w, a, c, k0, k1: w[k0][k1][a][c],
    lambda w, a, c, k0, k1: w[c][k0][k1][a],
)


def _reference_minors(w, j):
    """The six 2x2 minors of the slot-j contraction, from the definition.

    Row m, column c of the contraction is sum_a u_(a+1) x[m][a][c]; the
    minor of rows m < n is the sum over (a, b) of u_(a+1) u_(b+1) times
    x[m][a][0] x[n][b][1] - x[m][a][1] x[n][b][0].
    """
    x = [
        [[_SLOT_ENTRY[j](w, a, c, k0, k1) for c in range(2)] for a in range(2)]
        for k0, k1 in product(range(2), repeat=2)
    ]
    minors = []
    for m in range(4):
        for n in range(m + 1, 4):
            coeffs = [GaussianRational(0)] * 3
            for a, b in product(range(2), repeat=2):
                coeffs[a + b] += x[m][a][0] * x[n][b][1] - x[m][a][1] * x[n][b][0]
            minors.append(BinaryForm(coeffs))
    return minors


def _span_rule(minors):
    """Whether six binary quadratics have no common projective zero.

    Their span has dimension 0 or 1: a single quadratic (or none) always
    has a zero.  Dimension 3: the span holds u1^2 and u2^2.  Dimension 2:
    the resultant of two independent members decides.
    """
    rank = ExactMatrix([f.coeffs for f in minors]).rank()
    if rank != 2:
        return rank == 3
    f = next(f for f in minors if not f.is_zero())
    g = next(g for g in minors if ExactMatrix([f.coeffs, g.coeffs]).rank() == 2)
    (f0, f1, f2), (g0, g1, g2) = f.coeffs, g.coeffs
    sylvester = ExactMatrix(
        [[f0, f1, f2, 0], [0, f0, f1, f2], [g0, g1, g2, 0], [0, g0, g1, g2]]
    )
    return not sylvester.det().is_zero()


def test_geometricity_matches_the_definition():
    rng = Random(67)
    scalars = [GaussianRational(v) for v in (0, 0, 0, 1, -1, 2)]
    scalars += [GaussianRational(0, 1), GaussianRational(1, -1)]

    def vector(n):
        return [rng.choice(scalars) for _ in range(n)]

    def flattening(m):
        return [[[[m[2 * i + j][2 * k + l] for l in range(2)] for k in range(2)] for j in range(2)] for i in range(2)]

    def rank_one():
        u, v = vector(4), vector(4)
        return [[x * y for y in v] for x in u]

    verdicts = {}
    checked = 0
    while checked < 1200:
        kind = checked % 4
        if kind == 0:
            w = flattening([vector(4) for _ in range(4)])
        elif kind == 1:
            w = flattening(rank_one())
        elif kind == 2:
            w = flattening([[x + y for x, y in zip(r, s)] for r, s in zip(rank_one(), rank_one())])
        else:
            a, b, c, d = (vector(2) for _ in range(4))
            w = [[[[a[i] * b[j] * c[k] * d[l] for l in range(2)] for k in range(2)] for j in range(2)] for i in range(2)]
        q = Quintuple(w)
        if q.is_zero():
            continue
        expected = (True, None)
        for j in range(4):
            minors = _reference_minors(w, j)
            assert geometricity_minors(q, j) == minors, (q, j)
            if expected[0] and not _span_rule(minors):
                expected = (False, j)
        assert is_geometric(q) == expected, q
        verdicts[expected] = verdicts.get(expected, 0) + 1
        checked += 1
    assert set(verdicts) == {(True, None), (False, 0), (False, 1), (False, 2), (False, 3)}, verdicts
