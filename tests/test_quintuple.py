"""Tensor invariants, stability classes, weighted points, geometricity."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

import ncmoduli
from ncmoduli import quintuple
from ncmoduli.errors import DomainError, SchemaError
from ncmoduli.exact import ExactMatrix, GaussianRational, binary_form_gcd
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
    assert q.m == J_MATRIX
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


def test_stability_matches_the_definition(count_calls):
    # the reference is the definition: stable when det M != 0, unstable
    # when the pairing matrix is nilpotent, strictly semistable otherwise;
    # the invariants are formed only when det M = 0
    calls = count_calls(quintuple, "invariants")
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
        before = len(calls)
        assert classify_stability(q) == expected, q
        assert len(calls) - before == (0 if expected == "stable" else 1), q
        verdicts[expected] += 1
        checked += 1
    # every non-stable verdict has det M = 0 and went through the invariants
    assert min(verdicts.values()) >= 50, verdicts


def test_zero_tensor_rejected():
    q = _tensor_with({})
    with pytest.raises(DomainError):
        invariants(q)
    with pytest.raises(DomainError, match="invariants of the zero tensor are not defined"):
        classify_stability(q)
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


def _complex(z):
    return complex(float(z.re), float(z.im))


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
        m = np.array([[_complex(q.m[r, c]) for c in range(4)] for r in range(4)])
        inv = invariants(q)
        c = tc_inv @ m @ tc_inv.T
        gram = c.T @ c
        for d, exact in ((1, inv.f2), (2, inv.f4), (3, inv.f6)):
            approx = np.trace(np.linalg.matrix_power(gram, d))
            assert abs(approx - _complex(exact)) <= 1e-9 * max(1.0, abs(_complex(exact)))
        assert abs(np.linalg.det(m) - _complex(inv.g4)) <= 1e-9 * max(1.0, abs(_complex(inv.g4)))


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


@pytest.mark.parametrize(
    "weights",
    [(0, 0), (1, -1), (2, 0), (2, 1.5), (2, True), (2, "4")],
    ids=["zeros", "negative", "one-zero", "float", "bool", "string"],
)
def test_weighted_point_refuses_weights_that_are_not_positive_ints(weights):
    # weighted_point_equal divides by the gcd of the weights, and a
    # negative weight gives no projective space
    with pytest.raises(ValueError, match="are not all ints of at least 1"):
        WeightedPoint(weights, (1, 1))
    assert WeightedPoint((1, 2), (1, 1)).weights == (1, 2)


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


def test_constructor_tells_shape_faults_from_leaves_that_are_not_scalars():
    def tensor(leaf):
        return [[[[leaf if (i, j, k, l) == (1, 0, 1, 1) else 0 for l in range(2)] for k in range(2)]
                 for j in range(2)] for i in range(2)]

    assert Quintuple(tensor(Fraction(1, 3)))[1, 0, 1, 1] == Fraction(1, 3)
    # a list where a scalar belongs, a missing leaf and a third slot are shape faults
    short = tensor(1)
    short[0][1][1] = [0]
    for bad in (tensor([1, 2]), tensor((1, 2)), short, tensor(1) + [tensor(1)[0]]):
        with pytest.raises(SchemaError):
            Quintuple(bad)
    # a leaf that is not a scalar of Q(i) keeps the TypeError of every other entry point
    for leaf in (0.5, "1/3", None):
        with pytest.raises(TypeError):
            Quintuple(tensor(leaf))


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
            minors.append(tuple(coeffs))
    return minors


def _span_rule(minors):
    """Whether six binary quadratics have no common projective zero.

    Their span has dimension 0 or 1: a single quadratic (or none) always
    has a zero.  Dimension 3: the span holds u1^2 and u2^2.  Dimension 2:
    the resultant of two independent members decides.
    """
    rank = ExactMatrix(minors).rank()
    if rank != 2:
        return rank == 3
    f = next(f for f in minors if any(f))
    g = next(g for g in minors if ExactMatrix([f, g]).rank() == 2)
    (f0, f1, f2), (g0, g1, g2) = f, g
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



def _nested(q):
    return [[[[q[i, j, k, l] for l in range(2)] for k in range(2)] for j in range(2)] for i in range(2)]


def test_geometricity_minors_is_a_list_in_row_pair_order():
    # the benchmark probes read each list of minors more than once, and
    # time ncmoduli.binary_form_gcd on it
    q = _random_tensor(Random(71))
    for j in range(4):
        minors = geometricity_minors(q, j)
        assert type(minors) is list and len(minors) == 6
        assert all(type(f) is tuple and len(f) == 3 for f in minors)
        assert all(type(c) is GaussianRational for f in minors for c in f)
        assert minors == _reference_minors(_nested(q), j)
        assert geometricity_minors(q, j) == minors
        gcd = ncmoduli.binary_form_gcd(ncmoduli.quintuple.geometricity_minors(q, j))
        assert gcd == _fold_gcd(minors) == ncmoduli.binary_form_gcd(minors)


def _remainder(a, b):
    """The remainder of descending coefficient lists a by b, leading zeros dropped."""
    while len(a) >= len(b):
        factor = a[0] / b[0]
        a = [x - factor * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
        while a and not a[0]:
            a = a[1:]
    return a


def _fold_gcd(forms):
    """The gcd of binary forms as a fold over every form, with no exit.

    Each nonzero form is u2^beta * g with g(u1, 1) of full degree; the
    g parts go through Euclid's algorithm and the least beta is restored.
    """
    beta, g = None, []
    for form in forms:
        coeffs = list(form)
        if not any(coeffs):
            continue
        k = next(k for k, c in enumerate(coeffs) if c)
        beta = k if beta is None else min(beta, k)
        a, b = g, coeffs[k:]
        while b:
            a, b = b, _remainder(a, b)
        g = [c / a[0] for c in a]
    if beta is None:
        return (0,)
    return (0,) * beta + tuple(g)


def _degenerate_in_slot(rng, j):
    """A random tensor whose slot-j contraction at u = (1, 0) has rank one,
    so slot j has a base point."""
    w = _nested(_random_tensor(rng))
    col = (j + 1) % 4
    others = [s for s in range(4) if s not in (j, col)]
    r = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
    c = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
    for index in product(range(2), repeat=4):
        if index[j] == 0:
            i0, i1, i2, i3 = index
            w[i0][i1][i2][i3] = GaussianRational(r[2 * index[others[0]] + index[others[1]]] * c[index[col]])
    return Quintuple(w)


def _seeded_tensors(rng, count):
    """Rational, Gaussian, rank-one, rank-two, pure and one-degenerate-slot tensors, in turn."""

    def gauss():
        return GaussianRational(rng.randint(-3, 3), rng.choice((0, 0, 1, -2)))

    def flattening(m):
        return [[[[m[2 * i + j][2 * k + l] for l in range(2)] for k in range(2)] for j in range(2)] for i in range(2)]

    def rank_one():
        u, v = [gauss() for _ in range(4)], [gauss() for _ in range(4)]
        return [[x * y for y in v] for x in u]

    out = []
    while len(out) < count:
        kind = len(out) % 6
        if kind == 0:
            q = _random_tensor(rng)
        elif kind == 1:
            q = Quintuple(flattening([[gauss() for _ in range(4)] for _ in range(4)]))
        elif kind == 2:
            q = Quintuple(flattening(rank_one()))
        elif kind == 3:
            q = Quintuple(flattening([[x + y for x, y in zip(r, s)] for r, s in zip(rank_one(), rank_one())]))
        elif kind == 4:
            a, b, c, d = ([gauss() for _ in range(2)] for _ in range(4))
            q = Quintuple([[[[a[i] * b[j] * c[k] * d[l] for l in range(2)] for k in range(2)] for j in range(2)] for i in range(2)])
        else:
            q = _degenerate_in_slot(rng, rng.randrange(4))
        if not q.is_zero():
            out.append(q)
    return out


def test_gcd_exit_matches_a_fold_without_exit():
    verdicts = {}
    for q in _seeded_tensors(Random(73), 300):
        expected = (True, None)
        for j in range(4):
            minors = geometricity_minors(q, j)
            gcd = _fold_gcd(minors)
            assert binary_form_gcd(minors) == gcd, (q, j)
            assert binary_form_gcd(iter(minors)) == gcd, (q, j)
            if expected[0] and (len(gcd) > 1 or not gcd[0]):
                expected = (False, j)
        assert is_geometric(q) == expected, q
        verdicts[expected] = verdicts.get(expected, 0) + 1
    assert set(verdicts) == {(True, None), (False, 0), (False, 1), (False, 2), (False, 3)}, verdicts
    assert verdicts[(True, None)] >= 50, verdicts


def test_a_geometric_tensor_builds_fewer_minors(monkeypatch):
    # the minors are built as the gcd reads them, so count the reads
    built = []
    gcd = quintuple.binary_form_gcd

    def counting_gcd(forms):
        def read():
            for form in forms:
                built.append(form)
                yield form

        return gcd(read())

    monkeypatch.setattr(quintuple, "binary_form_gcd", counting_gcd)
    for q in (linear_reference_quintuple(), _random_tensor(Random(79))):
        before = len(built)
        assert is_geometric(q) == (True, None)
        assert len(built) - before < 24, len(built) - before
