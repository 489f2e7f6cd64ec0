"""Scalar, matrix, and binary-form arithmetic against independent oracles."""

from fractions import Fraction
from itertools import permutations
from math import gcd
from random import Random

import pytest

from ncmoduli.errors import SchemaError
from ncmoduli.exact import (
    BinaryForm,
    ExactMatrix,
    GaussianRational,
    PrimeFieldElement,
    binary_form_gcd,
    fraction_str,
    is_prime,
    rational_from_json,
    scalar_from_json,
    scalar_to_json,
)


def _rand_gaussian(rng, span=9, maxden=7):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, maxden)),
        Fraction(rng.randint(-span, span), rng.randint(1, maxden)),
    )


def _to_sympy(g):
    sympy = pytest.importorskip("sympy")
    return sympy.Rational(g.re) + sympy.Rational(g.im) * sympy.I


def test_is_prime_small_values():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_gaussian_field_axioms():
    rng = Random(101)
    for _ in range(150):
        a, b, c = (_rand_gaussian(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if not a.is_zero():
            assert a * a.inverse() == 1
            assert (a * b) / a == b


def test_gaussian_conjugation_and_norm():
    rng = Random(102)
    for _ in range(50):
        a, b = _rand_gaussian(rng), _rand_gaussian(rng)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.norm() == (a * a.conjugate()).re
        assert a.norm() >= 0


def test_gaussian_powers():
    i = GaussianRational.i()
    assert i ** 2 == -1
    assert i ** 4 == 1
    assert i ** -1 == -i
    x = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()
    assert x ** 0 == 1


def test_gaussian_int_fraction_mixing():
    x = GaussianRational(1, 2)
    assert x + 1 == GaussianRational(2, 2)
    assert 2 * x == GaussianRational(2, 4)
    assert x - Fraction(1, 2) == GaussianRational(Fraction(1, 2), 2)
    assert x == x + 0
    assert GaussianRational(3) == 3
    assert GaussianRational(3) == Fraction(3)
    assert hash(GaussianRational(3)) == hash(3)


# -- reference Q(i): a plain (re, im) pair of Fractions ------------------


def _ref(x):
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _ref_pow(x, k):
    if k < 0:
        x, k = _ref_inverse(x), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _ref_mul(out, x)
    return out


def _assert_matches(g, ref):
    """g has the reference value and a canonical (a, b, d) triple."""
    assert isinstance(g, GaussianRational)
    assert (g.re, g.im) == ref
    a, b, d = g._a, g._b, g._d
    assert d > 0 and gcd(a, b, d) == 1
    rebuilt = GaussianRational(*ref)
    assert (rebuilt._a, rebuilt._b, rebuilt._d) == (a, b, d)


def _rand_operand(rng):
    """A Gaussian rational, an int or a Fraction, of mixed heights."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-20, 20)
    if kind == 1:
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    if kind == 2:
        return GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
    if kind == 3:
        return _rand_gaussian(rng, span=10 ** 6, maxden=10 ** 3)
    return _rand_gaussian(rng)


def test_gaussian_matches_fraction_pair_reference():
    rng = Random(108)
    for _ in range(400):
        x = _rand_gaussian(rng) if rng.random() < 0.5 else _rand_operand(rng)
        if not isinstance(x, GaussianRational):
            x = GaussianRational(x)
        y = _rand_operand(rng)
        rx, ry = _ref(x), _ref(y)
        _assert_matches(x + y, (rx[0] + ry[0], rx[1] + ry[1]))
        _assert_matches(y + x, (rx[0] + ry[0], rx[1] + ry[1]))
        _assert_matches(x - y, (rx[0] - ry[0], rx[1] - ry[1]))
        _assert_matches(y - x, (ry[0] - rx[0], ry[1] - rx[1]))
        _assert_matches(x * y, _ref_mul(rx, ry))
        _assert_matches(y * x, _ref_mul(rx, ry))
        _assert_matches(-x, (-rx[0], -rx[1]))
        _assert_matches(x.conjugate(), (rx[0], -rx[1]))
        assert x.norm() == rx[0] * rx[0] + rx[1] * rx[1]
        assert isinstance(x.norm(), Fraction)
        if any(ry):
            _assert_matches(x / y, _ref_mul(rx, _ref_inverse(ry)))
        if any(rx):
            _assert_matches(y / x, _ref_mul(ry, _ref_inverse(rx)))
            _assert_matches(x.inverse(), _ref_inverse(rx))
        for k in range(-3 if any(rx) else 0, 5):
            _assert_matches(x ** k, _ref_pow(rx, k))


def test_gaussian_zero_division():
    zero = GaussianRational(0)
    for bad in (lambda: zero.inverse(), lambda: 1 / zero, lambda: GaussianRational(1, 1) / 0,
                lambda: zero ** -1):
        with pytest.raises(ZeroDivisionError):
            bad()
    assert zero ** 0 == 1


def test_gaussian_equality_and_hash_against_int_and_fraction():
    rng = Random(109)
    for _ in range(200):
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        g = GaussianRational(q)
        assert g == q and q == g
        assert hash(g) == hash(q)
        assert g.is_rational() and g.as_fraction() == q
        if q.denominator == 1:
            n = int(q)
            assert g == n and n == g
            assert hash(g) == hash(n)
        # the same value reached by arithmetic stores the same triple
        h = (g + GaussianRational(0, 1)) - GaussianRational(0, 1)
        assert (h._a, h._b, h._d) == (g._a, g._b, g._d)
        assert hash(h) == hash(g)
        z = GaussianRational(q, rng.choice([-3, Fraction(1, 2), 7]))
        assert z != q and q != z and z != z.re
        assert hash(z) == hash((z.re, z.im))
    assert GaussianRational(Fraction(6, 4), Fraction(-2, 6)) == GaussianRational(
        Fraction(3, 2), Fraction(-1, 3)
    )
    assert GaussianRational(1) != 1.5 and GaussianRational(1) != "1"


def test_gaussian_parts_are_read_only():
    g = GaussianRational(Fraction(1, 2), 3)
    assert isinstance(g.re, Fraction) and isinstance(g.im, Fraction)
    with pytest.raises(AttributeError):
        g.re = Fraction(1)
    with pytest.raises(AttributeError):
        g.im = Fraction(1)


def test_scalar_json_roundtrip():
    rng = Random(103)
    for _ in range(50):
        g = _rand_gaussian(rng)
        assert scalar_from_json(scalar_to_json(g)) == g
    assert scalar_to_json(Fraction(3, 4)) == "3/4"
    assert scalar_to_json(-2) == "-2"
    assert scalar_to_json(GaussianRational(0, 1)) == {"re": "0", "im": "1"}
    assert fraction_str(Fraction(6, 4)) == "3/2"


def test_scalar_json_rejects_garbage():
    with pytest.raises(SchemaError):
        scalar_from_json("1/0")
    with pytest.raises(SchemaError):
        scalar_from_json("abc")
    with pytest.raises(SchemaError):
        scalar_from_json(3)
    with pytest.raises(SchemaError):
        scalar_from_json({"re": "1"})
    with pytest.raises(SchemaError):
        scalar_from_json({"re": "1", "im": "2", "extra": "3"})
    with pytest.raises(SchemaError):
        rational_from_json({"re": "1", "im": "2"})
    assert rational_from_json("5/3") == Fraction(5, 3)


def test_prime_field_arithmetic():
    for p in (2, 3, 5, 13):
        rng = Random(p)
        for _ in range(40):
            a = PrimeFieldElement(rng.randint(0, 3 * p), p)
            b = PrimeFieldElement(rng.randint(0, 3 * p), p)
            assert (a + b) - b == a
            assert a * b == b * a
            if b.value != 0:
                assert (a / b) * b == a
                assert b * b.inverse() == 1
        assert PrimeFieldElement(-1, p) == p - 1


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 4)
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 1)
    with pytest.raises(ValueError):
        PrimeFieldElement(2, 3) + PrimeFieldElement(2, 5)
    with pytest.raises(ZeroDivisionError):
        PrimeFieldElement(0, 5).inverse()


def _random_matrix(rng, n=4):
    return ExactMatrix([[_rand_gaussian(rng, span=4, maxden=3) for _ in range(n)] for _ in range(n)])


def _sympy_matrix(m):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[ _to_sympy(m[r, c]) for c in range(m.ncols)] for r in range(m.nrows)])


def test_matrix_rank_matches_sympy():
    pytest.importorskip("sympy")
    rng = Random(104)
    for _ in range(20):
        m = _random_matrix(rng)
        assert m.rank() == _sympy_matrix(m).rank()
    # engineered low rank: outer products
    for r in (1, 2, 3):
        left = ExactMatrix([[_rand_gaussian(rng, 3, 2) for _ in range(r)] for _ in range(4)])
        right = ExactMatrix([[_rand_gaussian(rng, 3, 2) for _ in range(4)] for _ in range(r)])
        m = left * right
        assert m.rank() == _sympy_matrix(m).rank() <= r
    # rectangular, full and deficient rank
    for nrows, ncols in ((3, 5), (5, 3)):
        for r in (1, 2, 3):
            left = ExactMatrix([[_rand_gaussian(rng, 3, 2) for _ in range(r)] for _ in range(nrows)])
            right = ExactMatrix([[_rand_gaussian(rng, 3, 2) for _ in range(ncols)] for _ in range(r)])
            m = left * right
            assert m.rank() == _sympy_matrix(m).rank() <= r
        m = ExactMatrix([[_rand_gaussian(rng) for _ in range(ncols)] for _ in range(nrows)])
        assert m.rank() == _sympy_matrix(m).rank()


def test_matrix_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = Random(105)
    for _ in range(20):
        m = _random_matrix(rng)
        assert _to_sympy(m.det()) == sympy.simplify(_sympy_matrix(m).det())
    # permutation matrices: the determinant is the sign of the permutation
    for perm in permutations(range(4)):
        m = ExactMatrix([[1 if c == perm[r] else 0 for c in range(4)] for r in range(4)])
        assert m.rank() == 4
        assert _to_sympy(m.det()) == _sympy_matrix(m).det() in (1, -1)
    # the first pivot lies below the first row
    m = ExactMatrix([[0, 2, 1], [3, 1, GaussianRational(0, 1)], [1, 1, 1]])
    assert _to_sympy(m.det()) == sympy.expand(_sympy_matrix(m).det())


def test_matrix_det_exact_on_awkward_denominators():
    sympy = pytest.importorskip("sympy")
    hilbert = ExactMatrix(
        [[Fraction(1, r + c + 1) for c in range(5)] for r in range(5)]
    )
    assert hilbert.rank() == 5
    expected = sympy.Matrix(5, 5, lambda r, c: sympy.Rational(1, r + c + 1)).det()
    assert _to_sympy(hilbert.det()) == expected


def test_matrix_nilpotency():
    pytest.importorskip("sympy")
    rng = Random(106)
    strict = ExactMatrix(
        [[1 if c > r else 0 for c in range(4)] for r in range(4)]
    )
    assert strict.is_nilpotent()
    for _ in range(10):
        g = _random_matrix(rng)
        while g.det().is_zero():
            g = _random_matrix(rng)
        conj = g * strict * _inverse(g)
        assert conj.is_nilpotent()
    assert not ExactMatrix.identity(4).is_nilpotent()
    assert ExactMatrix.zeros(3, 3).is_nilpotent()
    i = GaussianRational.i()
    assert ExactMatrix([[1, i], [i, -1]]).is_nilpotent()
    # trace zero, but tr(A^2) = -2
    assert not ExactMatrix([[0, i], [i, 0]]).is_nilpotent()
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2, 3], [4, 5, 6]]).is_nilpotent()


def test_power_traces_match_explicit_powers():
    rng = Random(110)
    for n in (1, 2, 3, 4, 5):
        m = _random_matrix(rng, n)
        for k in range(7):
            assert m.power_traces(k) == [(m ** j).trace() for j in range(1, k + 1)]
    wide = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        wide.power_traces(2)
    with pytest.raises(ValueError):
        wide ** 2


def _inverse(m):
    """Inverse via sympy, converted back; only used to build test fixtures."""
    sympy = pytest.importorskip("sympy")
    inv = _sympy_matrix(m).inv()
    rows = []
    for r in range(m.nrows):
        row = []
        for c in range(m.ncols):
            v = sympy.nsimplify(inv[r, c])
            re, im = v.as_real_imag()
            row.append(GaussianRational(Fraction(str(re)), Fraction(str(im))))
        rows.append(row)
    return ExactMatrix(rows)


def test_matrix_algebra_basics():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert a + b - b == a
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert a.trace() == 5
    assert (a ** 0) == ExactMatrix.identity(2)
    assert (a ** 3) == a * a * a
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])


def test_binary_form_gcd_coprime_and_shared():
    u1sq = BinaryForm([1, 0, 0])
    u2sq = BinaryForm([0, 0, 1])
    assert binary_form_gcd([u1sq, u2sq]) == BinaryForm([1])
    u1u2 = BinaryForm([0, 1, 0])
    assert binary_form_gcd([u1u2, u1sq]) == BinaryForm([1, 0])
    assert binary_form_gcd([u1u2, u2sq]) == BinaryForm([0, 1])


def test_binary_form_gcd_zero_handling():
    zero = BinaryForm([0, 0])
    f = BinaryForm([2, 3])
    assert binary_form_gcd([zero, zero]).is_zero()
    assert binary_form_gcd([zero, f]) == f.normalized()
    assert binary_form_gcd([f]) == f.normalized()


def test_binary_form_gcd_randomized_common_factor():
    rng = Random(107)
    for _ in range(30):
        common = BinaryForm([_rand_gaussian(rng, 3, 2) for _ in range(3)])
        while common.is_zero():
            common = BinaryForm([_rand_gaussian(rng, 3, 2) for _ in range(3)])
        f = common * BinaryForm([_rand_gaussian(rng, 3, 2) for _ in range(2)])
        g = common * BinaryForm([_rand_gaussian(rng, 3, 2) for _ in range(2)])
        got = binary_form_gcd([f, g])
        assert common.divides(got)
        assert got.divides(f) and got.divides(g)


def test_binary_form_normalization_and_eval():
    f = BinaryForm([0, Fraction(2), Fraction(4)])
    n = f.normalized()
    assert n == BinaryForm([0, 1, 2])
    assert f.evaluate(1, 1) == 6
    assert f.evaluate(Fraction(1, 2), 1) == 5
    g = BinaryForm([1, 0]) * BinaryForm([0, 1])
    assert g == BinaryForm([0, 1, 0])
