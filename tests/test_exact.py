"""Scalar, matrix, and binary-form arithmetic against independent oracles."""

import operator
from fractions import Fraction
from itertools import permutations
from math import gcd
from random import Random

import pytest

from ncmoduli.errors import SchemaError
from ncmoduli.exact import (
    GAUSSIAN_I,
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
from ncmoduli.exact import _Poly
from ncmoduli.quintuple import J_MATRIX


def _rand_gaussian(rng, span=9, maxden=7):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, maxden)),
        Fraction(rng.randint(-span, span), rng.randint(1, maxden)),
    )


def _conjugate(g):
    return GaussianRational(g.re, -g.im)


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
        assert _conjugate(a * b) == _conjugate(a) * _conjugate(b)
        norm = a * _conjugate(a)
        assert norm == a.re * a.re + a.im * a.im
        assert norm.re >= 0


def test_gaussian_powers():
    i = GAUSSIAN_I
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
    # exponent notation is refused; the other literal forms stay accepted
    for literal in ("1e5", "2.5E-3"):
        with pytest.raises(SchemaError, match="bad rational literal"):
            scalar_from_json(literal)
    for literal in ("0.25", " -3/4 ", "1_000", "-.5", "+7"):
        assert rational_from_json(literal) == Fraction(literal)


def test_prime_field_arithmetic():
    """The constructor reduces mod p, and an element equals only an element of the same value and modulus."""
    for p in (2, 3, 5, 13):
        rng = Random(p)
        for _ in range(40):
            v = rng.randint(-3 * p, 3 * p)
            a = PrimeFieldElement(v, p)
            assert a.value == v % p and a.p == p
            assert a == PrimeFieldElement(v + p, p) and a != PrimeFieldElement(v + 1, p)
            # a record, not a number: its value is the int to compare
            assert a != a.value and a != PrimeFieldElement(v, 17)
        assert PrimeFieldElement(-1, p).value == p - 1


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 4)
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 1)


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
    # a zero in the corner where the expansion starts
    m = ExactMatrix([[0, 2, 1], [3, 1, GaussianRational(0, 1)], [1, 1, 1]])
    assert _to_sympy(m.det()) == sympy.expand(_sympy_matrix(m).det())
    # 1x1: the entry itself, zero included
    assert ExactMatrix([[GaussianRational(Fraction(-2, 3), 5)]]).det() == GaussianRational(Fraction(-2, 3), 5)
    assert ExactMatrix([[0]]).det() == 0
    # 2x2 over Q(i): (1 + i)(1 - i) - (2i)(i/2) = 2 + 1
    i = GAUSSIAN_I
    assert ExactMatrix([[1 + i, 2 * i], [i / 2, 1 - i]]).det() == 3
    # a zero column leaves no full minor
    m = _random_matrix(rng)
    m = ExactMatrix([[0 if c == 2 else v for c, v in enumerate(row)] for row in m.rows])
    assert m.det() == 0 == _sympy_matrix(m).det()
    # 6x6, past the sizes the library uses
    m = _random_matrix(rng, n=6)
    assert _to_sympy(m.det()) == sympy.expand(_sympy_matrix(m).det())
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2, 3], [4, 5, 6]]).det()


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
    assert ExactMatrix([[0] * 3] * 3).is_nilpotent()
    i = GAUSSIAN_I
    assert ExactMatrix([[1, i], [i, -1]]).is_nilpotent()
    # trace zero, but tr(A^2) = -2
    assert not ExactMatrix([[0, i], [i, 0]]).is_nilpotent()
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2, 3], [4, 5, 6]]).is_nilpotent()


def test_power_traces_match_explicit_powers():
    rng = Random(110)
    for n in (1, 2, 3, 4, 5):
        m = _random_matrix(rng, n)
        traces, power = [], m
        for _ in range(6):
            traces.append(power.trace())
            power = power * m
        for k in range(7):
            assert m.power_traces(k) == traces[:k]
    wide = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        wide.power_traces(2)


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
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert a.trace() == 5
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])


def _dense_product(a, b):
    """The product by its definition: entry (i, j) sums a[i, k] * b[k, j] over every k."""
    return [
        [sum((a[i, k] * b[k, j] for k in range(a.ncols)), GaussianRational(0)) for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


def test_products_match_the_dense_definition():
    rng = Random(111)
    zero = GaussianRational(0)
    for _ in range(20):
        a, b = _random_matrix(rng), _random_matrix(rng)
        with_zero_row = ExactMatrix([row if r != 1 else [zero] * 4 for r, row in enumerate(a.rows)])
        with_zero_col = ExactMatrix([[zero if c == 2 else v for c, v in enumerate(row)] for row in b.rows])
        sparse = ExactMatrix([[v if rng.randrange(3) == 0 else zero for v in row] for row in a.rows])
        zeros = ExactMatrix([[0] * 4 for _ in range(4)])
        for x, y in [
            (a, b), (with_zero_row, b), (a, with_zero_col), (with_zero_col, with_zero_row),
            (sparse, a), (a, sparse), (zeros, a), (a, zeros), (a, J_MATRIX), (J_MATRIX, a),
        ]:
            assert (x * y).rows == tuple(map(tuple, _dense_product(x, y)))
    wide, tall = ExactMatrix([[1, 0, 2]]), ExactMatrix([[0], [3], [0]])
    assert (wide * tall).rows == ((0,),) and (tall * wide).rows == ((0, 0, 0), (3, 0, 6), (0, 0, 0))
    # polynomial entries, as the symbolic covering proof multiplies them
    x = _Poly.variables(16)
    m = ExactMatrix._wrap(tuple(tuple(x[4 * r + c] for c in range(4)) for r in range(4)))
    for other in (J_MATRIX, m, zeros):
        assert (m * other).rows == tuple(map(tuple, _dense_product(m, other)))


class _Counted:
    """A scalar that counts, in its shared ``tally``, the multiplications it takes part in."""

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def __mul__(self, other):
        self.tally[0] += 1
        return _Counted(self.value * getattr(other, "value", other), self.tally)

    __rmul__ = __mul__

    def __add__(self, other):
        return _Counted(self.value + getattr(other, "value", other), self.tally)

    __radd__ = __add__

    def __bool__(self):
        return bool(self.value)


def test_a_product_skips_the_zero_entries_of_its_right_factor():
    rng = Random(112)
    a, b = _random_matrix(rng), _random_matrix(rng)
    assert all(map(all, a.rows + b.rows))
    tally = [0]
    counted_a, counted_b = (
        ExactMatrix._wrap(tuple(tuple(_Counted(v, tally) for v in row) for row in m.rows)) for m in (a, b)
    )
    # J is a signed permutation: one nonzero entry in each of its four columns
    product = counted_a * J_MATRIX
    assert tally == [16]
    assert [[v.value for v in row] for row in product.rows] == _dense_product(a, J_MATRIX)
    tally[0] = 0
    product = counted_a * counted_b
    assert tally == [64]
    assert [[v.value for v in row] for row in product.rows] == _dense_product(a, b)


def test_poly_takes_only_polynomials_and_scalars():
    (x,) = _Poly.variables(1)
    zero = _Poly({})
    # a scalar stands on either side and equals a constant polynomial
    assert x + 1 - 1 == x and 1 - x == -(x - 1) and 2 * x == x * 2 == x + x
    assert zero == 0 and _Poly({0: GAUSSIAN_I}) == GAUSSIAN_I and x * Fraction(1, 2) == x / 2
    # any other operand is refused
    for other in (None, [], "1", 0.5, ExactMatrix.identity(1)):
        assert zero != other and not zero == other
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)


def _form_mul(f, g):
    """The product of two binary forms given as descending coefficient tuples."""
    out = [GaussianRational(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def _evaluate(form, u1, u2):
    d = len(form) - 1
    return sum((c * u1 ** (d - k) * u2 ** k for k, c in enumerate(form)), GaussianRational(0))


def _divides(f, g):
    """Whether the binary form f divides g, from the u2^beta split and long division.

    A nonzero form is u2^beta times a form whose u1 part has full degree;
    f divides g when its beta is at most g's and its u1 part divides g's.
    """
    bf = next((k for k, c in enumerate(f) if c), None)
    bg = next((k for k, c in enumerate(g) if c), None)
    if bf is None or bg is None:
        return bg is None
    if bf > bg:
        return False
    den, rem = list(f[bf:]), list(g[bg:])
    while rem and len(rem) >= len(den):
        factor = rem[0] / den[0]
        rem = [x - factor * y for x, y in zip(rem, den + [0] * (len(rem) - len(den)))][1:]
        while rem and not rem[0]:
            rem = rem[1:]
    return not rem


def _is_monic(form):
    return next(c for c in form if c) == 1


def test_binary_form_gcd_coprime_and_shared():
    u1sq, u2sq, u1u2 = (1, 0, 0), (0, 0, 1), (0, 1, 0)
    assert binary_form_gcd([u1sq, u2sq]) == (1,)
    assert binary_form_gcd([u1u2, u1sq]) == (1, 0)
    assert binary_form_gcd([u1u2, u2sq]) == (0, 1)
    # coprime u1 parts leave the shared u2, until a form without u2 comes
    u2_u1_plus_u2 = (0, 1, 1)
    assert binary_form_gcd([u1u2, u2_u1_plus_u2]) == (0, 1)
    assert binary_form_gcd([u1u2, u2_u1_plus_u2, u1sq]) == (1,)


def test_binary_form_gcd_stops_at_the_deciding_form():
    def forms(*deciding):
        yield from deciding
        raise AssertionError("read a form after the gcd was decided")

    u1sq, u2sq, u1u2 = (1, 0, 0), (0, 0, 1), (0, 1, 0)
    zero = (0, 0, 0)
    assert binary_form_gcd(forms(u1sq, u2sq)) == (1,)
    assert binary_form_gcd(forms(zero, (3,))) == (1,)
    # a constant u1 part with every beta > 0 leaves a power of u2 to share,
    # so the fold reads on until a form without u2 comes
    assert binary_form_gcd(forms(u1u2, u2sq, u1sq)) == (1,)
    assert binary_form_gcd(iter([u1u2, u2sq])) == (0, 1)


def test_binary_form_gcd_zero_handling():
    zero = (0, 0)
    f = (2, 3)
    assert binary_form_gcd([zero, zero]) == (0,)
    assert binary_form_gcd([]) == (0,)
    assert binary_form_gcd([zero, f]) == (1, Fraction(3, 2))
    assert binary_form_gcd([f]) == (1, Fraction(3, 2))
    assert binary_form_gcd([(3,), zero]) == (1,)


def test_binary_form_gcd_randomized_common_factor():
    rng = Random(107)
    for _ in range(30):
        common = tuple(_rand_gaussian(rng, 3, 2) for _ in range(3))
        while not any(common):
            common = tuple(_rand_gaussian(rng, 3, 2) for _ in range(3))
        f = _form_mul(common, [_rand_gaussian(rng, 3, 2) for _ in range(2)])
        g = _form_mul(common, [_rand_gaussian(rng, 3, 2) for _ in range(2)])
        got = binary_form_gcd([f, g])
        assert type(got) is tuple and _is_monic(got)
        assert _divides(common, got)
        assert _divides(got, f) and _divides(got, g)


def test_binary_form_normalization_and_eval():
    # the gcd of one form is that form made monic, with the same zeros
    f = (0, Fraction(2), Fraction(4))
    n = binary_form_gcd([f])
    assert n == (0, 1, 2) and _is_monic(n)
    assert _evaluate(f, 1, 1) == 6
    assert _evaluate(f, Fraction(1, 2), 1) == 5
    for u1, u2 in ((-2, 1), (1, 0)):
        assert _evaluate(n, u1, u2) == 0 and _evaluate(f, u1, u2) == 0
    assert _form_mul((1, 0), (0, 1)) == (0, 1, 0)


def test_binary_form_gcd_takes_coefficient_tuples():
    g = GaussianRational
    assert binary_form_gcd([(0, 1, 0), (0, 0, 1)]) == (0, 1)
    mixed = [(Fraction(1, 2), g(0, 1), 0), (g(2), Fraction(0), 0), (0, 1, 0)]
    got = binary_form_gcd(mixed)
    assert got == (1, 0)
    assert type(got) is tuple and all(type(c) is GaussianRational for c in got)
    # forms of different degrees: u1 * (u1 + i u2) and u1
    assert binary_form_gcd([(1, g(0, 1), 0), [1, 0]]) == (1, 0)
    assert binary_form_gcd([(1, g(0, 1), 0), (1, g(0, 1), 0)]) == (1, g(0, 1), 0)


@pytest.mark.parametrize("bad", [0.5, "1/3", None])
def test_binary_form_gcd_refuses_coefficients_that_are_not_rational(bad):
    with pytest.raises(TypeError):
        binary_form_gcd([(1, bad, 0)])
    with pytest.raises(TypeError):
        binary_form_gcd([(0, 0, 0), (bad,)])
