"""Exact arithmetic primitives.

Everything downstream (tensor invariants, curve transforms, point counts)
is decided by exact equality, so this module provides the scalar and
matrix types used throughout:

* ``GaussianRational``: elements (a + b*i)/d of Q(i), stored as a
  canonical triple of ints (d > 0, gcd(a, b, d) = 1), with one gcd per
  operation and none when a denominator is 1.
* ``PrimeFieldElement``: elements of F_p for a prime p.
* ``row_reduce``: the one elimination routine, Gaussian elimination on
  sparse rows over Q(i).  It gives ``ExactMatrix.rank`` and
  ``ExactMatrix.det`` and the ranks behind ``quiver.graded_dimension``.
* ``ExactMatrix``: dense matrices over Q(i) with exact rank/determinant,
  Kronecker products, power traces tr(A), ..., tr(A^k), and nilpotency
  decided by them.
* ``BinaryForm``: homogeneous forms in two variables over Q(i), with GCD.

Plain ``int`` and ``Fraction`` values coerce into ``GaussianRational``
wherever a scalar is expected, which keeps call sites readable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import SchemaError

ScalarLike = Union[int, Fraction, "GaussianRational"]


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (small moduli only)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    top = isqrt(n)
    while f <= top:
        if n % f == 0:
            return False
        f += 2
    return True


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as a canonical triple of ints.

    The triple has d > 0 and gcd(a, b, d) = 1, so equal values store
    identical triples and equality is a comparison of three ints.  The
    real and imaginary parts are exposed as read-only ``Fraction``
    properties ``re`` and ``im``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re = Fraction(re)
        im = Fraction(im)
        dr, di = re.denominator, im.denominator
        # over the lcm of two reduced denominators, gcd(a, b, d) is already 1
        d = dr if dr == di else dr * di // gcd(dr, di)
        self._a = re.numerator * (d // dr)
        self._b = im.numerator * (d // di)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def i() -> "GaussianRational":
        return _gauss(0, 1, 1)

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    # -- arithmetic ----------------------------------------------------
    # Each operation works on the triples and reduces at most once.

    def __add__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _sum(self._a, self._b, self._d, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        return _sum(self._a, self._b, self._d, -c, -e, f)

    def __rsub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _sum(*o, -self._a, -self._b, self._d)

    def __mul__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = o
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __neg__(self):
        return _gauss(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _gauss(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """The field norm a^2 + b^2, a non-negative rational."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _reduced(a * d, -b * d, n)

    def __truediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _quotient((self._a, self._b, self._d), o)

    def __rtruediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _quotient(o, (self._a, self._b, self._d))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        # raise the Gaussian integer numerator and the denominator
        # separately, then reduce once
        a, b, d = base._a, base._b, base._d
        x, y = 1, 0
        den = d ** exponent
        while exponent:
            if exponent & 1:
                x, y = x * a - y * b, x * b + y * a
            a, b = a * a - b * b, 2 * a * b
            exponent >>= 1
        return _reduced(x, y, den)

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                self._b == 0
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # agree with int and Fraction on real values; the int tuple hashes
        # like the tuple of equal Fractions when d = 1
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return hash(a) if d == 1 else hash(Fraction(a, d))
        if d == 1:
            return hash((a, b))
        return hash((Fraction(a, d), Fraction(b, d)))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_rational(self) -> bool:
        return self._b == 0

    def as_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError(f"{self!r} has a nonzero imaginary part")
        return Fraction(self._a, self._d)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re} {sign} {abs(im)}*i)"


_new_object = object.__new__


def _gauss(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple that is already canonical (d > 0, gcd(a, b, d) = 1)."""
    g = _new_object(GaussianRational)
    g._a = a
    g._b = b
    g._d = d
    return g


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """Wrap (a + b*i)/d for any d > 0, dividing out gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _gauss(a, b, d)


def _triple(value):
    """The canonical triple of a scalar operand, or None for other types."""
    if isinstance(value, GaussianRational):
        return value._a, value._b, value._d
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return None


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """(a + b*i)/d + (c + e*i)/f for canonical triples.

    When one denominator is 1 no gcd is needed: gcd(a + c*d, b + e*d, d)
    equals gcd(a, b, d), which is 1.
    """
    if d == f:
        if d == 1:
            return _gauss(a + c, b + e, 1)
        return _reduced(a + c, b + e, d)
    if f == 1:
        return _gauss(a + c * d, b + e * d, d)
    if d == 1:
        return _gauss(a * f + c, b * f + e, f)
    return _reduced(a * f + c * d, b * f + e * d, d * f)


def _sum_of(values: Iterable[GaussianRational]) -> GaussianRational:
    total = _ZERO
    for v in values:
        total = total + v
    return total


def _dot(xs: Sequence[GaussianRational], ys: Sequence[GaussianRational]) -> GaussianRational:
    """The sum of x*y over paired entries."""
    return _sum_of(x * y for x, y in zip(xs, ys))


def _quotient(num, den) -> GaussianRational:
    """(a + b*i)/d divided by (c + e*i)/f, as one reduction."""
    a, b, d = num
    c, e, f = den
    n = c * c + e * e
    if n == 0:
        raise ZeroDivisionError("inverse of zero in Q(i)")
    return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * n)


GAUSSIAN_I = GaussianRational.i()
_ZERO = GaussianRational(0)


# -- JSON scalar encoding ---------------------------------------------

def fraction_str(value: Union[int, Fraction]) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def scalar_to_json(value: ScalarLike):
    """Encode a scalar for JSON: rationals as "p/q" strings, Q(i) as re/im pairs."""
    g = GaussianRational.coerce(value)
    if g.is_rational():
        return fraction_str(g.re)
    return {"re": fraction_str(g.re), "im": fraction_str(g.im)}


def _fraction_from_json(doc) -> Fraction:
    if isinstance(doc, bool) or not isinstance(doc, str):
        raise SchemaError(f"expected a rational encoded as a string, got {doc!r}")
    try:
        return Fraction(doc)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {doc!r}") from exc


def scalar_from_json(doc) -> GaussianRational:
    """Decode a scalar from JSON, accepting "p/q" or {"re": ..., "im": ...}."""
    if isinstance(doc, dict):
        if set(doc) != {"re", "im"}:
            raise SchemaError(f"Gaussian scalar must have exactly re/im keys, got {sorted(doc)}")
        return GaussianRational(_fraction_from_json(doc["re"]), _fraction_from_json(doc["im"]))
    return GaussianRational(_fraction_from_json(doc))


def rational_from_json(doc) -> Fraction:
    """Decode a scalar that must be a plain rational."""
    value = scalar_from_json(doc)
    if value.im != 0:
        raise SchemaError(f"expected a rational, got the imaginary value {doc!r}")
    return value.re


# -- prime fields -----------------------------------------------------

class PrimeFieldElement:
    """An element of F_p; the modulus must be prime so inversion is total."""

    __slots__ = ("p", "value")

    def __init__(self, value: int, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.value = value % p

    def _other(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def inverse(self) -> "PrimeFieldElement":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        # Fermat: v^(p-2) is the inverse for prime p.
        return PrimeFieldElement(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return PrimeFieldElement(pow(self.value, exponent, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


# -- matrices over Q(i) -----------------------------------------------

def row_reduce(rows: Iterable[Mapping[int, GaussianRational]]) -> List[Tuple[int, GaussianRational]]:
    """Gaussian elimination over Q(i) on sparse rows, one row at a time.

    Each row maps a column index to a nonzero entry.  A row is reduced
    against the pivot rows found so far until its leading column is new,
    when it becomes a pivot row, or until it vanishes.  Returns
    (leading column, pivot entry) for each row that became a pivot row,
    in input order; their number is the rank.
    """
    # leading column -> the rest of its pivot row, scaled by -1/pivot
    tails: Dict[int, List[Tuple[int, GaussianRational]]] = {}
    out = []
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            factor = row.pop(lead)
            tail = tails.get(lead)
            if tail is None:
                scale = -factor.inverse()
                tails[lead] = [(c, v * scale) for c, v in row.items()]
                out.append((lead, factor))
                break
            for c, v in tail:
                if c in row:
                    acc = row[c] + factor * v
                    if acc:
                        row[c] = acc
                    else:
                        del row[c]
                else:
                    row[c] = factor * v
    return out


class ExactMatrix:
    """A dense matrix over Q(i) supporting exact rank, determinant and powers."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[ScalarLike]]):
        coerced = tuple(
            tuple(GaussianRational.coerce(entry) for entry in row) for row in rows
        )
        if not coerced or not coerced[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(coerced[0])
        if any(len(row) != width for row in coerced):
            raise ValueError("ragged rows")
        self.rows = coerced

    @classmethod
    def _wrap(cls, rows) -> "ExactMatrix":
        """A matrix on a rectangular tuple of tuples of GaussianRational, unchecked."""
        m = _new_object(cls)
        m.rows = rows
        return m

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if r == c else 0 for c in range(n)] for r in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.rows)
        return f"ExactMatrix[{body}]"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.rows)))

    def trace(self) -> GaussianRational:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return _sum_of(self.rows[k][k] for k in range(self.nrows))

    def scale(self, factor: ScalarLike) -> "ExactMatrix":
        c = GaussianRational.coerce(factor)
        return ExactMatrix([[c * e for e in row] for row in self.rows])

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        cols = tuple(zip(*other.rows))
        return ExactMatrix._wrap(
            tuple(tuple(_dot(row, col) for col in cols) for row in self.rows)
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """The Kronecker product: row (i, j), column (k, l) holds self[i, k] * other[j, l]."""
        return ExactMatrix._wrap(
            tuple(
                tuple(a * b for a in ra for b in rb)
                for ra in self.rows
                for rb in other.rows
            )
        )

    def __pow__(self, exponent: int) -> "ExactMatrix":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("matrix powers need a non-negative integer exponent")
        if self.nrows != self.ncols:
            raise ValueError("powers of a non-square matrix")
        out = ExactMatrix.identity(self.nrows)
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def _sparse_rows(self):
        return [{c: v for c, v in enumerate(row) if v} for row in self.rows]

    def rank(self) -> int:
        return len(row_reduce(self._sparse_rows()))

    def det(self) -> GaussianRational:
        """The product of the pivots, signed by the order of their columns.

        Each reduced row differs from its input row by multiples of earlier
        rows, so the determinant is unchanged; sorted by leading column the
        reduced rows are upper triangular.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        pivots = row_reduce(self._sparse_rows())
        if len(pivots) < n:
            return _ZERO
        cols = [col for col, _ in pivots]
        odd = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:]) & 1
        product = pivots[0][1]
        for _, pivot in pivots[1:]:
            product = product * pivot
        return -product if odd else product

    def power_traces(self, k: int) -> list:
        """[tr(A), tr(A^2), ..., tr(A^k)] for this square matrix A.

        Only the powers up to A^h, h = ceil(k/2), are formed; each higher
        trace is tr(A^(j-h) A^h), which costs n^2 products instead of n^3.
        """
        if self.nrows != self.ncols:
            raise ValueError("power traces of a non-square matrix")
        half = (k + 1) // 2
        powers = [self]
        while len(powers) < half:
            powers.append(powers[-1] * self)
        traces = [p.trace() for p in powers[:k]]
        top = powers[-1].rows
        for j in range(half + 1, k + 1):
            low = powers[j - half - 1].rows
            traces.append(_sum_of(_dot(row, col) for row, col in zip(low, zip(*top))))
        return traces

    def is_nilpotent(self) -> bool:
        """Over Q(i) (characteristic 0), A is nilpotent iff tr(A^j) = 0 for j = 1..n.

        The traces are the power sums of the eigenvalues; by Newton's
        identities they all vanish exactly when the characteristic
        polynomial is x^n.
        """
        if self.nrows != self.ncols:
            raise ValueError("nilpotency of a non-square matrix")
        return all(t.is_zero() for t in self.power_traces(self.nrows))

    def to_json(self):
        return [[scalar_to_json(e) for e in row] for row in self.rows]


# -- binary forms -----------------------------------------------------

class BinaryForm:
    """A homogeneous form in two variables u1, u2 over Q(i).

    ``coeffs[k]`` multiplies ``u1^(d-k) * u2^k`` where d is the degree,
    so the list reads off powers of u1 in descending order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[ScalarLike]):
        if not coeffs:
            raise ValueError("a binary form needs at least one coefficient")
        self.coeffs = tuple(GaussianRational.coerce(c) for c in coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def evaluate(self, u1: ScalarLike, u2: ScalarLike) -> GaussianRational:
        a = GaussianRational.coerce(u1)
        b = GaussianRational.coerce(u2)
        d = self.degree
        total = GaussianRational(0)
        for k, c in enumerate(self.coeffs):
            total = total + c * a ** (d - k) * b ** k
        return total

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            return BinaryForm([c * x for x in self.coeffs])
        if not isinstance(other, BinaryForm):
            return NotImplemented
        out = [GaussianRational(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return BinaryForm(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"BinaryForm{list(self.coeffs)!r}"

    def normalized(self) -> "BinaryForm":
        """Rescale so the first nonzero coefficient is 1 (zero stays zero)."""
        for c in self.coeffs:
            if not c.is_zero():
                inv = c.inverse()
                return BinaryForm([inv * x for x in self.coeffs])
        return self

    def _split(self):
        """Write the form as u2^beta * g with g(u1, 1) a polynomial of full degree.

        Returns (beta, descending coefficient list of g); the zero form
        returns (None, []).
        """
        beta = None
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                beta = k
                break
        if beta is None:
            return None, []
        return beta, list(self.coeffs[beta:])

    def divides(self, other: "BinaryForm") -> bool:
        if self.is_zero():
            return other.is_zero()
        if other.is_zero():
            return True
        beta_s, poly_s = self._split()
        beta_o, poly_o = other._split()
        if beta_s > beta_o:
            return False
        _, rem = _poly_divmod(poly_o, poly_s)
        return not rem


def _poly_trim(coeffs):
    """Drop leading zeros from a descending coefficient list."""
    k = 0
    while k < len(coeffs) and coeffs[k].is_zero():
        k += 1
    return coeffs[k:]


def _poly_divmod(num, den):
    """Long division of descending coefficient lists over Q(i)."""
    den = _poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _poly_trim(list(num))
    if len(rem) < len(den):
        return [], rem
    quot = [GaussianRational(0)] * (len(rem) - len(den) + 1)
    lead_inv = den[0].inverse()
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = rem[0] * lead_inv
        quot[len(quot) - 1 - shift] = factor
        for k in range(len(den)):
            rem[k] = rem[k] - factor * den[k]
        rem = _poly_trim(rem[1:]) if rem[0].is_zero() else _poly_trim(rem)
    return quot, rem


def _poly_gcd(a, b):
    """Monic GCD of two descending coefficient lists over Q(i)."""
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    inv = a[0].inverse()
    return [inv * c for c in a]


def binary_form_gcd(forms: Iterable[BinaryForm]) -> BinaryForm:
    """Greatest common divisor of binary forms, normalized to leading coefficient 1.

    Powers of u2 shared by all inputs are part of the answer: each form is
    split as u2^beta * g, the dehomogenized g parts are run through the
    Euclidean algorithm, and the minimum beta is restored at the end.
    If every input is zero the zero form is returned.
    """
    min_beta = None
    poly_gcd: list = []
    for form in forms:
        beta, poly = form._split()
        if beta is None:
            continue
        min_beta = beta if min_beta is None else min(min_beta, beta)
        poly_gcd = _poly_gcd(poly_gcd, poly) if poly_gcd else _poly_gcd(poly, [])
    if min_beta is None:
        return BinaryForm([0])
    coeffs = [GaussianRational(0)] * min_beta + (poly_gcd or [GaussianRational(1)])
    return BinaryForm(coeffs).normalized()
