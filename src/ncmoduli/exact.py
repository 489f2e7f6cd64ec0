"""Exact arithmetic primitives.

Everything downstream (tensor invariants, curve transforms, point counts)
is decided by exact equality, so this module provides the scalar and
matrix types used throughout:

* ``GaussianRational``: elements (a + b*i)/d of Q(i), stored as a
  canonical triple of ints (d > 0, gcd(a, b, d) = 1), with one gcd per
  operation and none when a denominator is 1.
* ``PrimeFieldElement``: the scalars of a framed representation over
  F_p, for a prime p, with no arithmetic of their own.
* ``row_reduce``: the one elimination routine, Gaussian elimination on
  sparse rows over Q(i).  It gives ``ExactMatrix.rank`` and the ranks
  behind ``quiver.graded_dimension``.
* ``ExactMatrix``: dense matrices over Q(i) with exact rank, Kronecker
  products, power traces, nilpotency decided by them, products that skip
  the zero entries of their right factor, and a determinant that never
  divides; the covering proof runs products and determinant on ``_Poly``
  entries.
* ``binary_form_gcd``: the gcd of binary forms given as coefficient tuples.
  Its long division of descending coefficient lists also runs the Sturm
  chains and the square-free factors of ``potential.reconstruct_spectrum``.
* ``_Poly``: sparse polynomials over Q(i), for the symbolic proofs and
  the cubic fit of the point counts.
* ``_Record``: the read-only base of every class with public fields.

Plain ``int`` and ``Fraction`` values coerce into ``GaussianRational``
wherever a scalar is expected, which keeps call sites readable; a float or
a string raises ``TypeError``.  No value here converts to a float.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt
from operator import attrgetter, index
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import DomainError, SchemaError

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


def _rational(value: Union[int, Fraction]) -> Fraction:
    """``value`` as a ``Fraction``: an int or a ``Fraction``, never a float or a string."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


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
        re = _rational(re)
        im = _rational(im)
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
    def coerce(value: ScalarLike) -> "GaussianRational":
        return value if isinstance(value, GaussianRational) else GaussianRational(value)

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


def _over_power(num: GaussianRational, den: GaussianRational, k: int) -> GaussianRational:
    """num / den**k for k = 1 or 2, as one reduction: den**2 stays an unreduced triple."""
    c, e, f = den._a, den._b, den._d
    if k == 2:
        c, e, f = c * c - e * e, 2 * c * e, f * f
    return _quotient((num._a, num._b, num._d), (c, e, f))


GAUSSIAN_I = _gauss(0, 1, 1)
_ZERO = GaussianRational(0)


# -- value records ----------------------------------------------------

class _Record:
    """Base of every class in the package with public fields.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``_assign`` or ``object.__setattr__``; a slot whose
    name starts with an underscore holds data derived from the fields.
    Records equal only records of their own class with equal fields, hash
    as their fields, and refuse assignment and deletion (``AttributeError``).
    A record may have one field (``ExactMatrix.rows``), and one whose
    fields hold a dict sets ``__hash__ = None``.  The one rule: a class
    writes its own equality only when it equals plain numbers, as
    ``GaussianRational`` and ``_Poly`` do.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = tuple(name for name in cls.__slots__ if name[0] != "_")
        get = attrgetter(*cls._names)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._fields = property(get if len(cls._names) > 1 else lambda self: (get(self),))

    def _assign(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # rebuild through __init__, which refills the derived slots
        return self.__class__, self._fields

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._fields))
        return f"{self.__class__.__name__}({fields})"


# -- JSON scalar encoding ---------------------------------------------

def fraction_str(value: Union[int, Fraction]) -> str:
    f = Fraction(value)
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # an int longer than the interpreter prints
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"result exceeds the {limit}-digit limit for printing an integer") from exc


def scalar_to_json(value: ScalarLike):
    """Encode a scalar for JSON: rationals as "p/q" strings, Q(i) as re/im pairs."""
    g = GaussianRational.coerce(value)
    if g.is_rational():
        return fraction_str(g.re)
    return {"re": fraction_str(g.re), "im": fraction_str(g.im)}


def _rational_literal(doc) -> Fraction:
    """A string such as "-3", "2/7" or "0.25" as a ``Fraction``; no exponents: "1e999999999" takes hours."""
    if isinstance(doc, bool) or not isinstance(doc, str):
        raise SchemaError(f"expected a rational encoded as a string, got {doc!r}")
    try:
        if "e" in doc or "E" in doc:
            raise ValueError
        return Fraction(doc)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {doc!r}") from exc


def scalar_from_json(doc) -> GaussianRational:
    """Decode a scalar from JSON, accepting "p/q" or {"re": ..., "im": ...}."""
    if isinstance(doc, dict):
        if set(doc) != {"re", "im"}:
            raise SchemaError(f"Gaussian scalar must have exactly re/im keys, got {sorted(doc)}")
        return GaussianRational(_rational_literal(doc["re"]), _rational_literal(doc["im"]))
    return GaussianRational(_rational_literal(doc))


def rational_from_json(doc) -> Fraction:
    """Decode a scalar that must be a plain rational."""
    value = scalar_from_json(doc)
    if value.im != 0:
        raise SchemaError(f"expected a rational, got the imaginary value {doc!r}")
    return value.re


# -- prime fields -----------------------------------------------------

class PrimeFieldElement(_Record):
    """A scalar of F_p, for a prime p: ``value`` reduced mod p, and ``p``.

    It carries no arithmetic: the point counts work on ints, and
    ``dtcount.FramedRep`` reads ``value``.  As a record it equals only an
    element with the same ``(value, p)``, never an int; compare
    ``value`` to compare with one.  A value or modulus that is not an int
    (a float, say) raises ``TypeError``.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        p = index(p)
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self._assign(index(value) % p, p)

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


# -- matrices over Q(i) -----------------------------------------------

def row_reduce(rows: Iterable[Mapping[int, GaussianRational]]) -> int:
    """The rank of sparse rows over Q(i), by Gaussian elimination one row at a time.

    Each row maps a column index to a nonzero entry.  A row is reduced
    against the pivot rows found so far until its leading column is new,
    when it becomes a pivot row, or until it vanishes.
    """
    # leading column -> the rest of its pivot row, scaled by -1/pivot
    tails: Dict[int, List[Tuple[int, GaussianRational]]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            factor = row.pop(lead)
            tail = tails.get(lead)
            if tail is None:
                scale = -factor.inverse()
                tails[lead] = [(c, v * scale) for c, v in row.items()]
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
    return len(tails)


class ExactMatrix(_Record):
    """A dense matrix over Q(i) supporting exact rank and determinant."""

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
        object.__setattr__(self, "rows", coerced)

    @classmethod
    def _wrap(cls, rows) -> "ExactMatrix":
        """A matrix on a rectangular tuple of tuples of GaussianRational (or ``_Poly``), unchecked."""
        m = _new_object(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if r == c else 0 for c in range(n)] for r in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._wrap(tuple(zip(*self.rows)))

    def trace(self) -> GaussianRational:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return _sum_of(self.rows[k][k] for k in range(self.nrows))

    def scale(self, factor: ScalarLike) -> "ExactMatrix":
        c = GaussianRational.coerce(factor)
        return ExactMatrix([[c * e for e in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        # each column of the right factor as its nonzero (row, entry) pairs:
        # a product with the signed permutation J costs n^2 products, not n^3
        cols = [[(k, v) for k, v in enumerate(col) if v] for col in zip(*other.rows)]
        return ExactMatrix._wrap(
            tuple(tuple(_sum_of(row[k] * v for k, v in col) for col in cols) for row in self.rows)
        )

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """The Kronecker product: row (i, j), column (k, l) holds self[i, k] * other[j, l]."""
        return ExactMatrix._wrap(
            tuple(
                tuple(a * b for a in ra for b in rb)
                for ra in self.rows
                for rb in other.rows
            )
        )

    def rank(self) -> int:
        return row_reduce({c: v for c, v in enumerate(row) if v} for row in self.rows)

    def det(self) -> GaussianRational:
        """The Laplace expansion down the rows; it never divides, so any ring will do.

        From the last row up, the nonzero minors of the rows below are kept by
        their set of columns, a bitmask.  Each entry extends the minors that miss
        its column, signed by the parity of their columns to its left.  An n x n
        determinant costs n * 2^(n-1) products, fewer with zero entries.
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        *above, last = self.rows
        minors = {1 << c: v for c, v in enumerate(last) if v}
        for row in reversed(above):
            entries = [(1 << c, v) for c, v in enumerate(row) if v]
            wider = {}
            # largest minors first: unless entries vanish, a wider minor then starts positive
            for cols in sorted(minors, reverse=True):
                for bit, v in entries:
                    if not cols & bit:
                        term, key = v * minors[cols], cols | bit
                        if (cols & (bit - 1)).bit_count() & 1:
                            wider[key] = wider[key] - term if key in wider else -term
                        else:
                            wider[key] = wider[key] + term if key in wider else term
            minors = {cols: minor for cols, minor in wider.items() if minor}
        return minors.get((1 << self.ncols) - 1, _ZERO)

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


# -- binary forms -----------------------------------------------------

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
    """Monic gcd of descending coefficient lists over Q(i); b leads with a nonzero."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    inv = a[0].inverse()
    return [inv * c for c in a]


def binary_form_gcd(forms: Iterable[Sequence[ScalarLike]]) -> Tuple[GaussianRational, ...]:
    """Monic greatest common divisor of binary forms in u1, u2 over Q(i).

    A form is its coefficient sequence in descending powers of u1, with
    int, ``Fraction`` or ``GaussianRational`` entries.  Each nonzero form
    is split as u2^beta * g, the g(u1, 1) parts run through the Euclidean
    algorithm, and the least beta is restored.  The result is a tuple
    whose first nonzero entry is 1: ``(1,)`` for coprime forms, ``(0,)``
    when every form is zero.  Once the gcd is 1 (a constant, and some
    beta = 0) no later form can lower it, so none is read.
    """
    min_beta = None
    poly_gcd: list = []
    for form in forms:
        coeffs = [GaussianRational.coerce(c) for c in form]
        beta = next((k for k, c in enumerate(coeffs) if c), None)
        if beta is None:
            continue
        min_beta = beta if min_beta is None else min(min_beta, beta)
        poly_gcd = _poly_gcd(poly_gcd, coeffs[beta:])
        if min_beta == 0 and len(poly_gcd) == 1:
            return (GaussianRational(1),)
    if min_beta is None:
        return (GaussianRational(0),)
    return (GaussianRational(0),) * min_beta + tuple(poly_gcd)


# -- sparse polynomials -----------------------------------------------

#: Bits per exponent in a ``_Poly`` monomial key; the proofs have degree at most 11.
_EXPONENT_BITS = 8
_EXPONENT_MASK = (1 << _EXPONENT_BITS) - 1
#: The scalars a ``_Poly`` takes as coefficients and operands.
_SCALAR_TYPES = (int, Fraction, GaussianRational)


class _Poly:
    """A sparse polynomial over Q(i): {monomial key: nonzero coefficient}.

    The symbolic proofs compute with it, and ``dtcount.counting_report``
    fits its cubic in one variable with it.  The exponent of variable v
    sits in bits 8v to 8v + 7 of the key, so multiplying monomials adds
    keys.  Coefficients are int, ``Fraction`` or ``GaussianRational``
    values, and such a scalar may stand on either side of + - * and
    compare equal to a constant polynomial; any other operand is refused.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[int, ScalarLike]):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def variables(cls, count: int) -> List["_Poly"]:
        """The variables x_0, ..., x_(count-1)."""
        return [cls({1 << (_EXPONENT_BITS * v): 1}) for v in range(count)]

    @staticmethod
    def _lift(value) -> Optional["_Poly"]:
        """A polynomial or a scalar as a polynomial; None for any other value."""
        if isinstance(value, _Poly):
            return value
        return _Poly({0: value}) if isinstance(value, _SCALAR_TYPES) else None

    def __add__(self, other):
        other = _Poly._lift(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return _Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _Poly._lift(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = _Poly._lift(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return _Poly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, _Poly):
            return NotImplemented
        out: Dict[int, ScalarLike] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = ma + mb
                out[m] = out[m] + ca * cb if m in out else ca * cb
        return _Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, k: int):
        return self * Fraction(1, k)

    def __eq__(self, other):
        other = _Poly._lift(other)
        return NotImplemented if other is None else self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def at(self, point: Sequence[ScalarLike]) -> ScalarLike:
        """The value at the point whose v-th coordinate is ``point[v]``."""
        total: ScalarLike = 0
        for m, c in self.terms.items():
            for x in point:
                c = c * x ** (m & _EXPONENT_MASK)
                m >>= _EXPONENT_BITS
            total = total + c
        return total
