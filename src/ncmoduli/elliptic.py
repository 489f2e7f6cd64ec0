"""Quadruple configurations on a pencil of genus-one double covers.

The curve family is Z^2 = X * Y * (X - Y) * (l1*X - l0*Y) with (X : Y)
projective of weight 1, Z of weight 2, and (l0 : l1) the pencil
parameter (affine value lambda = l0/l1, with lambda outside {0, 1}).

The orbit relation on two-point configurations is generated by three
translations by 2-torsion (t1, t2, t3, acting on points over a fixed
parameter) and two parameter symmetries (swap: lambda -> 1/lambda,
complement: lambda -> 1 - lambda, each acting on points as well).  All
five act by homogeneous polynomial maps, which is why the parameter is
carried as a pair (l0, l1) internally: membership in the curve is then
preserved on the nose, without choosing square roots.  Public
constructors normalize l1 = 1.

The five generators are written once, in one table of parameter and
point formulas.  One evaluator computes point images from it on Q(i)
values, and ``verify_equation_preservation`` evaluates the same entries
on polynomials, so the symbolic proof covers the formulas the search runs.

Curve membership is checked where a configuration enters the library:
the ``EllipticConfiguration`` constructor, ``make_configuration`` and
``random_configuration``.  ``apply_group_element``, the one transform of
configurations, builds its images through ``_unchecked``, which skips the
check: each generator maps the curve over a parameter onto the curve over
the image parameter, as ``verify_equation_preservation`` proves.  An
orbit search builds up to 192 images, and checking each would about
double its cost.  For the same loop, ``_point`` writes the slots of an
image point directly; the three classes take equality and hashing from
``exact._Record``.

Equality of points is literal field equality after a canonical
projective normalization, so orbit search is an exact finite
enumeration.  One normalizer, ``_normalized``, computes the coordinates
of every point, in the ``EllPoint`` constructor and for each generator
image, with one reduction per coordinate it computes; reduced triples
are unique, so no exact normalization stores other coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random
from typing import Dict, Optional, Sequence, Tuple

from .errors import DomainError
from .exact import GAUSSIAN_I, GaussianRational, ScalarLike, _over_power, _Poly, _Record

TRANSLATION_NAMES = ("t1", "t2", "t3")

#: Canonical words in swap/complement realizing the six parameter symmetries.
LAMBDA_WORDS: Tuple[Tuple[str, ...], ...] = (
    (),
    ("swap",),
    ("complement",),
    ("swap", "complement"),
    ("complement", "swap"),
    ("swap", "complement", "swap"),
)

# Shared coordinates 0 and 1 of normalized points and public parameters.
_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


class LambdaPair(_Record):
    """The pencil parameter as a homogeneous pair (l0 : l1)."""

    __slots__ = ("l0", "l1")

    def __init__(self, l0: ScalarLike, l1: ScalarLike):
        l0, l1 = GaussianRational.coerce(l0), GaussianRational.coerce(l1)
        if l0.is_zero() or l1.is_zero() or l0 == l1:
            raise DomainError(
                f"degenerate pencil parameter ({l0!r} : {l1!r}); "
                "the affine value must avoid 0, 1 and infinity"
            )
        self._assign(l0, l1)

    @classmethod
    def from_affine(cls, value: ScalarLike) -> "LambdaPair":
        return cls(GaussianRational.coerce(value), _ONE)

    @property
    def affine(self) -> GaussianRational:
        return self.l0 / self.l1


class EllPoint(_Record):
    """A curve point (X : Y : Z), weight (1, 1, 2), canonically normalized.

    The constructor coerces its coordinates and normalizes them: the
    first nonzero of X and Y becomes 1 and Z is scaled to match, or the
    point is (0 : 0 : 1).  (0 : 0 : 0) raises ``DomainError``.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: ScalarLike, y: ScalarLike, z: ScalarLike):
        coerce = GaussianRational.coerce
        self._assign(*_normalized(coerce(x), coerce(y), coerce(z))._fields)

    def flipped(self) -> "EllPoint":
        """The hyperelliptic involution Z -> -Z."""
        return _point(self.x, self.y, -self.z)


def _point(x: GaussianRational, y: GaussianRational, z: GaussianRational) -> EllPoint:
    """The point on coordinates that are already normalized, without the constructor."""
    # every generator image is a new point, up to 864 in one orbit search,
    # and three direct calls take about 40 % less time than ``_assign``
    pt = object.__new__(EllPoint)
    object.__setattr__(pt, "x", x)
    object.__setattr__(pt, "y", y)
    object.__setattr__(pt, "z", z)
    return pt


def _normalized(x: GaussianRational, y: GaussianRational, z: GaussianRational) -> EllPoint:
    """(x : y : z) as (1 : y/x : z/x^2), (0 : 1 : z/y^2) or (0 : 0 : 1), one reduction per quotient."""
    if not x.is_zero():
        return _point(_ONE, _over_power(y, x, 1), _over_power(z, x, 2))
    if not y.is_zero():
        return _point(_ZERO, _ONE, _over_power(z, y, 2))
    if z.is_zero():
        raise DomainError("(0 : 0 : 0) is not a point")
    return _point(_ZERO, _ZERO, _ONE)


def curve_rhs(l0, l1, x, y):
    """X * Y * (X - Y) * (l1*X - l0*Y), for Q(i) values or polynomials alike."""
    return x * y * (x - y) * (l1 * x - l0 * y)


def on_curve(lam: LambdaPair, pt: EllPoint) -> bool:
    return pt.z * pt.z == curve_rhs(lam.l0, lam.l1, pt.x, pt.y)


def _same_parameter(l0, l1):
    return l0, l1


# The five generators, each written once as homogeneous formulas:
# name -> (parameter formula, point formula).  A parameter formula maps
# (l0, l1) to (l0', l1'), and a point formula maps (l0, l1, X, Y, Z) to
# the image point (X', Y', Z').  The translations fix the parameter.
# _image_point evaluates the point formulas on Q(i) values, and
# verify_equation_preservation evaluates both kinds on polynomials.
_GENERATORS = {
    "t1": (_same_parameter, lambda l0, l1, x, y, z: (l0 * (x - y), l1 * x - l0 * y, l0 * (l0 - l1) * z)),
    "t2": (_same_parameter, lambda l0, l1, x, y, z: (l0 * y - l1 * x, l1 * (y - x), l1 * (l0 - l1) * z)),
    "t3": (_same_parameter, lambda l0, l1, x, y, z: (l0 * y, l1 * x, l0 * l1 * z)),
    "swap": (lambda l0, l1: (l1, l0), lambda l0, l1, x, y, z: (y, x, z)),
    "complement": (lambda l0, l1: (l1 - l0, l1), lambda l0, l1, x, y, z: (y - x, y, GAUSSIAN_I * z)),
}


def _image_point(lam: LambdaPair, pt: EllPoint, which: str) -> EllPoint:
    """The image of a point over ``lam`` under the generator ``which``."""
    return _normalized(*_GENERATORS[which][1](lam.l0, lam.l1, pt.x, pt.y, pt.z))


def translate(lam: LambdaPair, pt: EllPoint, which: str) -> EllPoint:
    """Translation by one of the three nontrivial 2-torsion points.

    Each is an exact involution of the curve over its own parameter; the
    parameter itself is unchanged.
    """
    if which not in TRANSLATION_NAMES:
        raise DomainError(f"unknown translation {which!r}")
    return _image_point(lam, pt, which)


class EllipticConfiguration(_Record):
    """A parameter together with an ordered pair of curve points.

    The constructor raises ``DomainError`` when a point is off the curve.
    ``apply_group_element`` preserves membership exactly (see
    ``verify_equation_preservation``), so it builds its images with
    ``_unchecked``, which fills the slots without calling the constructor.
    """

    __slots__ = ("lam", "p1", "p2")

    def __init__(self, lam: LambdaPair, p1: EllPoint, p2: EllPoint):
        for label, pt in (("first", p1), ("second", p2)):
            if not on_curve(lam, pt):
                raise DomainError(f"{label} point does not lie on the curve")
        self._assign(lam, p1, p2)


def _unchecked(cls, *values):
    """A ``LambdaPair`` or ``EllipticConfiguration`` built without its check.

    Only for images under the generators, which keep a parameter
    nondegenerate and a point on the curve.
    """
    obj = object.__new__(cls)
    obj._assign(*values)
    return obj


def make_configuration(
    lam: ScalarLike, p1: Sequence[ScalarLike], p2: Sequence[ScalarLike]
) -> EllipticConfiguration:
    """Public constructor: affine parameter, raw coordinate triples."""
    pair = LambdaPair.from_affine(lam)
    if len(p1) != 3 or len(p2) != 3:
        raise DomainError("points need three coordinates")
    return EllipticConfiguration(pair, EllPoint(*p1), EllPoint(*p2))


def is_admissible(cfg: EllipticConfiguration) -> bool:
    """The second point must avoid the branch locus (Z != 0)."""
    return not cfg.p2.z.is_zero()


def apply_group_element(
    cfg: EllipticConfiguration,
    lambda_word: Sequence[str] = (),
    translate_first: Optional[str] = None,
    translate_second: Optional[str] = None,
    flip: bool = False,
) -> EllipticConfiguration:
    """Apply a parameter-symmetry word (left to right), then translations."""
    lam, p1, p2 = cfg.lam, cfg.p1, cfg.p2
    for step in lambda_word:
        if step in TRANSLATION_NAMES or step not in _GENERATORS:
            raise DomainError(f"unknown parameter symmetry {step!r}")
        # The symmetries permute {0, 1, infinity}, so the image of a
        # nondegenerate parameter is nondegenerate and needs no re-test.
        image = _unchecked(LambdaPair, *_GENERATORS[step][0](lam.l0, lam.l1))
        p1, p2 = _image_point(lam, p1, step), _image_point(lam, p2, step)
        lam = image
    if translate_first:
        p1 = translate(lam, p1, translate_first)
    if translate_second:
        p2 = translate(lam, p2, translate_second)
    if flip:
        p1, p2 = p1.flipped(), p2.flipped()
    return _unchecked(EllipticConfiguration, lam, p1, p2)


def orbit_equivalent(
    first: EllipticConfiguration,
    second: EllipticConfiguration,
    include_involution: bool = False,
) -> Tuple[bool, Optional[Dict]]:
    """Search the finite generated group for an element carrying first to second.

    Enumerates the six canonical parameter words times the sixteen
    translation choices (and, when ``include_involution`` is set, the
    simultaneous hyperelliptic flip) in a fixed order and returns the
    first witness found.  With the flip included the relation is
    symmetric; without it the search follows the generators literally.
    """
    for cfg in (first, second):
        if not is_admissible(cfg):
            raise DomainError("orbit comparison needs admissible configurations")
    translations: Tuple[Optional[str], ...] = (None,) + TRANSLATION_NAMES
    flips = (False, True) if include_involution else (False,)
    for word, tr1, tr2, flip in product(LAMBDA_WORDS, translations, translations, flips):
        if apply_group_element(first, word, tr1, tr2, flip) == second:
            return True, {"lambda_word": list(word), "translate_first": tr1, "translate_second": tr2, "flip": flip}
    return False, None


# -- exact fixtures ----------------------------------------------------


def _chord_tangent(
    lam: GaussianRational,
    p: Tuple[GaussianRational, GaussianRational],
    q: Tuple[GaussianRational, GaussianRational],
) -> Optional[Tuple[GaussianRational, GaussianRational]]:
    """Addition on y^2 = x(x-1)(x-lambda) in the chart Y = 1.

    Returns None on the degenerate slopes (vertical chord or tangent at
    a 2-torsion point); fixture generators just resample then.
    """
    x1, y1 = p
    x2, y2 = q
    if x1 == x2:
        if y1 == y2:
            if y1.is_zero():
                return None
            num = 3 * x1 * x1 - 2 * (1 + lam) * x1 + lam
            slope = num / (2 * y1)
        else:
            return None
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope + (1 + lam) - x1 - x2
    y3 = slope * (x1 - x3) - y1
    return x3, y3


def point_multiple(
    lam: GaussianRational, pt: EllPoint, k: int
) -> Optional[EllPoint]:
    """k-fold sum of an affine-chart point under the chord-tangent law."""
    if pt.y.is_zero():
        raise DomainError("multiples are computed on the Y = 1 chart")
    if k < 1:
        raise DomainError("k must be a positive integer")
    base = (pt.x / pt.y, pt.z / (pt.y * pt.y))
    acc = base
    for _ in range(k - 1):
        nxt = _chord_tangent(lam, acc, base)
        if nxt is None:
            return None
        acc = nxt
    return EllPoint(acc[0], 1, acc[1])


def random_curve_point(rng: Random) -> Tuple[Fraction, EllPoint]:
    """A random exact rational point together with its pencil parameter.

    The parameter is solved from the point: given x and z, setting
    lambda = x - z^2 / (x (x - 1)) puts (x : 1 : z) on the curve.
    """
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        z = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        if x == 0 or x == 1:
            continue
        lam = x - z * z / (x * (x - 1))
        if lam == 0 or lam == 1:
            continue
        return lam, EllPoint(x, 1, z)


def random_configuration(rng: Random) -> EllipticConfiguration:
    """A random admissible configuration with an exact rational parameter."""
    while True:
        lam, p1 = random_curve_point(rng)
        glam = GaussianRational(lam)
        p2 = point_multiple(glam, p1, rng.choice((2, 3)))
        if p2 is None or p2.z.is_zero() or p2 == p1:
            continue
        return EllipticConfiguration(LambdaPair(glam, _ONE), p1, p2)


# -- symbolic equation preservation ------------------------------------

def verify_equation_preservation() -> Dict[str, bool]:
    """Check all five transforms against the curve equation symbolically.

    The formulas that the transforms evaluate are evaluated here on the
    variables l0, l1, X, Y, Z.  For an image parameter (l0', l1') and
    image point (X', Y', Z'), the identity
    Z'^2 * RHS(l0, l1, X, Y) = RHS(l0', l1', X', Y') * Z^2 is checked as
    an exact polynomial identity.  It makes Z' a multiple c*Z with
    c^2 * RHS = RHS', so the image of a point with Z^2 = RHS satisfies
    Z'^2 = RHS'.
    """
    L0, L1, X, Y, Z = _Poly.variables(5)
    rhs = curve_rhs(L0, L1, X, Y)
    results = {}
    for name, (pair, point) in _GENERATORS.items():
        x, y, z = point(L0, L1, X, Y, Z)
        results[name] = z * z * rhs == curve_rhs(*pair(L0, L1), x, y) * Z * Z
    return results
