"""Framed representation counts of conifold potentials over prime fields.

The framed quiver adds one framing vertex with a single arrow i into v0;
dimension vectors are fixed at (1, 1, 1), so a representation is five
field scalars (a1, a2, b1, b2, i).  The relations are the cyclic
derivatives of the potential; stability is King stability for a weight
vector theta summing against the dimension vector.

Counts are taken per orbit of the rescaling torus.  At dimension one per
vertex the torus acts freely on the stable locus once i != 0 is forced,
so orbits are counted by fixing a gauge i = 1 and dividing the remaining
free (p - 1)-action out of the (a, b) scalars; divisibility is asserted
rather than assumed.

Stability depends only on which of the five scalars vanish, so each
StabilityParameter holds one verdict per zero pattern (32 of them).
``is_theta_stable`` reads that table, and so does the parameter's own
framed-chamber check, which ``count_points`` and ``counting_report`` run
before any count.  The relations are the table of
``quiver.jacobi_generators``, built once per call and read only by
``_commuting_relations``: each path becomes the monomial of its arrow
counts, giving commuting polynomials mod p, grouped by their (b1, b2)
monomial, and the same compile tells ``counting_report`` which primes
its fit leaves out.  The helper ``_on_slice`` substitutes an (a1, a2)
slice into them, and one evaluator, ``_solutions``, filters a list of
points (b1, b2) down to those where the slice's polynomials vanish, one
polynomial at a time.
``satisfies_relations`` hands it a one-point list; the count hands it
each slice's stable points, listed once per zero pattern of (a1, a2),
so a slice where every relation vanishes adds all of them, and
potentials whose relations cut out a proper subset still cost O(p^4).
Primes above ``MAX_COUNT_PRIME`` are refused before any enumeration, and
a coefficient with no value mod p in a frame that holds no table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import index
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError
from .exact import PrimeFieldElement, _Poly, _Record, _rational, fraction_str, is_prime
from .quiver import CyclicPotential, conifold_quiver, framed_conifold_quiver, jacobi_generators

ARROW_ORDER = conifold_quiver().arrow_labels()

#: The table of ``jacobi_generators``: arrow -> {path: coefficient}.
_Table = Dict[str, Dict[Tuple[str, ...], Fraction]]

#: Largest prime accepted by :func:`count_points` and :func:`counting_report`.
MAX_COUNT_PRIME = 31


class FramedRep(_Record):
    """A framed conifold representation with one scalar per arrow."""

    __slots__ = ("a1", "a2", "b1", "b2", "i")

    def __init__(self, a1: PrimeFieldElement, a2: PrimeFieldElement, b1: PrimeFieldElement,
                 b2: PrimeFieldElement, i: PrimeFieldElement):
        ps = {v.p for v in (a1, a2, b1, b2, i)}
        if len(ps) != 1:
            raise DomainError(f"mixed field characteristics {sorted(ps)}")
        self._assign(a1, a2, b1, b2, i)

    @property
    def p(self) -> int:
        return self.a1.p

    @classmethod
    def from_ints(cls, p: int, a1: int, a2: int, b1: int, b2: int, i: int) -> "FramedRep":
        return cls(*(PrimeFieldElement(v, p) for v in (a1, a2, b1, b2, i)))


class StabilityParameter(_Record):
    """King weights (theta_0, theta_1, theta_inf) for the three vertices."""

    __slots__ = ("theta0", "theta1", "theta_inf", "_stable_patterns")

    def __init__(self, theta0: Fraction, theta1: Fraction, theta_inf: Fraction):
        theta = tuple(map(_rational, (theta0, theta1, theta_inf)))
        self._assign(*theta, _stability_table(theta))

    def as_tuple(self):
        return (self.theta0, self.theta1, self.theta_inf)

    def to_json(self):
        return [fraction_str(v) for v in self.as_tuple()]

    def _require_framed_chamber(self) -> None:
        """Raise DomainError unless stability forces i != 0 and (a1, a2) != (0, 0).

        The count fixes the gauge i = 1 and needs a nonzero a-scalar.
        Stability only depends on the zero pattern, so the table settles
        this for the whole parameter.
        """
        a_bits, i_bit = _BIT["a1"] | _BIT["a2"], _BIT["i"]
        if any(s and not (mask & i_bit and mask & a_bits) for mask, s in enumerate(self._stable_patterns)):
            raise DomainError("stability parameter is outside the framed chamber")


def default_stability() -> StabilityParameter:
    return StabilityParameter(Fraction(-1), Fraction(-1), Fraction(2))


def _check_count_prime(p: int) -> None:
    if p > MAX_COUNT_PRIME:
        raise DomainError(
            f"prime {p} exceeds the configured bound {MAX_COUNT_PRIME}; "
            "a point count enumerates p^4 representations"
        )
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def _require_conifold(potential: CyclicPotential) -> None:
    if potential.quiver != conifold_quiver():
        raise DomainError("relations are defined for conifold potentials")


#: A relation compiled for the slices: for each (b1, b2) monomial, as
#: (e3, e4, terms), the terms (a1 exponent, a2 exponent, coeff) of its coefficient.
_Relation = List[Tuple[int, int, List[Tuple[int, int, int]]]]


def _commuting_relations(table: _Table, p: int) -> Tuple[List[_Relation], Optional[Fraction], bool]:
    """The Jacobi relations at dimension (1, 1, 1) as commuting polynomials mod p.

    Scalars commute, so each path of a cyclic derivative evaluates to the
    monomial of its arrow counts.  Each derivative is scaled by the lcm of
    its path denominators and the paths of each monomial are summed over
    Z; where p divides no path denominator it divides no lcm, so the scale
    is a unit mod p and the relations cut out the same points.  Each
    relation is grouped by its (b1, b2) monomial, as ``_Relation`` terms
    with coefficients mod p, for ``_on_slice`` to substitute (a1, a2);
    terms that cancel mod p are dropped, and so are relations that vanish
    identically.  p is prime.

    Returns the relations, None, and whether a nonzero sum vanished mod p.
    Where p divides a path denominator it returns no relations, the first
    such coefficient in the order of ``jacobi_generators`` whatever the
    order of the terms, and False.  The relations keep their shape exactly
    where neither happens: a nonzero sum over Q is its integer sum over the
    lcm, so p divides its numerator or denominator only where it divides a
    path denominator or the integer sum.  The caller refuses an undefined
    coefficient with ``_require_defined``, in a frame that holds no table,
    so a refusal kept with its traceback keeps no table alive.
    """
    a1, a2, b1, b2 = ARROW_ORDER
    relations = []
    dropped = False
    for derivative in table.values():
        scale = math.lcm(*(coeff.denominator for coeff in derivative.values()))
        if scale % p == 0:
            return [], next(coeff for coeff in derivative.values() if coeff.denominator % p == 0), False
        relation: Dict[Tuple[int, ...], int] = {}
        for path, coeff in derivative.items():
            key = (path.count(a1), path.count(a2), path.count(b1), path.count(b2))
            relation[key] = relation.get(key, 0) + coeff.numerator * (scale // coeff.denominator)
        by_b: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
        for (e1, e2, e3, e4), total in relation.items():
            c = total % p
            if c:
                by_b.setdefault((e3, e4), []).append((e1, e2, c))
            elif total:
                dropped = True
        if by_b:
            relations.append([(e3, e4, terms) for (e3, e4), terms in by_b.items()])
    return relations, None, dropped


def _require_defined(undefined: Optional[Fraction], p: int) -> None:
    if undefined is not None:
        raise DomainError(f"coefficient {undefined} is not defined in characteristic {p}")


def _on_slice(relations: List[_Relation], a1: int, a2: int, p: int) -> List[List[Tuple[int, int, int]]]:
    """The relations on the (a1, a2) slice, as polynomials in (b1, b2).

    Returns each relation that does not vanish identically on the slice,
    as its terms (coeff mod p, e3, e4); an empty list means that every
    point of the slice satisfies the relations.
    """
    polys = []
    for relation in relations:
        terms = []
        for e3, e4, a_terms in relation:
            coeff = sum(c * a1 ** e1 * a2 ** e2 for e1, e2, c in a_terms) % p
            if coeff:
                terms.append((coeff, e3, e4))
        if terms:
            polys.append(terms)
    return polys


def _solutions(polys: List[List[Tuple[int, int, int]]], points: List[Tuple[int, int]],
               p: int) -> List[Tuple[int, int]]:
    """The points (b1, b2) of the list at which every polynomial of ``_on_slice`` vanishes.

    Filters the list one polynomial at a time, those with the fewest terms
    first, and stops once it is empty; with no polynomial it returns the list.
    """
    for terms in sorted(polys, key=len):
        if not points:
            break
        points = [(b1, b2) for b1, b2 in points if not sum(c * b1 ** e3 * b2 ** e4 for c, e3, e4 in terms) % p]
    return points


def satisfies_relations(rep: FramedRep, potential: CyclicPotential) -> bool:
    """Evaluate every cyclic-derivative relation on the representation."""
    a1, a2, b1, b2 = (getattr(rep, x).value for x in ARROW_ORDER)
    p = rep.p
    _require_conifold(potential)
    relations, undefined, _ = _commuting_relations(jacobi_generators(potential), p)
    _require_defined(undefined, p)
    return bool(_solutions(_on_slice(relations, a1, a2, p), [(b1, b2)], p))


_FRAMED = framed_conifold_quiver()
# a zero pattern has bit k set when the scalar on framed arrow k is nonzero;
# the arrow labels are also the field names of FramedRep
_BIT = {label: 1 << k for k, label in enumerate(_FRAMED.arrow_labels())}


def _stability_table(weights: Sequence[Fraction]) -> Tuple[bool, ...]:
    """King stability at dimension (1, 1, 1) for each of the 32 zero patterns.

    A subrepresentation supported on a pattern (d0, d1, dinf) exists
    exactly when no arrow with a nonzero scalar leaves a fully kept vertex
    for a dropped one; stability requires every such proper pattern to
    have slope strictly below the total slope.  Only the patterns at or
    above the total slope matter, each through the arrows that leave it.
    """
    slot = {v: k for k, v in enumerate(_FRAMED.vertices)}
    total_slope = sum(weights, Fraction(0)) / 3
    leaving = []
    for d in product((0, 1), repeat=3):  # subdimension vectors (d0, d1, dinf)
        if sum(d) in (0, 3):
            continue
        slope = sum((Fraction(w) for w, x in zip(weights, d) if x), Fraction(0)) / sum(d)
        if slope >= total_slope:
            leaving.append(sum(
                1 << k
                for k, (_, src, tgt) in enumerate(_FRAMED.arrows)
                if d[slot[src]] and not d[slot[tgt]]
            ))
    return tuple(all(mask & out for out in leaving) for mask in range(32))


def is_theta_stable(rep: FramedRep, theta: StabilityParameter) -> bool:
    """King stability at dimension (1, 1, 1), looked up by zero pattern."""
    mask = 0
    for label, bit in _BIT.items():
        if getattr(rep, label).value:
            mask |= bit
    return theta._stable_patterns[mask]


def count_points(potential: CyclicPotential, theta: StabilityParameter, p: int) -> int:
    """Number of stable-relation orbits over F_p for the given potential.

    Requires the stability to force a nonzero framing scalar (as the
    default (-1, -1, 2) does); the count fixes i = 1 and divides by the
    order of the remaining free torus factor.  Primes above
    ``MAX_COUNT_PRIME`` are refused, since the cost grows as p^4.
    """
    _require_conifold(potential)
    p = index(p)  # refuses floats and strings
    theta._require_framed_chamber()
    _check_count_prime(p)
    # no local holds the table, so a kept refusal does not keep it alive
    relations, undefined, _ = _commuting_relations(jacobi_generators(potential), p)
    _require_defined(undefined, p)
    return _count_points(relations, theta, p)


def _count_points(relations: List[_Relation], theta: StabilityParameter, p: int) -> int:
    """``count_points`` on the compiled relations, once p and theta are checked."""
    a1_bit, a2_bit, b1_bit, b2_bit, i_bit = (_BIT[x] for x in ARROW_ORDER + ("i",))
    stable = theta._stable_patterns
    rng = range(p)
    b_masks = [((b1, b2), (b1_bit if b1 else 0) | (b2_bit if b2 else 0)) for b1 in rng for b2 in rng]
    stable_points: Dict[int, List[Tuple[int, int]]] = {}  # by the zero pattern of (a1, a2)

    raw = 0
    for a1 in rng:
        for a2 in rng:
            if a1 == 0 and a2 == 0:
                continue
            a_mask = (a1_bit if a1 else 0) | (a2_bit if a2 else 0) | i_bit
            if a_mask not in stable_points:
                stable_points[a_mask] = [b for b, b_mask in b_masks if stable[a_mask | b_mask]]
            raw += len(_solutions(_on_slice(relations, a1, a2, p), stable_points[a_mask], p))
    if raw % (p - 1) != 0:
        raise DomainError(
            f"residual torus action is not free at p = {p}; raw count {raw}"
        )
    return raw // (p - 1)


class CountReport(_Record):
    """Counts over a list of primes plus an interpolated counting polynomial (c0..c3)."""

    __slots__ = ("theta", "primes", "counts", "excluded", "polynomial", "euler_characteristic",
                 "matches_classical", "note")

    def __init__(self, theta: StabilityParameter, primes: Tuple[int, ...], counts: Dict[int, int],
                 excluded: Tuple[int, ...], polynomial: Optional[Tuple[Fraction, Fraction, Fraction, Fraction]],
                 euler_characteristic: Optional[Fraction], matches_classical: Optional[bool], note: str):
        self._assign(theta, primes, counts, excluded, polynomial, euler_characteristic, matches_classical, note)

    def to_json(self):
        return {
            "theta": self.theta.to_json(),
            "primes": list(self.primes),
            "counts": {str(p): c for p, c in sorted(self.counts.items())},
            "excluded": list(self.excluded),
            "polynomial": (
                None
                if self.polynomial is None
                else [fraction_str(c) for c in self.polynomial]
            ),
            "euler_characteristic": (
                None
                if self.euler_characteristic is None
                else fraction_str(self.euler_characteristic)
            ),
            "matches_classical": self.matches_classical,
            "note": self.note,
        }


def counting_report(
    potential: CyclicPotential,
    theta: StabilityParameter,
    primes: Sequence[int],
) -> CountReport:
    """Count at each prime and interpolate a cubic through the clean primes.

    Needs at least four primes and a stability inside the framed chamber,
    both checked before any count.  Each prime compiles the relations
    once; where they are defined it is counted, and a refusal there is
    raised.  The fit leaves out each prime whose compile is undefined or
    drops a nonzero term, so it sees relations of one shape.  It is
    Lagrange's formula, a one-variable ``_Poly`` through the first four
    included primes, checked at every included prime; when a check fails
    no polynomial is reported.  The Euler characteristic is the fit evaluated at 1, and
    the report records whether the fit equals the classical q^3 + q^2.
    """
    theta._require_framed_chamber()
    ps = sorted(set(map(index, primes)))  # index() refuses floats and strings
    if len(ps) < 4:
        raise DomainError("need at least four primes for a degree-3 fit")
    for p in ps:
        _check_count_prime(p)

    _require_conifold(potential)
    table = jacobi_generators(potential)
    compiled = {p: _commuting_relations(table, p) for p in ps}
    counts = {p: _count_points(relations, theta, p) for p, (relations, bad, _) in compiled.items() if bad is None}
    excluded = [p for p, (_, bad, dropped) in compiled.items() if bad is not None or dropped]
    included = [p for p in ps if p not in excluded]

    polynomial = None
    euler = None
    matches = None
    if len(included) >= 4:
        # Lagrange's formula through the first four included primes
        (q,) = _Poly.variables(1)
        nodes = included[:4]
        fit = sum(counts[p] * math.prod((q - r) / (p - r) for r in nodes if r != p) for p in nodes)
        if all(fit.at([p]) == counts[p] for p in included):
            # in one variable the monomial key of q^k is k
            polynomial = tuple(Fraction(fit.terms.get(k, 0)) for k in range(4))
            euler = Fraction(fit.at([1]))
            matches = polynomial == (0, 0, 1, 1)
            note = "cubic fit consistent across included primes"
        else:
            note = "counts are not fit by a single cubic; no polynomial reported"
    else:
        note = "fewer than four usable primes after exclusions; no fit attempted"
    return CountReport(
        theta=theta,
        primes=tuple(ps),
        counts=counts,
        excluded=tuple(excluded),
        polynomial=polynomial,
        euler_characteristic=euler,
        matches_classical=matches,
        note=note,
    )
