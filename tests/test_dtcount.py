"""Finite-field counting of framed conifold representations."""

import traceback
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from ncmoduli import dtcount
from ncmoduli.errors import DomainError
from ncmoduli.exact import is_prime
from ncmoduli.dtcount import (
    MAX_COUNT_PRIME,
    CountReport,
    FramedRep,
    StabilityParameter,
    count_points,
    counting_report,
    default_stability,
    is_theta_stable,
    satisfies_relations,
)
from ncmoduli.dtcount import _commuting_relations
from ncmoduli.potential import SymmetricPotentialMatrix, sym_matrix_to_potential
from ncmoduli.quiver import (
    CyclicPotential,
    conifold_potential,
    conifold_quiver,
    framed_conifold_quiver,
    jacobi_generators,
)


def _diagonal_potential(*values):
    return sym_matrix_to_potential(
        SymmetricPotentialMatrix.diagonal([Fraction(v) for v in values])
    )


def test_framed_rep_construction():
    rep = FramedRep.from_ints(5, 1, 2, 3, 4, 1)
    assert rep.p == 5
    assert rep.a2.value == 2
    with pytest.raises(ValueError):
        FramedRep.from_ints(6, 0, 0, 0, 0, 0)


def test_mixed_characteristics_rejected():
    from ncmoduli.exact import PrimeFieldElement

    with pytest.raises(DomainError):
        FramedRep(
            PrimeFieldElement(1, 3),
            PrimeFieldElement(1, 3),
            PrimeFieldElement(1, 5),
            PrimeFieldElement(1, 3),
            PrimeFieldElement(1, 3),
        )


def test_classical_relations_hold_identically():
    # the two derivative terms are equal products of commuting scalars
    phi = conifold_potential()
    for p in (2, 3):
        for tup in product(range(p), repeat=5):
            assert satisfies_relations(FramedRep.from_ints(p, *tup), phi)


def test_deformed_relations_cut_something_out():
    deformed = _diagonal_potential(1, 2, 3, 5)
    assert satisfies_relations(FramedRep.from_ints(7, 0, 0, 0, 0, 0), deformed)
    assert not satisfies_relations(FramedRep.from_ints(7, 1, 1, 1, 1, 1), deformed)


def test_relations_undefined_in_bad_characteristic():
    # a non-periodic word keeps the 1/2 in its derivative coefficients
    half = CyclicPotential(
        conifold_quiver(), {("a1", "b1", "a2", "b2"): Fraction(1, 2)}
    )
    with pytest.raises(DomainError):
        satisfies_relations(FramedRep.from_ints(2, 1, 1, 1, 1, 1), half)
    # fine at an odd prime
    assert satisfies_relations(FramedRep.from_ints(3, 0, 1, 1, 0, 1), half)


def test_stability_parameter_validation():
    with pytest.raises(TypeError):
        StabilityParameter(1, -1)
    theta = default_stability()
    assert theta.as_tuple() == (Fraction(-1), Fraction(-1), Fraction(2))


def test_stability_examples():
    theta = default_stability()
    assert is_theta_stable(FramedRep.from_ints(5, 1, 0, 0, 0, 1), theta)
    assert is_theta_stable(FramedRep.from_ints(5, 2, 3, 4, 1, 2), theta)
    # no framing scalar
    assert not is_theta_stable(FramedRep.from_ints(5, 1, 1, 1, 1, 0), theta)
    # no map out of the source vertex
    assert not is_theta_stable(FramedRep.from_ints(5, 0, 0, 1, 1, 1), theta)


def test_stability_depends_only_on_zero_pattern():
    # exhaustive check at p = 2 against the closed form i != 0 and a != 0
    theta = default_stability()
    for bits in product((0, 1), repeat=5):
        rep = FramedRep.from_ints(2, *bits)
        expected = bits[4] == 1 and (bits[0], bits[1]) != (0, 0)
        assert is_theta_stable(rep, theta) == expected


def test_classical_counts_match_q3_plus_q2():
    phi = conifold_potential()
    theta = default_stability()
    assert count_points(phi, theta, 2) == 12
    assert count_points(phi, theta, 3) == 36


def test_count_agrees_with_gauge_free_brute_force():
    # count every solution with arbitrary framing scalar and divide by the
    # full free torus orbit size (p - 1)^2 instead of gauge fixing
    phi = conifold_potential()
    theta = default_stability()
    p = 3
    brute = 0
    for tup in product(range(p), repeat=5):
        rep = FramedRep.from_ints(p, *tup)
        if satisfies_relations(rep, phi) and is_theta_stable(rep, theta):
            brute += 1
    assert brute % (p - 1) ** 2 == 0
    assert brute // (p - 1) ** 2 == count_points(phi, theta, p)


def test_deformed_count_differs_from_classical():
    deformed = _diagonal_potential(1, 2, 3, 5)
    theta = default_stability()
    assert count_points(deformed, theta, 5) == 10
    assert count_points(conifold_potential(), theta, 5) == 150


def test_count_rejects_theta_outside_framed_chamber():
    # with these weights a representation with zero source maps is stable,
    # so the framing gauge is invalid
    theta = StabilityParameter(-3, 1, 2)
    with pytest.raises(DomainError):
        count_points(conifold_potential(), theta, 3)


def test_report_classical_fit():
    report = counting_report(conifold_potential(), default_stability(), (2, 3, 5, 7))
    assert report.counts == {2: 12, 3: 36, 5: 150, 7: 392}
    assert report.excluded == ()
    assert report.polynomial == (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    assert report.euler_characteristic == 2
    assert report.matches_classical is True


def test_report_needs_four_primes():
    with pytest.raises(DomainError):
        counting_report(conifold_potential(), default_stability(), (2, 3, 5))
    with pytest.raises(DomainError):
        counting_report(conifold_potential(), default_stability(), (2, 3, 5, 9))


def test_report_excludes_degenerate_primes():
    # derivative coefficients are 2, 4, 6, 10, so 2, 3 and 5 divide some
    # numerator and those counts cannot join the interpolation
    deformed = _diagonal_potential(1, 2, 3, 5)
    report = counting_report(deformed, default_stability(), (2, 3, 5, 7, 11, 13))
    assert report.excluded == (2, 3, 5)
    assert report.counts[5] == 10
    assert report.polynomial is None
    assert "fewer than four usable primes" in report.note


def test_report_refuses_a_stability_outside_the_chamber_at_degenerate_primes():
    # 2, 3, 5 and 7 all divide 210.  Times 210 the relations vanish over Q,
    # so each is counted and none is excluded; over 210 none is counted,
    # since each divides a denominator.  The stability is refused either
    # way, as it is for the unscaled potential.
    terms = conifold_potential().terms
    theta = StabilityParameter(-2, 1, 1)
    for scale in (1, 210, Fraction(1, 210)):
        potential = CyclicPotential(conifold_quiver(), {w: scale * c for w, c in terms.items()})
        with pytest.raises(DomainError, match="outside the framed chamber"):
            counting_report(potential, theta, (2, 3, 5, 7))


def _reference_exclusions(table, primes):
    """The primes where the relations change shape, by a keying of their own.

    The count sums the coefficients of the paths of one commuting monomial,
    here keyed by the sorted labels of a path; a prime is degenerate when
    it divides a path denominator or a numerator or denominator of a nonzero sum.
    """
    coeffs = [c for derivative in table.values() for c in derivative.values()]
    sums = []
    for derivative in table.values():
        by_monomial = {}
        for path, c in derivative.items():
            key = tuple(sorted(path))
            by_monomial[key] = by_monomial.get(key, 0) + c
        sums += [c for c in by_monomial.values() if c]
    return sorted(
        {p for c in coeffs for p in primes if c.denominator % p == 0}
        | {p for c in sums for p in primes if c.numerator % p == 0 or c.denominator % p == 0}
    )


def _compiled_exclusions(table, primes):
    """The primes where the compile finds an undefined coefficient or drops a nonzero term."""
    return [p for p in primes if _commuting_relations(table, p)[1:] != (None, False)]


def test_degenerate_primes_match_the_jacobi_generators():
    primes = (2, 3, 5, 7, 11, 13)
    per_path = 0
    for potential in _reference_potentials():
        table = jacobi_generators(potential)
        want = _reference_exclusions(table, primes)
        assert _compiled_exclusions(table, primes) == want
        coeffs = [c for derivative in table.values() for c in derivative.values()]
        per_path += want != sorted({p for c in coeffs for p in primes if c.numerator * c.denominator % p == 0})
    # the rule that read each path coefficient alone differs on these
    assert per_path == 5


def test_the_compile_excludes_by_the_reference_rule_on_random_potentials():
    # random words up to length 6 share commuting monomials, so their
    # coefficients, with denominators from {1, 2, 3, 5, 6}, often cancel mod p
    rng = Random(17)
    quiver = conifold_quiver()
    primes = (2, 3, 5, 7, 11, 13)

    def word():
        return tuple(x for _ in range(rng.randint(1, 3)) for x in (rng.choice(("a1", "a2")), rng.choice(("b1", "b2"))))

    def coefficient():
        return Fraction(rng.choice((1, -1, 2, -3, 4, 5, 7)), rng.choice((1, 2, 3, 5, 6)))

    potentials = [CyclicPotential(quiver, {word(): coefficient() for _ in range(rng.randint(1, 5))}) for _ in range(300)]
    for coeff in (2, 1):  # a1 b1 a2 b2 + coeff * a1 b2 a2 b1 cancels where p divides 1 + coeff
        potentials.append(CyclicPotential(quiver, {("a1", "b1", "a2", "b2"): 1, ("a1", "b2", "a2", "b1"): coeff}))
    potentials += [conifold_potential().scale(s) for s in (Fraction(1, 3), 210, Fraction(1, 210))]
    undefined = dropped = 0
    for potential in potentials:
        table = jacobi_generators(potential)
        assert _compiled_exclusions(table, primes) == _reference_exclusions(table, primes), potential.terms
        for p in primes:
            _, bad, cancelled = _commuting_relations(table, p)
            undefined += bad is not None
            dropped += cancelled
    # the sweep reaches both verdicts, not only one of them
    assert undefined > 100 and dropped > 100


def test_report_excludes_a_prime_where_two_denominators_cancel():
    # the derivative by a1 is (1/2) b1 a2 b2 + (1/3) b2 a2 b1, one monomial
    # whose coefficient 5/6 vanishes at 5 while no path denominator holds 5
    potential = CyclicPotential(
        conifold_quiver(), {("a1", "b1", "a2", "b2"): Fraction(1, 2), ("a1", "b2", "a2", "b1"): Fraction(1, 3)}
    )
    report = counting_report(potential, default_stability(), (2, 3, 5, 7, 11, 13))
    assert report.excluded == (2, 3, 5)
    assert report.counts == {5: 150, 7: 32, 11: 52, 13: 62}
    assert report.polynomial is None
    for p in (5, 7):
        assert count_points(potential, default_stability(), p) == _reference_count(potential, (-1, -1, 2), p)


def test_report_keeps_a_prime_that_divides_only_a_word_denominator():
    # the derivative of (1/2) a1 b1 a1 b1 by a1 is b1 a1 b1 twice over,
    # coefficient 1, so 2 divides no path denominator and is counted and fit
    potential = CyclicPotential(conifold_quiver(), {("a1", "b1", "a1", "b1"): Fraction(1, 2)})
    report = counting_report(potential, default_stability(), (2, 3, 5, 7))
    assert report.excluded == ()
    assert report.counts == {2: 8, 3: 18, 5: 50, 7: 98}
    assert report.polynomial == (0, 0, 2, 0)
    assert report.matches_classical is False


@pytest.mark.parametrize(
    "coeff, primes, degenerate",
    [(2, (3, 5, 7, 11, 13, 17), 3), (1, (2, 3, 5, 7, 11), 2)],
    ids=["cancels-at-3", "cancels-at-2"],
)
def test_report_excludes_a_prime_where_the_relations_cancel(coeff, primes, degenerate):
    # every relation of a1 b1 a2 b2 + coeff * a1 b2 a2 b1 is (1 + coeff)
    # times one monomial, so where p divides 1 + coeff the count is
    # p^2 (p + 1), the whole space, and no path coefficient shows it
    potential = CyclicPotential(conifold_quiver(), {("a1", "b1", "a2", "b2"): 1, ("a1", "b2", "a2", "b1"): coeff})
    report = counting_report(potential, default_stability(), primes)
    assert report.excluded == (degenerate,)
    assert report.counts[degenerate] == degenerate ** 2 * (degenerate + 1)
    assert all(report.counts[p] == 5 * p - 3 for p in primes if p != degenerate)
    assert report.polynomial == (-3, 5, 0, 0)
    assert report.note == "cubic fit consistent across included primes"


def test_report_unit_deformation_is_not_polynomial():
    ones = _diagonal_potential(1, 1, 1, 1)
    theta = default_stability()

    report = counting_report(ones, theta, (3, 7, 11, 13))
    assert report.counts == {3: 4, 7: 8, 11: 12, 13: 62}
    assert report.polynomial == (
        Fraction(-457, 5),
        Fraction(267, 5),
        Fraction(-42, 5),
        Fraction(2, 5),
    )
    assert report.euler_characteristic == -46
    assert report.matches_classical is False

    # one more prime exposes the fit as an artifact of four points
    wider = counting_report(ones, theta, (3, 7, 11, 13, 17))
    assert wider.counts[17] == 82
    assert wider.polynomial is None
    assert wider.euler_characteristic is None
    assert "not fit by a single cubic" in wider.note


def test_report_json_shape():
    report = counting_report(conifold_potential(), default_stability(), (2, 3, 5, 7))
    blob = report.to_json()
    assert blob["theta"] == ["-1", "-1", "2"]
    assert blob["counts"]["7"] == 392
    assert blob["polynomial"] == ["0", "0", "1", "1"]
    assert blob["euler_characteristic"] == "2"
    assert blob["matches_classical"] is True
    assert isinstance(report, CountReport)


def test_a_report_reads_the_relation_table_once(count_calls):
    calls = count_calls(dtcount, "jacobi_generators")
    report = counting_report(conifold_potential(), default_stability(), (2, 3, 5, 7, 11, 13))
    assert sorted(report.counts) == [2, 3, 5, 7, 11, 13]
    assert len(calls) == 1


# -- reference: a brute force over every gauge-fixed point ---------------

# (label, source, target) of the framed conifold quiver, vertices (v0, v1, vinf)
REFERENCE_ARROWS = (
    ("a1", 0, 1), ("a2", 0, 1), ("b1", 1, 0), ("b2", 1, 0), ("i", 2, 0),
)
# the first two keep every (b1, b2) stable; (-1, 0, 1) makes (b1, b2) = (0, 0)
# unstable, so a slice's stable points are a proper subset of F_p^2
REFERENCE_THETAS = ((-1, -1, 2), (-2, -1, 3), (-1, 0, 1))


def _reference_stable(scalars, theta):
    """King stability from the slope definition at dimension (1, 1, 1).

    ``scalars`` maps each framed arrow label to its value; a subdimension
    vector d carries a subrepresentation when no arrow with a nonzero
    scalar leaves a vertex of d for one outside it.
    """
    weights = [Fraction(w) for w in theta]
    total = sum(weights) / 3
    for d in product((0, 1), repeat=3):
        if sum(d) in (0, 3):
            continue
        closed = all(
            not (d[src] and not d[tgt] and scalars[label])
            for label, src, tgt in REFERENCE_ARROWS
        )
        if closed and sum(w for w, x in zip(weights, d) if x) / sum(d) >= total:
            return False
    return True


def _reference_count(potential, theta, p):
    """Count by multiplying out every word of every Jacobi generator.

    Returns None when some coefficient has no value mod p.
    """
    relations = []
    for derivative in jacobi_generators(potential).values():
        terms = []
        for path, frac in derivative.items():
            if frac.denominator % p == 0:
                return None
            terms.append((frac.numerator * pow(frac.denominator, -1, p), path))
        relations.append(terms)
    raw = 0
    for a1, a2, b1, b2 in product(range(p), repeat=4):
        scalars = {"a1": a1, "a2": a2, "b1": b1, "b2": b2, "i": 1}
        if not _reference_stable(scalars, theta):
            continue
        holds = True
        for terms in relations:
            total = 0
            for coeff, word in terms:
                for label in word:
                    coeff *= scalars[label]
                total += coeff
            holds = holds and total % p == 0
        raw += holds
    assert raw % (p - 1) == 0
    return raw // (p - 1)


def _reference_potentials():
    rng = Random(11)
    quiver = conifold_quiver()

    def entry():
        return Fraction(rng.choice((1, -1, 2, -3, 4, 5, 7)), rng.choice((1, 1, 1, 2, 3)))

    def symmetric(fill):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for r in range(4):
            for c in range(r, 4):
                rows[r][c] = rows[c][r] = fill(r, c)
        return sym_matrix_to_potential(SymmetricPotentialMatrix(rows))

    def alternating(pairs):
        return tuple(x for _ in range(pairs) for x in (rng.choice(("a1", "a2")), rng.choice(("b1", "b2"))))

    out = [symmetric(lambda r, c: entry()) for _ in range(2)]
    out.append(symmetric(lambda r, c: Fraction(0)))
    v = (1, -2, 0, 3)
    out.append(symmetric(lambda r, c: Fraction(3, 2) * v[r] * v[c]))
    u = (0, 1, 1, -1)
    out.append(symmetric(lambda r, c: v[r] * v[c] - Fraction(2, 5) * u[r] * u[c]))
    out.append(conifold_potential().scale(Fraction(-3, 2)))
    for _ in range(2):
        terms = {alternating(1): entry() for _ in range(2)}
        terms.update({alternating(2): entry() for _ in range(3)})
        out.append(CyclicPotential(quiver, terms))
    out.append(CyclicPotential(quiver, {alternating(3): entry() for _ in range(3)}))
    out.append(CyclicPotential(quiver, {("a1", "b2") * 3: Fraction(1, 3), ("a2", "b1", "a1", "b1"): 1}))
    return out


def test_count_points_matches_reference_brute_force():
    for potential in _reference_potentials():
        for theta in REFERENCE_THETAS:
            stability = StabilityParameter(*theta)
            for p in (2, 3, 5, 7):
                want = _reference_count(potential, theta, p)
                if want is None:
                    with pytest.raises(DomainError):
                        count_points(potential, stability, p)
                else:
                    assert count_points(potential, stability, p) == want, (potential, theta, p)


def test_count_points_matches_reference_brute_force_at_eleven():
    # the benchmark's largest prime, where most (a1, a2) slices are enumerated
    theta = REFERENCE_THETAS[0]
    stability = StabilityParameter(*theta)
    deformed = _diagonal_potential(Fraction(3, 2), -4, Fraction(9, 4), -6)
    dense = _reference_potentials()[0]
    assert _reference_count(deformed, theta, 11) == 12
    for potential in (deformed, dense):
        assert count_points(potential, stability, 11) == _reference_count(potential, theta, 11)


def test_relations_are_substituted_once_per_slice(count_calls):
    # each (a1, a2) slice substitutes into the relations once, whether it
    # is then taken whole or enumerated over (b1, b2)
    dense = _reference_potentials()[0]
    calls = count_calls(dtcount, "_on_slice")
    count_points(dense, default_stability(), 11)
    assert len(calls) == 11 ** 2 - 1
    del calls[:]
    satisfies_relations(FramedRep.from_ints(11, 3, 5, 7, 2, 1), dense)
    assert len(calls) == 1


def test_one_evaluator_filters_every_slice(count_calls):
    # the count hands each slice's stable points to the evaluator, also
    # on slices where every relation vanishes; a point test is a one-point list
    dense = _reference_potentials()[0]
    calls = count_calls(dtcount, "_solutions")
    for potential in (dense, conifold_potential()):
        del calls[:]
        count_points(potential, default_stability(), 11)
        assert len(calls) == 11 ** 2 - 1
    # the classical relations vanish identically, so every slice is whole
    assert all(not polys for polys, _, _ in calls)
    del calls[:]
    satisfies_relations(FramedRep.from_ints(11, 3, 5, 7, 2, 1), dense)
    assert [points for _, points, _ in calls] == [[(7, 2)]]


def _is_derivative_table(value):
    return isinstance(value, dict) and bool(value) and all(isinstance(v, dict) for v in value.values())


def test_a_refused_count_keeps_no_derivative_table():
    # a caller may keep a refusal, and with it the frames of its traceback;
    # none of them holds the table of jacobi_generators
    fifth = _diagonal_potential(1, 2, 3, Fraction(1, 5))
    assert _is_derivative_table(jacobi_generators(fifth))
    for refuse in (
        lambda: count_points(fifth, default_stability(), 5),
        lambda: satisfies_relations(FramedRep.from_ints(5, 1, 1, 1, 1, 1), fifth),
    ):
        with pytest.raises(DomainError, match="not defined in characteristic 5") as info:
            refuse()
        frames = [frame for frame, _ in traceback.walk_tb(info.value.__traceback__)]
        assert len(frames) > 1
        for frame in frames:
            assert not any(_is_derivative_table(v) for v in frame.f_locals.values()), frame.f_code.co_name


def test_count_points_refuses_in_a_fixed_order():
    # each case also breaks every rule after the one it names: 5 divides
    # a denominator of the potential and every modulus below
    framed = CyclicPotential(framed_conifold_quiver(), {("a1", "b1"): Fraction(1, 5)})
    fifth = _diagonal_potential(1, 2, 3, Fraction(1, 5))
    outside = StabilityParameter(-3, 1, 2)
    theta = default_stability()
    large = 5 * MAX_COUNT_PRIME
    cases = (
        (framed, outside, 2.5, "relations are defined for conifold potentials"),
        (framed, outside, large, "relations are defined for conifold potentials"),
        (fifth, outside, large, "stability parameter is outside the framed chamber"),
        (fifth, theta, large,
         f"prime {large} exceeds the configured bound {MAX_COUNT_PRIME}; a point count enumerates p^4 representations"),
        (fifth, theta, 25, "25 is not prime"),
        (fifth, theta, 5, "coefficient 2/5 is not defined in characteristic 5"),
    )
    for potential, stability, p, message in cases:
        with pytest.raises(DomainError) as info:
            count_points(potential, stability, p)
        assert str(info.value) == message, (p, message)
    # a modulus that is not an int is refused after the conifold check, before the stability
    with pytest.raises(TypeError):
        count_points(fifth, outside, 2.5)


def test_satisfies_relations_refuses_in_a_fixed_order():
    framed = CyclicPotential(framed_conifold_quiver(), {("a1", "b1"): Fraction(1, 5)})
    fifth = _diagonal_potential(1, 2, 3, Fraction(1, 5))
    rep = FramedRep.from_ints(5, 1, 1, 1, 1, 1)
    with pytest.raises(DomainError) as info:
        satisfies_relations(rep, framed)
    assert str(info.value) == "relations are defined for conifold potentials"
    # a representation over a modulus that is not prime is refused when it is built
    with pytest.raises(ValueError, match="modulus 25 is not prime"):
        FramedRep.from_ints(25, 1, 1, 1, 1, 1)
    with pytest.raises(DomainError) as info:
        satisfies_relations(rep, fifth)
    assert str(info.value) == "coefficient 2/5 is not defined in characteristic 5"


def test_satisfies_relations_matches_reference_words():
    rng = Random(5)
    for potential in _reference_potentials():
        # the same potential with its terms inserted in reverse order
        reversed_terms = CyclicPotential(potential.quiver, dict(reversed(list(potential.terms.items()))))
        for p in (3, 5):
            coeffs = [c for derivative in jacobi_generators(potential).values() for c in derivative.values()]
            defined = all(c.denominator % p for c in coeffs)
            for _ in range(40):
                values = tuple(rng.randrange(p) for _ in range(5))
                rep = FramedRep.from_ints(p, *values)
                if not defined:
                    # the message names the first bad coefficient in the
                    # order of jacobi_generators, whatever the term order
                    first = next(c for c in coeffs if c.denominator % p == 0)
                    for phi in (potential, reversed_terms):
                        with pytest.raises(DomainError) as info:
                            satisfies_relations(rep, phi)
                        assert str(info.value) == f"coefficient {first} is not defined in characteristic {p}"
                    continue
                scalars = dict(zip(("a1", "a2", "b1", "b2", "i"), values))
                want = True
                for derivative in jacobi_generators(potential).values():
                    total = 0
                    for path, frac in derivative.items():
                        term = frac.numerator * pow(frac.denominator, -1, p)
                        for label in path:
                            term *= scalars[label]
                        total += term
                    want = want and total % p == 0
                assert satisfies_relations(rep, potential) == want


def test_stability_table_matches_slope_rule():
    # (-1, 1, 0) and (0, 0, 0) put some subpattern exactly at the total slope
    others = ((-3, 1, 2), (1, 1, -2), (-1, 1, 0), (0, 0, 0), (Fraction(-1, 2), Fraction(-3, 2), 2))
    for theta in REFERENCE_THETAS + others:
        stability = StabilityParameter(*theta)
        for bits in product((0, 1), repeat=5):
            scalars = dict(zip(("a1", "a2", "b1", "b2", "i"), bits))
            rep = FramedRep.from_ints(2, *bits)
            assert is_theta_stable(rep, stability) == _reference_stable(scalars, theta), (theta, bits)


def test_count_bound_refuses_large_primes():
    phi = conifold_potential()
    theta = default_stability()
    assert is_prime(MAX_COUNT_PRIME)
    assert count_points(_diagonal_potential(1, 2, 3, 5), theta, MAX_COUNT_PRIME) >= 0
    larger = next(q for q in range(MAX_COUNT_PRIME + 1, 2 * MAX_COUNT_PRIME) if is_prime(q))
    with pytest.raises(DomainError, match="exceeds the configured bound"):
        count_points(phi, theta, larger)
    # the report refuses before it counts anything, also at an excluded prime
    deformed = _diagonal_potential(1, 2, 3, larger)
    with pytest.raises(DomainError, match="exceeds the configured bound"):
        counting_report(deformed, theta, (2, 3, 5, 7, larger))
