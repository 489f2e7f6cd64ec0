"""Path algebra, cyclic potentials, derivatives, and graded dimensions."""

from fractions import Fraction
from random import Random

import pytest

from ncmoduli.errors import DomainError
from ncmoduli.exact import GaussianRational
from ncmoduli.quiver import (
    MAX_GRADED_LENGTH,
    AlgebraElement,
    CyclicPotential,
    conifold_potential,
    conifold_quiver,
    double_cover_quiver,
    enumerate_paths,
    framed_conifold_quiver,
    graded_dimension,
    jacobi_generators,
    partial_derivative,
    potential_double_cover,
)

Q = conifold_quiver()


def _elem(labels, coeff=1):
    return AlgebraElement(Q, {Q.path(labels): coeff})


def test_quiver_shapes():
    assert Q.vertices == ("v0", "v1")
    assert Q.arrow_labels() == ("a1", "a2", "b1", "b2")
    assert Q.source("a1") == "v0" and Q.target("a1") == "v1"
    assert Q.source("b2") == "v1" and Q.target("b2") == "v0"
    cover = double_cover_quiver()
    assert len(cover.vertices) == 4 and len(cover.arrows) == 8
    framed = framed_conifold_quiver()
    assert framed.source("i") == "vinf" and framed.target("i") == "v0"


def test_path_composition_rules():
    ab = Q.path(["b1", "a1"])
    assert ab.source == "v0" and ab.target == "v0" and ab.length == 2
    with pytest.raises(DomainError):
        Q.path(["a1", "a2"])  # a after a cannot compose
    with pytest.raises(DomainError):
        Q.path(["nope"])
    unit = Q.unit("v0")
    assert unit.compose(unit) == unit
    assert ab.compose(unit) == ab
    assert unit.compose(ab) == ab


def test_algebra_element_products():
    a1 = _elem(["a1"])
    a2 = _elem(["a2"])
    b1 = _elem(["b1"])
    assert (a1 * a2).is_zero()  # endpoints mismatch kills the product
    assert (b1 * a1) == _elem(["b1", "a1"])
    x = a1 + a2.scale(2)
    y = b1
    assert (y * x) == _elem(["b1", "a1"]) + _elem(["b1", "a2"], 2)


def test_algebra_element_associativity_random():
    rng = Random(7)
    labels = Q.arrow_labels()
    units = [AlgebraElement(Q, {Q.unit(v): 1}) for v in Q.vertices]

    def rand_elem():
        out = AlgebraElement(Q, {})
        for _ in range(rng.randint(1, 3)):
            out = out + AlgebraElement(
                Q, {Q.path([rng.choice(labels)]): GaussianRational(rng.randint(-3, 3))}
            )
        return out

    for _ in range(30):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)
    one = units[0] + units[1]
    x = rand_elem()
    assert one * x == x and x * one == x


def test_cyclic_potential_canonicalizes_rotations():
    w = ("a1", "b1", "a2", "b2")
    rotated = ("a2", "b2", "a1", "b1")
    p1 = CyclicPotential(Q, {w: Fraction(1)})
    p2 = CyclicPotential(Q, {rotated: Fraction(1)})
    assert p1 == p2
    merged = CyclicPotential(Q, {w: Fraction(1), rotated: Fraction(2)})
    assert merged.coefficient(w) == 3
    with pytest.raises(DomainError):
        CyclicPotential(Q, {("a1", "a2", "b1", "b2"): Fraction(1)})
    with pytest.raises(DomainError):
        CyclicPotential(Q, {("a1", "b1", "a1"): Fraction(1)})  # does not close up


def _rotations(potential):
    """Each word (arrow,) + path read off the derivatives, with its coefficient."""
    return {
        (arrow,) + path.arrows: coeff
        for arrow in potential.quiver.arrow_labels()
        for path, coeff in partial_derivative(potential, arrow).items()
    }


def test_derivatives_handle_rotational_symmetry():
    square = CyclicPotential(Q, {("a1", "b1", "a1", "b1"): Fraction(1)})
    assert _rotations(square) == {
        ("a1", "b1", "a1", "b1"): Fraction(2),
        ("b1", "a1", "b1", "a1"): Fraction(2),
    }


def test_conifold_potential_derivatives():
    phi = conifold_potential()
    d_a1 = partial_derivative(phi, "a1")
    expected = _elem(["b1", "a2", "b2"]) + _elem(["b2", "a2", "b1"], -1)
    assert d_a1 == expected
    d_b2 = partial_derivative(phi, "b2")
    assert d_b2 == _elem(["a1", "b1", "a2"]) + _elem(["a2", "b1", "a1"], -1)
    with pytest.raises(DomainError):
        partial_derivative(phi, "c9")


def test_square_word_derivative_doubles():
    square = CyclicPotential(Q, {("a1", "b1", "a1", "b1"): Fraction(1)})
    d = partial_derivative(square, "a1")
    assert d == _elem(["b1", "a1", "b1"], 2)
    assert partial_derivative(square, "a2").is_zero()


def test_jacobi_generators_order_and_degrees():
    gens = jacobi_generators(conifold_potential())
    assert len(gens) == 4
    for g in gens:
        for path, _ in g.items():
            assert path.length == 3
    # sorted by arrow label: derivatives by a1, a2, b1, b2
    first_paths = [g.items()[0][0].arrows for g in gens]
    assert first_paths[0][0].startswith("b") and first_paths[2][0].startswith("a")
    assert jacobi_generators(CyclicPotential(Q, {})) == ()


# periodic words: (a1 b1)^2, (a1 b1)^3 and (a1 b1 a2 b2)^2
PERIODIC_WORDS = (("a1", "b1") * 2, ("a1", "b1") * 3, ("a1", "b1", "a2", "b2") * 2)


def _multiplicity_potentials():
    rng = Random(23)
    out = []
    for _ in range(12):
        terms = {w: Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 2, 3))) for w in PERIODIC_WORDS}
        for _ in range(4):
            pairs = rng.choice((1, 2, 2, 3, 4))
            word = tuple(x for _ in range(pairs) for x in (rng.choice(("a1", "a2")), rng.choice(("b1", "b2"))))
            terms[word] = Fraction(rng.choice((1, -2, 3, 7)), rng.choice((1, 5)))
        out.append(CyclicPotential(Q, terms))
    return out


def test_derivative_multiplicities_match_letter_counts():
    # independent of the library's rotations: the commutative image of
    # d_x W is the partial derivative of the polynomial of W, the sum over
    # words of c * e_x * monomial / x with e_x the number of x's in the word
    labels = Q.arrow_labels()
    for potential in _multiplicity_potentials():
        want = {x: {} for x in labels}
        for word, c in potential.terms.items():
            exps = [word.count(x) for x in labels]
            for k, x in enumerate(labels):
                if exps[k]:
                    key = tuple(e - (j == k) for j, e in enumerate(exps))
                    want[x][key] = want[x].get(key, 0) + c * exps[k]
        for x in labels:
            image = {}
            for path, coeff in partial_derivative(potential, x).items():
                key = tuple(path.arrows.count(y) for y in labels)
                image[key] = image.get(key, 0) + coeff.as_fraction()
            assert {k: v for k, v in image.items() if v} == {k: v for k, v in want[x].items() if v}
        assert jacobi_generators(potential) == tuple(
            d for d in (partial_derivative(potential, x) for x in sorted(labels)) if not d.is_zero()
        )
        # each distinct rotation of a word of length n with d of them gets c * n / d
        expected = {}
        for word, c in potential.terms.items():
            rotations = {word[k:] + word[:k] for k in range(len(word))}
            expected.update((rot, c * len(word) / len(rotations)) for rot in rotations)
        assert _rotations(potential) == expected


def test_path_enumeration_counts():
    assert len(list(enumerate_paths(Q, "v0", "v0", 0))) == 1
    assert len(list(enumerate_paths(Q, "v0", "v0", 2))) == 4
    assert len(list(enumerate_paths(Q, "v0", "v1", 2))) == 0
    assert len(list(enumerate_paths(Q, "v0", "v1", 3))) == 8


def test_graded_dimension_conifold():
    phi = conifold_potential()
    assert graded_dimension(phi, "v0", "v0", 4) == [1, 0, 4, 0, 9]
    assert graded_dimension(phi, "v0", "v1", 3) == [0, 2, 0, 6]


def test_graded_dimension_zero_potential():
    zero = CyclicPotential(Q, {})
    assert graded_dimension(zero, "v0", "v0", 4) == [1, 0, 4, 0, 16]


def test_graded_dimension_guards():
    phi = conifold_potential()
    with pytest.raises(DomainError, match="exceeds the configured bound"):
        graded_dimension(phi, "v0", "v0", MAX_GRADED_LENGTH + 1)
    assert len(graded_dimension(phi, "v0", "v0", MAX_GRADED_LENGTH)) == MAX_GRADED_LENGTH + 1
    with pytest.raises(DomainError):
        graded_dimension(phi, "v9", "v0", 2)
    with pytest.raises(DomainError):
        graded_dimension(phi, "v0", "v0", -1)
    mixed = CyclicPotential(
        Q, {("a1", "b1"): Fraction(1), ("a1", "b1", "a2", "b2"): Fraction(1)}
    )
    with pytest.raises(DomainError):
        graded_dimension(mixed, "v0", "v0", 2)


def test_double_cover_of_base_potential():
    cover = double_cover_quiver()
    lifted = potential_double_cover(conifold_potential())
    expected = CyclicPotential(
        cover,
        {
            ("a1", "b1'", "a2'", "b2"): Fraction(1),
            ("a1'", "b1", "a2", "b2'"): Fraction(1),
            ("a1", "b2'", "a2'", "b1"): Fraction(-1),
            ("a1'", "b2", "a2", "b1'"): Fraction(-1),
        },
    )
    assert lifted == expected


def test_double_cover_merges_symmetric_lifts():
    square = CyclicPotential(Q, {("a1", "b1", "a1", "b1"): Fraction(1)})
    lifted = potential_double_cover(square)
    # the two sheet lifts of this cycle are rotations of each other
    assert lifted == CyclicPotential(
        double_cover_quiver(), {("a1", "b1'", "a1'", "b1"): Fraction(2)}
    )


def test_double_cover_rejects_other_quivers():
    cover_pot = potential_double_cover(conifold_potential())
    with pytest.raises(DomainError):
        potential_double_cover(cover_pot)
