"""Paths, cyclic potentials, their Jacobi relations, and graded dimensions."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from ncmoduli.errors import DomainError
from ncmoduli.quiver import (
    MAX_GRADED_LENGTH,
    CyclicPotential,
    conifold_potential,
    conifold_quiver,
    double_cover_quiver,
    enumerate_paths,
    framed_conifold_quiver,
    graded_dimension,
    jacobi_generators,
    potential_double_cover,
)

Q = conifold_quiver()


def test_quiver_shapes():
    assert Q.vertices == ("v0", "v1")
    assert Q.arrow_labels() == ("a1", "a2", "b1", "b2")
    assert Q.source("a1") == "v0" and Q.target("a1") == "v1"
    assert Q.source("b2") == "v1" and Q.target("b2") == "v0"
    cover = double_cover_quiver()
    assert len(cover.vertices) == 4 and len(cover.arrows) == 8
    framed = framed_conifold_quiver()
    assert framed.source("i") == "vinf" and framed.target("i") == "v0"


def _composable_words(quiver, source, target, length):
    """By brute force: every label word of the length that composes from source to target.

    Words are leftmost-first, so the rightmost label is applied first and
    each label's source is the target of the label to its right.
    """
    ends = {label: (src, tgt) for label, src, tgt in quiver.arrows}
    words = set()
    for word in product(sorted(ends), repeat=length):
        if not word:
            if source == target:
                words.add(word)
            continue
        composes = all(ends[left][0] == ends[right][1] for left, right in zip(word, word[1:]))
        if composes and ends[word[-1]][0] == source and ends[word[0]][1] == target:
            words.add(word)
    return words


@pytest.mark.parametrize("quiver", [conifold_quiver(), framed_conifold_quiver()], ids=["conifold", "framed"])
def test_enumerate_paths_yields_exactly_the_composable_words(quiver):
    for source, target in product(quiver.vertices, repeat=2):
        for length in range(5):
            paths = list(enumerate_paths(quiver, source, target, length))
            assert len(paths) == len(set(paths))
            assert set(paths) == _composable_words(quiver, source, target, length), (source, target, length)
    # a after a cannot compose, b after a can
    words = {w for s, t in product(Q.vertices, repeat=2) for w in enumerate_paths(Q, s, t, 2)}
    assert ("a1", "a2") not in words and ("b1", "a1") in words and len(words) == 8


def test_cyclic_potential_canonicalizes_rotations():
    w = ("a1", "b1", "a2", "b2")
    rotated = ("a2", "b2", "a1", "b1")
    p1 = CyclicPotential(Q, {w: Fraction(1)})
    p2 = CyclicPotential(Q, {rotated: Fraction(1)})
    assert p1 == p2
    merged = CyclicPotential(Q, {w: Fraction(1), rotated: Fraction(2)})
    assert merged.terms == {w: 3}
    with pytest.raises(DomainError):
        CyclicPotential(Q, {("a1", "a2", "b1", "b2"): Fraction(1)})
    with pytest.raises(DomainError):
        CyclicPotential(Q, {("a1", "b1", "a1"): Fraction(1)})  # does not close up
    for word in (("c9",), ("a1", "c9")):
        with pytest.raises(DomainError, match="unknown arrow 'c9' in quiver conifold"):
            CyclicPotential(Q, {word: Fraction(1)})


def _rotations(potential):
    """Each word (arrow,) + path read off the derivatives, with its coefficient."""
    return {
        (arrow,) + path: coeff
        for arrow, derivative in jacobi_generators(potential).items()
        for path, coeff in derivative.items()
    }


def test_derivatives_handle_rotational_symmetry():
    square = CyclicPotential(Q, {("a1", "b1", "a1", "b1"): Fraction(1)})
    assert _rotations(square) == {
        ("a1", "b1", "a1", "b1"): Fraction(2),
        ("b1", "a1", "b1", "a1"): Fraction(2),
    }


CONIFOLD_TABLE = {
    "a1": {("b1", "a2", "b2"): 1, ("b2", "a2", "b1"): -1},
    "a2": {("b1", "a1", "b2"): -1, ("b2", "a1", "b1"): 1},
    "b1": {("a1", "b2", "a2"): -1, ("a2", "b2", "a1"): 1},
    "b2": {("a1", "b1", "a2"): 1, ("a2", "b1", "a1"): -1},
}


def test_conifold_potential_derivatives():
    table = jacobi_generators(conifold_potential())
    # in label order, each derivative in (length, word) order, Fraction coefficients
    assert [(arrow, list(d.items())) for arrow, d in table.items()] == [
        (arrow, list(d.items())) for arrow, d in CONIFOLD_TABLE.items()
    ]
    assert all(type(c) is Fraction for d in table.values() for c in d.values())


def test_square_word_derivative_doubles():
    square = CyclicPotential(Q, {("a1", "b1", "a1", "b1"): Fraction(1)})
    assert jacobi_generators(square) == {"a1": {("b1", "a1", "b1"): 2}, "b1": {("a1", "b1", "a1"): 2}}


def test_jacobi_generators_order_and_degrees():
    table = jacobi_generators(conifold_potential())
    assert list(table) == ["a1", "a2", "b1", "b2"]
    for arrow, derivative in table.items():
        # each path runs from the arrow's target back to its source
        back = set(enumerate_paths(Q, Q.target(arrow), Q.source(arrow), 3))
        assert derivative and set(derivative) <= back
    assert jacobi_generators(CyclicPotential(Q, {})) == {}


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
        table = jacobi_generators(potential)
        for x in labels:
            image = {}
            for path, coeff in table.get(x, {}).items():
                key = tuple(path.count(y) for y in labels)
                image[key] = image.get(key, 0) + coeff
            assert {k: v for k, v in image.items() if v} == {k: v for k, v in want[x].items() if v}
        # nonzero derivatives only, in label order
        assert list(table) == sorted(table) and all(table.values())
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
