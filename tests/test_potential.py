"""Potential-side invariants, the covering map, fibers, and spectra."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from ncmoduli.errors import DomainError
from ncmoduli.exact import GaussianRational
from ncmoduli.potential import (
    SPECTRUM_RESIDUAL_BOUND,
    SymmetricPotentialMatrix,
    _newton,
    classify_stability_potential,
    covering_image_invariants,
    fiber_experiment,
    hamiltonian_matrix,
    invariants_potential,
    potential_to_quintuple,
    potential_to_sym_matrix,
    reconstruct_spectrum,
    sym_matrix_to_potential,
    verify_covering_identities,
    weighted_point_potential,
)
from ncmoduli.quintuple import J_MATRIX, WeightedPoint, weighted_point_equal
from ncmoduli.quiver import CyclicPotential, conifold_potential, conifold_quiver


def _random_symmetric(rng, span=6, maxden=5):
    vals = [[Fraction(0)] * 4 for _ in range(4)]
    for r in range(4):
        for c in range(r, 4):
            v = Fraction(rng.randint(-span, span), rng.randint(1, maxden))
            vals[r][c] = v
            vals[c][r] = v
    return SymmetricPotentialMatrix(vals)


def test_base_potential_matrix_is_half_pairing():
    n = potential_to_sym_matrix(conifold_potential())
    assert n.to_exact() == J_MATRIX.scale(Fraction(1, 2))


def test_matrix_potential_roundtrip():
    rng = Random(50)
    for _ in range(20):
        n = _random_symmetric(rng)
        assert potential_to_sym_matrix(sym_matrix_to_potential(n)) == n


def test_potential_roundtrip_through_matrix():
    rng = Random(51)
    labels_a = ("a1", "a2")
    labels_b = ("b1", "b2")
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            word = (
                rng.choice(labels_a),
                rng.choice(labels_b),
                rng.choice(labels_a),
                rng.choice(labels_b),
            )
            terms[word] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        phi = CyclicPotential(conifold_quiver(), terms)
        back = sym_matrix_to_potential(potential_to_sym_matrix(phi))
        assert back == phi


def test_potentials_share_quiver_and_words():
    # the counts benchmark keeps every potential it builds, so each one
    # should own only its coefficients
    rng = Random(52)
    first, second = (sym_matrix_to_potential(_random_symmetric(rng)) for _ in range(2))
    assert first.quiver is conifold_quiver() and second.quiver is conifold_quiver()
    common = set(first.terms) & set(second.terms)
    assert common
    words = {word: word for word in second.terms}
    for word in common:
        assert words[word] is word


def test_diagonal_matrix_encodes_square_words():
    n = SymmetricPotentialMatrix.diagonal(
        (Fraction(2), Fraction(3), Fraction(5), Fraction(7))
    )
    phi = sym_matrix_to_potential(n)
    assert phi.coefficient(("a1", "b1", "a1", "b1")) == 2
    assert phi.coefficient(("a1", "b2", "a1", "b2")) == 3
    assert phi.coefficient(("a2", "b1", "a2", "b1")) == 5
    assert phi.coefficient(("a2", "b2", "a2", "b2")) == 7


def test_non_quartic_and_non_alternating_rejected():
    for word in (
        ("a1", "b1"),
        ("a1", "b1", "a2", "b2", "a1", "b2"),
        ("a1", "b1", "a2", "b2", "a1", "b1", "a2", "b2"),
    ):
        with pytest.raises(DomainError, match="is not quartic"):
            potential_to_sym_matrix(CyclicPotential(conifold_quiver(), {word: Fraction(1)}))
    # a word that does not alternate is not a cycle of the conifold quiver
    with pytest.raises(DomainError):
        CyclicPotential(conifold_quiver(), {("a1", "b1", "b2", "a2", "b1", "a1"): Fraction(1)})


def test_every_rotation_of_each_word_maps_to_its_entry_and_back():
    a, b = ("a1", "a2"), ("b1", "b2")
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
    for r in range(4):
        for c in range(r, 4):
            (i, j), (k, l) = pairs[r], pairs[c]
            word = (a[i], b[j], a[k], b[l])
            rows = [[Fraction(0)] * 4 for _ in range(4)]
            # the coefficient 1 splits evenly over (r, c) and (c, r)
            rows[r][c] += Fraction(1, 2)
            rows[c][r] += Fraction(1, 2)
            expected = SymmetricPotentialMatrix(rows)
            for s in range(4):
                phi = CyclicPotential(conifold_quiver(), {word[s:] + word[:s]: Fraction(1)})
                n = potential_to_sym_matrix(phi)
                assert n == expected, (word, s)
                assert sym_matrix_to_potential(n) == phi, (word, s)


def test_base_potential_invariants():
    n = potential_to_sym_matrix(conifold_potential())
    inv = invariants_potential(n)
    assert inv.as_tuple() == (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 4))
    assert classify_stability_potential(n) == "semistable"
    point = weighted_point_potential(n)
    assert point.weights == (1, 2, 3, 4)


def test_pairing_matrix_as_coefficients():
    n = SymmetricPotentialMatrix(
        [
            [Fraction(v) for v in row]
            for row in ([0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0])
        ]
    )
    inv = invariants_potential(n)
    assert inv.as_tuple() == (Fraction(4), Fraction(4), Fraction(4), Fraction(4))
    point = weighted_point_potential(n)
    fixture = WeightedPoint(
        (1, 2, 3, 4), tuple(GaussianRational(4) for _ in range(4))
    )
    assert weighted_point_equal(point, fixture)


def test_corner_matrix_is_unstable():
    n = SymmetricPotentialMatrix.diagonal((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    inv = invariants_potential(n)
    assert inv.all_zero()
    assert classify_stability_potential(n) == "unstable"
    with pytest.raises(DomainError):
        weighted_point_potential(n)


def test_stability_matches_nilpotency_of_the_hamiltonian():
    # the reference is the definition: unstable exactly when N J is nilpotent
    rng = Random(55)
    verdicts = {"unstable": 0, "semistable": 0}
    for _ in range(300):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for r in range(4):
            for c in range(r, 4):
                v = Fraction(rng.choice((0, 0, 0, 0, 0, 1, -1, 2)), rng.randint(1, 3))
                rows[r][c] = rows[c][r] = v
        n = SymmetricPotentialMatrix(rows)
        if n.is_zero():
            continue
        expected = "unstable" if hamiltonian_matrix(n).is_nilpotent() else "semistable"
        assert classify_stability_potential(n) == expected, n
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_zero_matrix_rejected():
    zero = SymmetricPotentialMatrix([[Fraction(0)] * 4 for _ in range(4)])
    with pytest.raises(DomainError):
        invariants_potential(zero)
    with pytest.raises(DomainError):
        classify_stability_potential(zero)


def test_asymmetric_matrix_rejected():
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    rows[0][1] = Fraction(1)
    with pytest.raises(DomainError):
        SymmetricPotentialMatrix(rows)


def test_covering_identities_random_sweep():
    rng = Random(52)
    for _ in range(30):
        n = _random_symmetric(rng)
        while n.is_zero():
            n = _random_symmetric(rng)
        assert verify_covering_identities(n)


def test_covering_image_entry_convention():
    rng = Random(53)
    n = _random_symmetric(rng)
    q = potential_to_quintuple(n)
    # row pair (0, 1) -> (i, j) = (0, 1); column pair (2) -> (k, l) = (1, 0)
    assert q[0, 1, 1, 0] == GaussianRational(n[1, 2])
    assert q[1, 1, 0, 0] == GaussianRational(n[3, 0])


def test_covering_prediction_formulas_on_base():
    n = potential_to_sym_matrix(conifold_potential())
    predicted = covering_image_invariants(invariants_potential(n))
    assert predicted == (Fraction(1), Fraction(1, 4), Fraction(1, 16), Fraction(1, 16))


def test_fiber_experiment_frozen_case():
    report = fiber_experiment([Fraction(1), Fraction(2), Fraction(3), Fraction(5)])
    assert report.preimage_count == 4
    assert report.target_consistent
    assert report.odd_patterns_differ
    assert tuple(c.as_fraction() for c in report.target.coords) == (
        Fraction(39),
        Fraction(723),
        Fraction(30),
        Fraction(16419),
    )
    # the identity pattern is among the preimages
    identity = WeightedPoint(
        (1, 2, 3, 4),
        tuple(GaussianRational(v) for v in (11, 39, 161, 723)),
    )
    assert any(weighted_point_equal(identity, p) for p in report.preimages)


def test_fiber_experiment_validates_input():
    with pytest.raises(DomainError):
        fiber_experiment([Fraction(1), Fraction(2), Fraction(3)])
    with pytest.raises(DomainError):
        fiber_experiment([Fraction(1), Fraction(1), Fraction(2), Fraction(3)])
    with pytest.raises(DomainError):
        fiber_experiment([Fraction(-1), Fraction(2), Fraction(3), Fraction(4)])
    with pytest.raises(DomainError):
        fiber_experiment([Fraction(0), Fraction(2), Fraction(3), Fraction(4)])


def test_reconstruct_spectrum_base_potential():
    n = potential_to_sym_matrix(conifold_potential())
    roots = reconstruct_spectrum(n)
    assert len(roots) == 4
    # a fourfold root is conditioned like eps**(1/4); the residual check
    # inside reconstruct_spectrum is the sharp guarantee, not the roots
    assert all(abs(z - 0.5) < 1e-3 for z in roots)


def test_reconstruct_spectrum_random_consistency():
    rng = Random(54)
    for _ in range(10):
        n = _random_symmetric(rng, span=3, maxden=2)
        while n.is_zero():
            n = _random_symmetric(rng, span=3, maxden=2)
        roots = reconstruct_spectrum(n)
        inv = invariants_potential(n)
        for d, target in enumerate(inv.as_tuple(), start=1):
            power_sum = sum(z ** d for z in roots)
            assert abs(power_sum - float(target)) <= 1e-7 * max(1.0, abs(float(target)))


def _power_sum_residual(roots, power_sums):
    return max(
        abs(sum(z ** d for z in roots) - float(t)) / max(1.0, abs(float(t)))
        for d, t in enumerate(power_sums, start=1)
    )


def _reference_matrices(rng):
    """1,000 seeded symmetric N: the criterion-1 range, then square words,
    low-rank, diagonal and near-base matrices (a cluster of four roots)."""
    base = potential_to_sym_matrix(conifold_potential())
    for _ in range(600):
        yield _random_symmetric(rng, span=9, maxden=9)
    for _ in range(100):
        k = rng.randrange(4)
        vals = [[Fraction(0)] * 4 for _ in range(4)]
        vals[k][k] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        yield SymmetricPotentialMatrix(vals)
    for _ in range(100):
        vals = [[Fraction(0)] * 4 for _ in range(4)]
        for _ in range(rng.randint(1, 2)):
            u = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for r in range(4):
                for c in range(4):
                    vals[r][c] += s * u[r] * u[c]
        yield SymmetricPotentialMatrix(vals)
    for _ in range(100):
        yield SymmetricPotentialMatrix.diagonal(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        )
    for _ in range(100):
        scale = 10 ** rng.randint(2, 12)
        vals = [[base[r, c] for c in range(4)] for r in range(4)]
        for r in range(4):
            for c in range(r, 4):
                vals[r][c] += Fraction(rng.randint(-9, 9), scale)
                vals[c][r] = vals[r][c]
        yield SymmetricPotentialMatrix(vals)


def test_reconstruct_spectrum_matches_numpy_reference():
    """No refusal where numpy's companion-matrix roots pass the same check,
    and a worst relative power-sum residual of at most 1e-10."""
    np = pytest.importorskip("numpy")

    refused, worst, count = [], 0.0, 0
    for n in _reference_matrices(Random(55)):
        if n.is_zero():
            continue
        count += 1
        power_sums = invariants_potential(n).as_tuple()
        try:
            worst = max(worst, _power_sum_residual(reconstruct_spectrum(n), power_sums))
        except DomainError:
            e1, e2, e3, e4 = (float(e) for e in _newton(power_sums, 4)[0])
            reference = list(np.roots([1.0, -e1, e2, -e3, e4]))
            if _power_sum_residual(reference, power_sums) <= SPECTRUM_RESIDUAL_BOUND:
                refused.append(n)
    assert count >= 990
    assert refused == []
    assert worst <= 1e-10


def test_reconstruct_spectrum_splits_repeated_roots_exactly():
    base = potential_to_sym_matrix(conifold_potential())
    assert reconstruct_spectrum(base) == [0.5, 0.5, 0.5, 0.5]
    square = SymmetricPotentialMatrix.diagonal([Fraction(3, 7), 0, 0, 0])
    assert sym_matrix_to_potential(square).terms == {("a1", "b1", "a1", "b1"): Fraction(3, 7)}
    assert reconstruct_spectrum(square) == [0, 0, 0, 0]
    # spectrum {1/2, 1/2, -2, 3}: the second level is x - 1/2, and the
    # exact sweeps on the first level land on 1/2 as well
    half = Fraction(1, 2)
    n = SymmetricPotentialMatrix(
        [[0, 0, 0, half], [0, 5 * half, -half, 0], [0, -half, 5 * half, 0], [half, 0, 0, 0]]
    )
    roots = reconstruct_spectrum(n)
    assert roots[1:3] == [0.5, 0.5]
    assert abs(roots[0] + 2) < 1e-12 and abs(roots[3] - 3) < 1e-12


def test_reconstruct_spectrum_real_roots_are_exactly_real():
    """As many roots with imaginary part exactly 0 as the characteristic
    polynomial of N J has real roots, counted with multiplicity by sympy."""
    sympy = pytest.importorskip("sympy")
    j = sympy.Matrix([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]])
    roots = reconstruct_spectrum(SymmetricPotentialMatrix.diagonal([1, 2, 3, 5]))
    assert [z.imag for z in roots] == [0.0] * 4
    for n in _reference_matrices(Random(55)):
        if n.is_zero():
            continue
        nj = sympy.Matrix(4, 4, lambda r, c: sympy.Rational(n[r, c])) * j
        real = sympy.real_roots(nj.charpoly())
        assert sum(z.imag == 0.0 for z in reconstruct_spectrum(n)) == len(real), n


def test_import_does_not_load_numpy():
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    probe = "import sys, ncmoduli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
