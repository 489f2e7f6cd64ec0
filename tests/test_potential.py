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
    SymmetricPotentialMatrix,
    classify_stability_potential,
    covering_image_invariants,
    fiber_experiment,
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
    with pytest.raises(DomainError):
        potential_to_sym_matrix(
            CyclicPotential(conifold_quiver(), {("a1", "b1"): Fraction(1)})
        )
    with pytest.raises(DomainError):
        potential_to_sym_matrix(
            CyclicPotential(
                conifold_quiver(),
                {("a1", "b1", "b2", "a2", "b1", "a1"): Fraction(1)},
            )
        )
    with pytest.raises(DomainError):
        potential_to_sym_matrix(
            CyclicPotential(
                conifold_quiver(),
                {("a1", "b1", "a2", "b2", "a1", "b1", "a2", "b2"): Fraction(1)},
            )
        )


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
