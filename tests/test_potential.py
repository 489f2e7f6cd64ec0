"""Potential-side invariants, the covering map, fibers, and spectra."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from ncmoduli import potential
from ncmoduli.errors import DomainError
from ncmoduli.exact import GaussianRational
from ncmoduli.potential import (
    SymmetricPotentialMatrix,
    _trace_nj,
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
from ncmoduli.quiver import (
    CyclicPotential,
    conifold_potential,
    conifold_quiver,
    double_cover_quiver,
    potential_double_cover,
)


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


def _zero_heavy_symmetric(rng):
    """A symmetric N whose upper entries are each zero with probability 3/4."""
    vals = [[Fraction(0)] * 4 for _ in range(4)]
    for r in range(4):
        for c in range(r, 4):
            if rng.randrange(4) == 0:
                vals[r][c] = vals[c][r] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return SymmetricPotentialMatrix(vals)


def test_matrix_potential_roundtrip():
    # the criterion-1 range, square words, low-rank, diagonal and near-base
    # matrices, then zero-heavy ones, the zero matrix among them
    rng = Random(50)
    shapes = list(_reference_matrices(rng)) + [_zero_heavy_symmetric(rng) for _ in range(200)]
    assert any(n.is_zero() for n in shapes)
    for n in shapes:
        phi = sym_matrix_to_potential(n)
        back = potential_to_sym_matrix(phi)
        assert back == n and back.n == n.n
        # a square word's coefficient is its diagonal entry, the very object
        for word, (r, c) in potential._ENTRY.items():
            if r == c and word in phi.terms:
                assert back[r, r] is phi.terms[word]


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
    assert phi.terms == {
        ("a1", "b1", "a1", "b1"): 2,
        ("a1", "b2", "a1", "b2"): 3,
        ("a2", "b1", "a2", "b1"): 5,
        ("a2", "b2", "a2", "b2"): 7,
    }


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


def test_stability_matches_nilpotency_of_the_hamiltonian(count_calls):
    # the reference is the definition: unstable exactly when N J is
    # nilpotent; f1 = tr(N J) is read off J, and N J and the invariants
    # are formed only when f1 = 0
    calls = count_calls(potential, "invariants_potential")
    products = count_calls(potential, "hamiltonian_matrix")
    rng = Random(55)
    verdicts = {"unstable": 0, "semistable": 0}
    fallback_semistable = 0
    for _ in range(300):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for r in range(4):
            for c in range(r, 4):
                v = Fraction(rng.choice((0, 0, 0, 0, 0, 1, -1, 2)), rng.randint(1, 3))
                rows[r][c] = rows[c][r] = v
        n = SymmetricPotentialMatrix(rows)
        if n.is_zero():
            continue
        h = hamiltonian_matrix(n)
        expected = "unstable" if h.is_nilpotent() else "semistable"
        assert _trace_nj(n) == h.trace(), n
        f1_zero = h.trace().is_zero()
        before, products_before = len(calls), len(products)
        assert classify_stability_potential(n) == expected, n
        assert len(calls) - before == (1 if f1_zero else 0), n
        assert len(products) - products_before == (1 if f1_zero else 0), n
        verdicts[expected] += 1
        if expected == "semistable" and f1_zero and not (h * h).trace().is_zero():
            fallback_semistable += 1
    assert min(verdicts.values()) >= 20, verdicts
    assert fallback_semistable >= 20, fallback_semistable


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


def _lift_as_tensor(n):
    """The double-cover lift of n's potential, each word a_i b_j' a_k' b_l
    (rotated to start at an unprimed a) read as {(i, j, k, l): coefficient}."""
    read = {}
    for word, coeff in potential_double_cover(sym_matrix_to_potential(n)).terms.items():
        start = next(s for s, label in enumerate(word) if label in ("a1", "a2"))
        labels = word[start:] + word[:start]
        assert [label[0] + label[2:] for label in labels] == ["a", "b'", "a'", "b"], word
        read[tuple(int(label[1]) - 1 for label in labels)] = coeff
    return read


def test_double_cover_lift_is_the_tensor():
    # both maps are linear in N, so the ten basis matrices prove it for every N
    for r, c in [(r, c) for r in range(4) for c in range(r, 4)]:
        n = SymmetricPotentialMatrix([[int((x, y) in ((r, c), (c, r))) for y in range(4)] for x in range(4)])
        m = potential_to_quintuple(n).m
        tensor = {
            (i, j, k, l): 2 * m[2 * i + j, 2 * k + l].as_fraction()
            for i in range(2) for j in range(2) for k in range(2) for l in range(2)
            if m[2 * i + j, 2 * k + l]
        }
        assert _lift_as_tensor(n) == tensor, (r, c)


def test_double_cover_lifts_cycles_the_tensor_refuses():
    # the lift needs an even number of b arrows, the tensor a length-4 word
    octic = ("a1", "b1", "a2", "b2", "a1", "b2", "a2", "b1")
    phi = CyclicPotential(conifold_quiver(), {octic: 3})
    with pytest.raises(DomainError, match="is not quartic"):
        potential_to_sym_matrix(phi)
    sheets = {
        ("a1", "b1'", "a2'", "b2", "a1", "b2'", "a2'", "b1"): 3,
        ("a1'", "b1", "a2", "b2'", "a1'", "b2", "a2", "b1'"): 3,
    }
    assert potential_double_cover(phi) == CyclicPotential(double_cover_quiver(), sheets)
    for odd in (("a1", "b1"), ("a1", "b1", "a2", "b2", "a1", "b1")):
        with pytest.raises(DomainError, match="does not close on the double cover"):
            potential_double_cover(CyclicPotential(conifold_quiver(), {odd: 1}))


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


def _expand(spectrum):
    """The product of the g_k^k of a spectrum, as descending coefficients."""
    f = [Fraction(1)]
    for k, g, _ in spectrum:
        for _ in range(k):
            h = [Fraction(0)] * (len(f) + len(g) - 1)
            for i, a in enumerate(f):
                for j, b in enumerate(g):
                    h[i + j] += a * b
            f = h
    return f


def _root_power_sums(f, top):
    """p_1..p_top of the roots of a monic f, by Newton's identities from its
    coefficients: p_k = (-1)^(k-1) k e_k + sum_{i<k} (-1)^(i-1) e_i p_(k-i)."""
    e = [(-1) ** i * c for i, c in enumerate(f)] + [0] * top
    p = []
    for k in range(1, top + 1):
        p.append((-1) ** (k - 1) * k * e[k] + sum((-1) ** (i - 1) * e[i] * p[k - i - 1] for i in range(1, k)))
    return p


def test_reconstruct_spectrum_base_potential():
    # N = J / 2, so N J = I / 2: one linear factor, of multiplicity four
    n = potential_to_sym_matrix(conifold_potential())
    spectrum = reconstruct_spectrum(n)
    assert spectrum == [(4, (1, Fraction(-1, 2)), 1)]
    assert all(type(c) is Fraction for c in spectrum[0][1])


def test_reconstruct_spectrum_random_consistency():
    """Monic factors whose product has the power traces of N J, by Newton's identities."""
    rng = Random(54)
    for _ in range(10):
        n = _random_symmetric(rng, span=3, maxden=2)
        while n.is_zero():
            n = _random_symmetric(rng, span=3, maxden=2)
        spectrum = reconstruct_spectrum(n)
        assert [k for k, _, _ in spectrum] == sorted({k for k, _, _ in spectrum})
        assert all(g[0] == 1 and 0 <= real <= len(g) - 1 for _, g, real in spectrum)
        assert sum(k * (len(g) - 1) for k, g, _ in spectrum) == 4
        assert _root_power_sums(_expand(spectrum), 4) == list(invariants_potential(n).as_tuple())


def _factor_residual(g, z):
    """|g(z)| in floats, relative to the larger of 1 and the sum of |c_i z^i|."""
    value = scale = 0.0
    for c in g:
        value = value * z + float(c)
        scale = scale * abs(z) + abs(float(c))
    return abs(value) / max(1.0, scale)


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
    """Each of numpy's eigenvalues of N J goes to the factor g_k it nearly
    annuls; g_k gets k deg(g_k) of them, and every relative residual is at
    most 1e-6.  The near-base matrices put four roots in a cluster, where
    numpy's eigenvalues are least accurate; the worst residual is 6.6e-8."""
    np = pytest.importorskip("numpy")

    j = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)
    count = 0
    for n in _reference_matrices(Random(55)):
        if n.is_zero():
            continue
        count += 1
        spectrum = reconstruct_spectrum(n)
        assert sum(k * (len(g) - 1) for k, g, _ in spectrum) == 4
        nj = np.array([[float(v) for v in row] for row in n.n]) @ j
        found = {k: 0 for k, _, _ in spectrum}
        for z in np.linalg.eigvals(nj):
            residual, k = min((_factor_residual(g, z), k) for k, g, _ in spectrum)
            assert residual <= 1e-6, (n, z)
            found[k] += 1
        assert found == {k: k * (len(g) - 1) for k, g, _ in spectrum}, n
    assert count >= 990


def test_reconstruct_spectrum_splits_repeated_roots_exactly():
    base = potential_to_sym_matrix(conifold_potential())
    assert reconstruct_spectrum(base) == [(4, (1, Fraction(-1, 2)), 1)]
    square = SymmetricPotentialMatrix.diagonal([Fraction(3, 7), 0, 0, 0])
    assert sym_matrix_to_potential(square).terms == {("a1", "b1", "a1", "b1"): Fraction(3, 7)}
    assert reconstruct_spectrum(square) == [(4, (1, 0), 1)]
    # spectrum {1/2, 1/2, -2, 3}: (x^2 - x - 6) (x - 1/2)^2
    half = Fraction(1, 2)
    n = SymmetricPotentialMatrix(
        [[0, 0, 0, half], [0, 5 * half, -half, 0], [0, -half, 5 * half, 0], [half, 0, 0, 0]]
    )
    assert reconstruct_spectrum(n) == [(1, (1, -1, -6), 2), (2, (1, -half), 1)]


def test_reconstruct_spectrum_real_roots_are_exactly_real():
    """The product of the g_k^k is sympy's characteristic polynomial of N J,
    and the sum of k times the real-root counts is its number of real roots
    with multiplicity, as sympy counts them.  For diag(1, 1, -1, -1) it is
    (x^2 + 1)^2, a level that is not square-free and has no real root."""
    sympy = pytest.importorskip("sympy")
    j = sympy.Matrix([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]])
    assert reconstruct_spectrum(SymmetricPotentialMatrix.diagonal([1, 2, 3, 5])) == [(1, (1, 0, -11, 0, 30), 4)]
    no_real_root = SymmetricPotentialMatrix.diagonal([1, 1, -1, -1])
    assert reconstruct_spectrum(no_real_root) == [(2, (1, 0, 1), 0)]
    for n in [no_real_root, *_reference_matrices(Random(55))]:
        if n.is_zero():
            continue
        nj = sympy.Matrix(4, 4, lambda r, c: sympy.Rational(n[r, c])) * j
        charpoly = nj.charpoly()
        spectrum = reconstruct_spectrum(n)
        assert _expand(spectrum) == [Fraction(int(c.p), int(c.q)) for c in charpoly.all_coeffs()], n
        real = sympy.real_roots(charpoly)
        assert sum(k * real_roots for k, _, real_roots in spectrum) == len(real), n


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
