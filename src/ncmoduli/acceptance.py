"""End-to-end acceptance checks for the whole pipeline.

Each criterion is a standalone function ``(seed, samples)`` returning a
CriterionResult with a pass flag, wall time, and a short human-readable
detail line.  One decorator gives all eight that signature, the check of
``samples`` and the time budget, in whole seconds; only the sweeps read
the seed and the size.  All expected values are exact and frozen; sampled
sweeps are seeded.  The status line and the JSON leave the wall time out,
so for a seed and a size they are the same bytes on every run.
"""

from __future__ import annotations

import time
from fractions import Fraction
from random import Random
from typing import List, Optional, Tuple

from .errors import DomainError, SchemaError
from .dtcount import (
    FramedRep,
    count_points,
    counting_report,
    default_stability,
    is_theta_stable,
)
from .elliptic import (
    LAMBDA_WORDS,
    apply_group_element,
    orbit_equivalent,
    random_configuration,
    random_curve_point,
    translate,
    verify_equation_preservation,
    LambdaPair,
)
from .exact import ExactMatrix, GaussianRational, _Record
from .potential import (
    SymmetricPotentialMatrix,
    classify_stability_potential,
    fiber_experiment,
    invariants_potential,
    potential_to_quintuple,
    potential_to_sym_matrix,
    prove_covering_identities,
    sym_matrix_to_potential,
    verify_covering_identities,
    weighted_point_potential,
)
from .quintuple import (
    Quintuple,
    WeightedPoint,
    classify_stability,
    invariants,
    is_geometric,
    linear_reference_quintuple,
    slot_transform,
    weighted_point,
    weighted_point_equal,
)
from .quiver import CyclicPotential, conifold_potential, conifold_quiver, graded_dimension

DEFAULT_SEED = 20240817

_TIME_BUDGETS = {1: 10, 2: 5, 3: None, 4: None, 5: 60, 6: 30, 7: 60, 8: 30}

#: Largest sweep size ``samples`` may ask for.  Criterion 2 is the tightest:
#: at 3 to 4 ms a sample it takes about 2 s of its 5 s budget at this size.
MAX_SAMPLES = 500


class CriterionResult(_Record):
    """One criterion's outcome."""

    __slots__ = ("index", "name", "passed", "seconds", "detail")

    def __init__(self, index: int, name: str, passed: bool, seconds: float, detail: str):
        self._assign(index, name, passed, seconds, detail)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"criterion {self.index} [{status}] {self.name}: {self.detail}"

    def to_json(self):
        return {
            "index": self.index,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


def _sample_size(samples: Optional[int], default: Optional[int]) -> Optional[int]:
    """A sweep's size: ``default`` for None, else ``samples``, from 1 to ``MAX_SAMPLES``."""
    if samples is None:
        return default
    if samples < 1:
        raise SchemaError(f"--samples must be positive, got {samples}")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    return samples


def _criterion(index: int, name: str, sweep: Optional[int] = None):
    """Make a body returning ``(passed, detail)`` criterion ``index``, called as ``(seed, samples)``.

    Every criterion checks ``samples`` with ``_sample_size`` and times the
    body against ``_TIME_BUDGETS[index]``.  A body with a sweep (default
    size ``sweep``) gets ``(seed, size)``; a fixed body gets nothing.
    """

    def decorate(body):
        def criterion(seed: int = DEFAULT_SEED, samples: Optional[int] = None) -> CriterionResult:
            size = _sample_size(samples, sweep)
            started = time.perf_counter()
            ok, detail = body() if sweep is None else body(seed, size)
            elapsed = time.perf_counter() - started
            budget = _TIME_BUDGETS[index]
            if budget is not None and elapsed >= budget:
                ok = False
                detail += f"; exceeded the {budget}s budget"
            return CriterionResult(index=index, name=name, passed=ok, seconds=elapsed, detail=detail)

        criterion.__name__, criterion.__qualname__, criterion.__doc__ = body.__name__, body.__qualname__, body.__doc__
        return criterion

    return decorate


def _random_fraction(rng: Random, span: int = 9, maxden: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, maxden))


def _random_symmetric(rng: Random) -> SymmetricPotentialMatrix:
    vals = [[Fraction(0)] * 4 for _ in range(4)]
    for r in range(4):
        for c in range(r, 4):
            v = _random_fraction(rng)
            vals[r][c] = v
            vals[c][r] = v
    return SymmetricPotentialMatrix(vals)


def _random_sl2(rng: Random) -> ExactMatrix:
    """A random product of integer shears; determinant 1 by construction."""
    m = ExactMatrix.identity(2)
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        if rng.randrange(2):
            shear = ExactMatrix([[1, k], [0, 1]])
        else:
            shear = ExactMatrix([[1, 0], [k, 1]])
        m = m * shear
    return m


@_criterion(1, "covering identities", sweep=200)
def criterion_1(seed: int, n_samples: int) -> Tuple[bool, str]:
    """The covering identities, proved symbolically and checked on seeded random matrices."""
    rng = Random(seed)
    proved = prove_covering_identities()
    good = 0
    for _ in range(n_samples):
        n = _random_symmetric(rng)
        while n.is_zero():
            n = _random_symmetric(rng)
        if verify_covering_identities(n):
            good += 1
    proof = "proved for symbolic N" if proved else "symbolic proof FAILED"
    return proved and good == n_samples, f"{proof}, {good}/{n_samples} matrices verified exactly"


@_criterion(2, "fiber cardinality", sweep=50)
def criterion_2(seed: int, n_samples: int) -> Tuple[bool, str]:
    """Each diagonal spectrum has exactly four preimages over its image point."""
    rng = Random(seed + 1)
    good = 0
    for _ in range(n_samples):
        xs = set()
        while len(xs) < 4:
            xs.add(Fraction(rng.randint(1, 12), rng.randint(1, 9)))
        report = fiber_experiment(sorted(xs))
        if report.preimage_count == 4 and report.target_consistent and report.odd_patterns_differ:
            good += 1
    return good == n_samples, f"{good}/{n_samples} spectra with a clean 4-element fiber"


@_criterion(3, "base potential end-to-end")
def criterion_3() -> Tuple[bool, str]:
    """The base superpotential end to end, all values exact."""
    phi = conifold_potential()
    n = potential_to_sym_matrix(phi)
    checks = []
    inv = invariants_potential(n)
    checks.append(("f", inv.as_tuple() == (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 4))))
    image = potential_to_quintuple(n)
    checks.append(("image", image == linear_reference_quintuple().scale(Fraction(1, 2))))
    qinv = invariants(image)
    checks.append(
        (
            "image invariants",
            tuple(v for v in qinv.as_tuple())
            == (
                GaussianRational(1),
                GaussianRational(Fraction(1, 4)),
                GaussianRational(Fraction(1, 16)),
                GaussianRational(Fraction(1, 16)),
            ),
        )
    )
    reference_point = WeightedPoint(weights=(2, 4, 4, 6), coords=(
        GaussianRational(4), GaussianRational(4), GaussianRational(1), GaussianRational(4)))
    checks.append(("weighted point", weighted_point_equal(weighted_point(image), reference_point)))
    checks.append(("geometric", is_geometric(image) == (True, None)))
    checks.append(("stability", classify_stability(image) == "stable"))
    bad = [name for name, ok in checks if not ok]
    return not bad, "all six exact checks hold" if not bad else f"failed: {', '.join(bad)}"


@_criterion(4, "nilpotent end-to-end")
def criterion_4() -> Tuple[bool, str]:
    """A square word: nilpotent, no invariant-theory image, not geometric."""
    phi = CyclicPotential(conifold_quiver(), {("a1", "b1", "a1", "b1"): Fraction(1)})
    n = potential_to_sym_matrix(phi)
    checks = []
    inv = invariants_potential(n)
    checks.append(("f vanish", inv.all_zero()))
    checks.append(("unstable", classify_stability_potential(n) == "unstable"))
    try:
        weighted_point_potential(n)
        checks.append(("no image", False))
    except DomainError:
        checks.append(("no image", True))
    image = potential_to_quintuple(n)
    geo, slot = is_geometric(image)
    checks.append(("not geometric", geo is False))
    bad = [name for name, okc in checks if not okc]
    return not bad, "degenerate word classified correctly" if not bad else f"failed: {', '.join(bad)}"


def _quadric_monomial_count(degree: int) -> int:
    """Independent oracle: monomials of the given degree in four variables
    x, y, z, w subject to the single rewriting xy -> zw, i.e. those with
    no positive power of both x and y."""
    total = 0
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                # d is forced; count those avoiding the rewritable corner
                if a == 0 or b == 0:
                    total += 1
    return total


@_criterion(5, "graded dimensions")
def criterion_5() -> Tuple[bool, str]:
    """Graded dimensions of the base Jacobi algebra against the monomial oracle."""
    dims = graded_dimension(conifold_potential(), "v0", "v0", 8)
    expected = [1, 0, 4, 0, 9, 0, 16, 0, 25]
    ok = dims == expected and all(dims[2 * m] == _quadric_monomial_count(m) for m in range(5))
    return ok, f"dims {dims} match the frozen sequence and the oracle" if ok else f"got {dims}, expected {expected}"


@_criterion(6, "orbit machinery", sweep=50)
def criterion_6(seed: int, n_pairs: int) -> Tuple[bool, str]:
    """Symbolic equation preservation, involutions, and the orbit search."""
    problems = []

    symbolic = verify_equation_preservation()
    if not all(symbolic.values()):
        bad = [k for k, v in symbolic.items() if not v]
        problems.append(f"symbolic failure in {bad}")

    rng = Random(seed + 6)
    n_fixtures = 25
    for _ in range(n_fixtures):
        lam, pt = random_curve_point(rng)
        pair = LambdaPair.from_affine(lam)
        for which in ("t1", "t2", "t3"):
            if translate(pair, translate(pair, pt, which), which) != pt:
                problems.append(f"{which} is not an involution at lambda={lam}")

    found = 0
    for _ in range(n_pairs):
        cfg = random_configuration(rng)
        word = rng.choice(LAMBDA_WORDS)
        tr1 = rng.choice((None, "t1", "t2", "t3"))
        tr2 = rng.choice((None, "t1", "t2", "t3"))
        image = apply_group_element(cfg, word, tr1, tr2, False)
        equivalent, witness = orbit_equivalent(cfg, image)
        if equivalent and witness is not None:
            found += 1
    if found != n_pairs:
        problems.append(f"only {found}/{n_pairs} orbit pairs confirmed")

    rejected = 0
    for _ in range(n_pairs):
        c1 = random_configuration(rng)
        orbit_values = {apply_group_element(c1, word).lam.affine for word in LAMBDA_WORDS}
        while True:
            c2 = random_configuration(rng)
            if c2.lam.affine not in orbit_values:
                break
        equivalent, _ = orbit_equivalent(c1, c2)
        if not equivalent:
            rejected += 1
    if rejected != n_pairs:
        problems.append(f"only {rejected}/{n_pairs} non-orbit pairs rejected")

    summary = f"symbolic identities, {n_fixtures} involution fixtures, {found}+{rejected} orbit decisions all exact"
    return not problems, "; ".join(problems) or summary


@_criterion(7, "finite-field counts")
def criterion_7() -> Tuple[bool, str]:
    """Finite-field counts, stability sweep, and the deformed comparison."""
    problems = []
    theta = default_stability()
    phi = conifold_potential()

    expected_counts = {2: 12, 3: 36, 5: 150, 7: 392}
    for p, want in expected_counts.items():
        got = count_points(phi, theta, p)
        if got != want:
            problems.append(f"count at p={p} was {got}, expected {want}")

    report = counting_report(phi, theta, (2, 3, 5, 7))
    if report.polynomial != (Fraction(0), Fraction(0), Fraction(1), Fraction(1)):
        problems.append(f"fit {report.polynomial} is not q^3 + q^2")
    if report.euler_characteristic != 2 or report.matches_classical is not True:
        problems.append("euler characteristic or classical flag wrong")

    swept = 0
    for a1 in range(3):
        for a2 in range(3):
            for b1 in range(3):
                for b2 in range(3):
                    for i in range(3):
                        rep = FramedRep.from_ints(3, a1, a2, b1, b2, i)
                        oracle = i != 0 and (a1 != 0 or a2 != 0)
                        if is_theta_stable(rep, theta) != oracle:
                            problems.append(f"stability mismatch at {(a1, a2, b1, b2, i)}")
                        swept += 1

    deformed = sym_matrix_to_potential(
        SymmetricPotentialMatrix.diagonal((Fraction(1), Fraction(2), Fraction(3), Fraction(5)))
    )
    deformed_count = count_points(deformed, theta, 5)
    if deformed_count != 10 or deformed_count == expected_counts[5]:
        problems.append(f"deformed count at p=5 was {deformed_count}")

    counts = sorted(expected_counts.values())
    summary = f"counts {counts}, {swept}-point stability sweep, deformed count {deformed_count} != 150"
    return not problems, "; ".join(problems) or summary


@_criterion(8, "group invariance", sweep=100)
def criterion_8(seed: int, n_samples: int) -> Tuple[bool, str]:
    """Invariance of both invariant systems under special linear slot actions."""
    rng = Random(seed + 8)
    problems = []

    tensor_ok = 0
    for _ in range(n_samples):
        entries = [
            [
                [[_random_fraction(rng, span=4, maxden=4) for _ in range(2)] for _ in range(2)]
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        q = Quintuple(entries)
        if q.is_zero():
            q = linear_reference_quintuple()
        gs = [_random_sl2(rng) for _ in range(4)]
        moved = slot_transform(q, *gs)
        if invariants(q) == invariants(moved):
            tensor_ok += 1
    if tensor_ok != n_samples:
        problems.append(f"tensor invariance {tensor_ok}/{n_samples}")

    matrix_ok = 0
    for _ in range(n_samples):
        n = _random_symmetric(rng)
        if n.is_zero():
            n = potential_to_sym_matrix(conifold_potential())
        k = _random_sl2(rng).kron(_random_sl2(rng))
        moved_exact = k * n.to_exact() * k.transpose()
        moved = SymmetricPotentialMatrix(
            [[moved_exact[r, c].as_fraction() for c in range(4)] for r in range(4)]
        )
        if invariants_potential(n) == invariants_potential(moved):
            matrix_ok += 1
    if matrix_ok != n_samples:
        problems.append(f"matrix invariance {matrix_ok}/{n_samples}")

    return not problems, "; ".join(problems) or f"{tensor_ok}+{matrix_ok} exact invariance checks"


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_acceptance(seed: int = DEFAULT_SEED, samples: Optional[int] = None) -> List[CriterionResult]:
    """All eight criteria; ``samples`` is checked before any of them runs."""
    _sample_size(samples, None)
    return [fn(seed=seed, samples=samples) for fn in CRITERIA]
